// Package plantest holds the reference implementation of template assembly
// that internal/tmplplan is checked against: a streaming interpreter that
// re-decodes the template on every run and resolves every GET strictly in
// stream order, written independently of the engine's operator loop. It is
// test support, like fragstore/storetest: the conformance suite
// (internal/dpc/planconform_test.go) and the codec fuzzers
// (internal/tmpl/fuzz_test.go) compare both of the engine's drivers with it
// on output bytes, Stats, error text and SET side effects, and nothing
// outside _test.go files may import it (CI checks that no binary links it).
package plantest

import (
	"bytes"
	"fmt"
	"io"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// ErrStale, StaleRef and AssembleStats are the engine's own types: the
// oracle must fill and return them identically.
var ErrStale = tmplplan.ErrStale

// StaleRef identifies a slot reference that failed during assembly.
type StaleRef = tmplplan.Ref

// AssembleStats reports what one assembly consumed and produced. See
// tmplplan.Stats for field semantics.
type AssembleStats = tmplplan.Stats

// Assembler splices fragments into page layouts — the streaming
// interpreter: it re-decodes the template per request and resolves GETs
// strictly in stream order. It is stateless apart from the store
// reference and safe for concurrent use. It works against any fragstore
// backend.
type Assembler struct {
	store  fragstore.FragmentStore
	codec  tmpl.Codec
	strict bool
}

// NewAssembler returns an assembler reading templates in the given codec.
func NewAssembler(store fragstore.FragmentStore, codec tmpl.Codec, strict bool) *Assembler {
	return &Assembler{store: store, codec: codec, strict: strict}
}

// countingReader counts template bytes as the decoder consumes them.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Assemble reads a template from r, applies SET instructions to the store,
// resolves GET instructions from it, and writes the assembled page to w.
//
// On stale GETs, assembly keeps consuming the template (so its SETs still
// land in the store) and returns ErrStale at the end with the failing
// references in AssembleStats.Stale; callers must discard the page and
// fall back. Once the first stale reference is seen no further output is
// written — the page is already unusable, and suppressing the tail is what
// lets a streaming caller with an uncommitted spool abort cleanly.
func (a *Assembler) Assemble(w io.Writer, r io.Reader) (AssembleStats, error) {
	return a.AssembleTrace(w, r, nil)
}

// AssembleTrace is Assemble with decision provenance: each GET or include
// instruction resolves under its own child span of sp, annotated with the
// interned fragment reference and whether the store answered (the
// per-fragment spans of a request trace). A nil sp records nothing and
// allocates nothing extra.
func (a *Assembler) AssembleTrace(w io.Writer, r io.Reader, sp *trace.Span) (AssembleStats, error) {
	var st AssembleStats
	x := &interpState{a: a, w: w, st: &st}
	cr := &countingReader{r: r}
	dec := a.codec.NewDecoder(cr)
	for {
		in, err := dec.Next()
		if err == io.EOF {
			st.TemplateBytes = cr.n
			if len(st.Stale) > 0 {
				first := st.Stale[0]
				return st, fmt.Errorf("%w (first: key %d gen %d, %d total)",
					ErrStale, first.Key, first.Gen, len(st.Stale))
			}
			return st, nil
		}
		if err != nil {
			st.TemplateBytes = cr.n
			return st, fmt.Errorf("dpc: decoding template: %w", err)
		}
		if err := x.step(in, sp, 0); err != nil {
			return st, err
		}
	}
}

// interpState threads the interpreter's per-run mutable state through
// include recursion.
type interpState struct {
	a    *Assembler
	w    io.Writer
	st   *AssembleStats
	seen map[uint64]struct{} // lazily allocated ref dedup
}

func (x *interpState) addRef(key, gen uint32) {
	id := uint64(key)<<32 | uint64(gen)
	if x.seen == nil {
		x.seen = make(map[uint64]struct{}, 8)
	} else if _, dup := x.seen[id]; dup {
		return
	}
	x.seen[id] = struct{}{}
	x.st.Refs = append(x.st.Refs, StaleRef{Key: key, Gen: gen})
}

// step executes one decoded instruction. Nested includes recurse with the
// include's span as the parent, sharing the run's stats and dedup state,
// so staleness doom and SET application span the whole page.
func (x *interpState) step(in tmpl.Instruction, sp *trace.Span, depth int) error {
	st := x.st
	doomed := len(st.Stale) > 0
	switch in.Op {
	case tmpl.OpLiteral:
		st.Literals++
		if doomed {
			return nil
		}
		n, err := x.w.Write(in.Data)
		st.PageBytes += int64(n)
		return err
	case tmpl.OpSet:
		st.Sets++
		if err := x.a.store.Set(in.Key, in.Gen, in.Data); err != nil {
			return err
		}
		x.addRef(in.Key, in.Gen)
		if doomed {
			return nil
		}
		n, err := x.w.Write(in.Data)
		st.PageBytes += int64(n)
		return err
	case tmpl.OpGet:
		st.Gets++
		var fsp *trace.Span
		if sp != nil {
			fsp = sp.Child("fragment")
		}
		data, ok := tmplplan.GetRef(x.a.store, fsp, in.Key, in.Gen, x.a.strict)
		if !ok {
			if fsp != nil {
				fsp.Event(trace.KindMiss, "fragment",
					tmplplan.RefString(in.Key, in.Gen), 0)
				fsp.Finish()
			}
			st.Stale = append(st.Stale, StaleRef{Key: in.Key, Gen: in.Gen})
			return nil
		}
		if fsp != nil {
			fsp.Event(trace.KindHit, "fragment",
				tmplplan.RefString(in.Key, in.Gen), int64(len(data)))
			fsp.Finish()
		}
		x.addRef(in.Key, in.Gen)
		if doomed {
			return nil
		}
		n, err := x.w.Write(data)
		st.PageBytes += int64(n)
		return err
	case tmpl.OpInclude:
		st.Includes++
		if depth >= tmplplan.MaxIncludeDepth {
			return fmt.Errorf("dpc: include depth exceeds %d (key %d gen %d)",
				tmplplan.MaxIncludeDepth, in.Key, in.Gen)
		}
		var fsp *trace.Span
		if sp != nil {
			fsp = sp.Child("include")
		}
		data, ok := tmplplan.GetRef(x.a.store, fsp, in.Key, in.Gen, x.a.strict)
		if !ok {
			if fsp != nil {
				fsp.Event(trace.KindMiss, "fragment",
					tmplplan.RefString(in.Key, in.Gen), 0)
				fsp.Finish()
			}
			st.Stale = append(st.Stale, StaleRef{Key: in.Key, Gen: in.Gen})
			return nil
		}
		if fsp != nil {
			fsp.Event(trace.KindHit, "fragment",
				tmplplan.RefString(in.Key, in.Gen), int64(len(data)))
		}
		x.addRef(in.Key, in.Gen)
		// The nested body is decoded whole before execution (it is already
		// resident fragment memory, not a stream), so a corrupt nested
		// template errors out before any of its side effects apply — the
		// same all-or-nothing the engine gets from Compile.
		// Execution still runs even when the page is doomed: the nested
		// template's SETs must land in the store like any others.
		ins, err := tmpl.DecodeAll(x.a.codec, bytes.NewReader(data))
		if err != nil {
			if fsp != nil {
				fsp.Finish()
			}
			return fmt.Errorf("dpc: decoding template: %w", err)
		}
		for _, sub := range ins {
			if err := x.step(sub, fsp, depth+1); err != nil {
				if fsp != nil {
					fsp.Finish()
				}
				return err
			}
		}
		if fsp != nil {
			fsp.Finish()
		}
		return nil
	default:
		return fmt.Errorf("dpc: unexpected op %v in template", in.Op)
	}
}
