package tmplplan

import (
	"fmt"
	"io"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

// Planner resolves nested-include bodies to compiled plans. *Cache
// implements it; a nil Planner on Exec compiles includes uncached.
type Planner interface {
	Get(template []byte) (plan *Plan, hit bool, err error)
}

// Exec executes compiled plans against a fragment store. It is a
// configuration bundle, stateless across runs and safe for concurrent
// use.
type Exec struct {
	// Store resolves fragment GETs and receives SETs.
	Store fragstore.FragmentStore
	// Strict enables generation checking on GETs (the proxy's strict
	// mode).
	Strict bool
	// Codec decodes streamed templates, and nested-include bodies when
	// Plans is nil.
	Codec tmpl.Codec
	// Plans, when set, caches compiled nested-include bodies (the same
	// plan cache that holds top-level plans).
	Plans Planner
	// Parallelism is ignored: every fragment GET resolves in template
	// order, the one schedule. The field remains only because the
	// benchmark harness names it.
	Parallelism int
}

// execState threads the per-run mutable state through include recursion:
// one writer, one Stats, one ref-dedup set for the whole page.
type execState struct {
	e  *Exec
	w  io.Writer
	st *Stats
	// Dense-slot dedup for plans without includes (allocation-free up to
	// 64 distinct refs via bits; one []bool past that).
	bits uint64
	seen []bool
	// Map dedup for plans with includes, whose sub-programs have their
	// own slot spaces, and for streamed runs, which have no slots at all
	// (lazily allocated).
	seenMap map[uint64]struct{}
	useMap  bool
}

// Run executes the cached plan p, writing the assembled page to w: SETs
// are applied even after the page is doomed by a stale GET, output is
// suppressed from the first stale reference onward, and the final error
// carries the first stale ref and the total count. sp, when non-nil,
// receives a child span per fragment resolution.
func (e *Exec) Run(p *Plan, w io.Writer, sp *trace.Span) (Stats, error) {
	var st Stats
	st.TemplateBytes = p.srcLen
	x := &execState{e: e, w: w, st: &st, useMap: p.hasInc}
	if !p.hasInc && p.numRefs > 64 {
		x.seen = make([]bool, p.numRefs)
	}
	if err := x.run(p.ops, sp, 0); err != nil {
		return st, err
	}
	return st, st.staleErr()
}

// RunStream assembles a template it does not hold: it decodes r and steps
// each instruction the moment it arrives, retaining nothing, so memory
// stays O(largest instruction) however long the template is and every SET
// ahead of a read or decode error has landed when that error surfaces. It
// is the driver for what cannot be a cached plan — a template too large to
// hold, a body the origin stopped sending, a corrupt stream — and produces
// the bytes, Stats and errors Run produces for the same template, resolving
// every GET in stream order.
func (e *Exec) RunStream(r io.Reader, w io.Writer, sp *trace.Span) (Stats, error) {
	var st Stats
	x := &execState{e: e, w: w, st: &st, useMap: true}
	cr := &countingReader{r: r}
	err := x.stream(e.Codec.NewDecoder(cr), sp)
	st.TemplateBytes = cr.n
	if err != nil {
		return st, err
	}
	return st, st.staleErr()
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

// staleErr is the error an assembly that consumed its whole template ends
// with: nil, or ErrStale naming the first stale reference.
func (st *Stats) staleErr() error {
	if len(st.Stale) == 0 {
		return nil
	}
	first := st.Stale[0]
	return fmt.Errorf("%w (first: key %d gen %d, %d total)",
		ErrStale, first.Key, first.Gen, len(st.Stale))
}

// GetRef resolves one fragment reference. With a span it also asks the
// store which tier crossings the read caused and records them as tier
// events; without one it is store.Get and allocates nothing.
func GetRef(store fragstore.FragmentStore, fsp *trace.Span, key, gen uint32, strict bool) ([]byte, bool) {
	if fsp == nil {
		return store.Get(key, gen, strict)
	}
	data, ok, c := fragstore.GetCrossings(store, key, gen, strict)
	tierEvents(fsp, c)
	return data, ok
}

// tierEvents records a read's tier crossings on its fragment span.
func tierEvents(fsp *trace.Span, c fragstore.Crossings) {
	if c.Promoted {
		fsp.Event(trace.KindTier, "disk", "promote", 1)
	}
	if c.ServedInPlace {
		fsp.Event(trace.KindTier, "disk", "serve-in-place", 1)
	}
	if c.DemoteWrites > 0 {
		fsp.Event(trace.KindTier, "disk", "demote-write", int64(c.DemoteWrites))
	}
	if c.DemoteCleans > 0 {
		fsp.Event(trace.KindTier, "disk", "demote-clean", int64(c.DemoteCleans))
	}
}

// addRef records a unique fragment reference in first-use order.
func (x *execState) addRef(key, gen uint32, slot int32) {
	if x.useMap {
		id := uint64(key)<<32 | uint64(gen)
		if x.seenMap == nil {
			x.seenMap = make(map[uint64]struct{}, 8)
		} else if _, dup := x.seenMap[id]; dup {
			return
		}
		x.seenMap[id] = struct{}{}
	} else if x.seen != nil {
		if x.seen[slot] {
			return
		}
		x.seen[slot] = true
	} else {
		if x.bits&(1<<uint(slot)) != 0 {
			return
		}
		x.bits |= 1 << uint(slot)
	}
	x.st.Refs = append(x.st.Refs, Ref{Key: key, Gen: gen})
}

// stream is the decoder driver: each instruction becomes an operator
// through the conversion Compile uses and is run at once, a program of one.
func (x *execState) stream(dec tmpl.Decoder, sp *trace.Span) error {
	for {
		in, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dpc: decoding template: %w", err)
		}
		one := [1]op{newOp(in)}
		if err := x.run(one[:], sp, 0); err != nil {
			return err
		}
	}
}

// run executes operators in order: the template semantics, once, for both
// drivers. A cached plan hands it the whole program (the loop is in here so
// that costs no call per operator); a streamed run hands it one operator at
// a time. Nested includes recurse with the include's span as the parent,
// sharing the run's stats and dedup state, so staleness doom and SET
// application span the whole page.
func (x *execState) run(ops []op, sp *trace.Span, depth int) error {
	st := x.st
	for i := range ops {
		o := &ops[i]
		doomed := len(st.Stale) > 0
		switch o.kind {
		case tmpl.OpLiteral:
			st.Literals++
			if doomed {
				continue
			}
			if err := x.emit(o.data); err != nil {
				return err
			}
		case tmpl.OpSet:
			st.Sets++
			if err := x.e.Store.Set(o.key, o.gen, o.data); err != nil {
				return err
			}
			x.addRef(o.key, o.gen, o.refSlot)
			if doomed {
				continue
			}
			if err := x.emit(o.data); err != nil {
				return err
			}
		case tmpl.OpGet:
			st.Gets++
			var fsp *trace.Span
			if sp != nil {
				fsp = sp.Child("fragment")
			}
			data, ok := x.resolve(o, fsp)
			if fsp != nil {
				fsp.Finish()
			}
			if !ok || doomed {
				continue
			}
			if err := x.emit(data); err != nil {
				return err
			}
		case tmpl.OpInclude:
			st.Includes++
			if depth >= MaxIncludeDepth {
				return fmt.Errorf("dpc: include depth exceeds %d (key %d gen %d)",
					MaxIncludeDepth, o.key, o.gen)
			}
			fsp := sp.Child("include")
			data, ok := x.resolve(o, fsp)
			if !ok {
				fsp.Finish()
				continue
			}
			// The nested body is compiled whole before it runs (it is
			// resident fragment memory, not a stream), so a corrupt one
			// errors out before any of its side effects apply. It runs
			// even when the page is doomed: its SETs must still land in
			// the store (write suppression carries through the shared
			// Stats).
			sub, err := x.subplan(data)
			if err != nil {
				err = fmt.Errorf("dpc: decoding template: %w", err)
			} else {
				err = x.run(sub.ops, fsp, depth+1)
			}
			fsp.Finish()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("dpc: unexpected op %v in template", o.kind)
		}
	}
	return nil
}

// resolve reads the fragment a GET or include names: on a hit it records
// the reference and returns the bytes, on a miss it records the reference
// stale. fsp, the reference's span when the run is traced, gets the tier,
// hit and miss events.
func (x *execState) resolve(o *op, fsp *trace.Span) ([]byte, bool) {
	data, ok := GetRef(x.e.Store, fsp, o.key, o.gen, x.e.Strict)
	if !ok {
		if fsp != nil {
			fsp.Event(trace.KindMiss, "fragment", RefString(o.key, o.gen), 0)
		}
		x.st.Stale = append(x.st.Stale, Ref{Key: o.key, Gen: o.gen})
		return nil, false
	}
	if fsp != nil {
		fsp.Event(trace.KindHit, "fragment", RefString(o.key, o.gen), int64(len(data)))
	}
	x.addRef(o.key, o.gen, o.refSlot)
	return data, true
}

// emit writes page bytes and counts what the writer took.
func (x *execState) emit(b []byte) error {
	n, err := x.w.Write(b)
	x.st.PageBytes += int64(n)
	return err
}

// subplan resolves a nested-include body to a compiled plan, through the
// plan cache when one is configured.
func (x *execState) subplan(data []byte) (*Plan, error) {
	if x.e.Plans != nil {
		p, _, err := x.e.Plans.Get(data)
		return p, err
	}
	return Compile(x.e.Codec, data)
}
