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
// one writer, one Stats, one ref-dedup set and one fragment scratch for the
// whole page.
type execState struct {
	e *Exec
	// rd is e.Store's own read path, asserted once a run; nil when the
	// store has none, and every GET is then its Get.
	rd fragstore.Reader
	w  io.Writer
	st *Stats
	// scratch receives the fragments a GET's read serves in place (disk
	// hits the store does not keep); each is emitted before the next GET
	// overwrites it. Released when the run ends.
	scratch *fragstore.Scratch
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

// runOut is the part of a run's state that its reads hand on, and so lives
// on the heap: its Stats and the scratch its store's Reader is lent, in one
// allocation. The rest of execState stays on the stack.
type runOut struct {
	st      Stats
	scratch fragstore.Scratch
}

// newState begins a run writing to w.
func (e *Exec) newState(w io.Writer, useMap bool) *execState {
	out := new(runOut)
	x := &execState{e: e, w: w, st: &out.st, scratch: &out.scratch, useMap: useMap}
	x.rd, _ = e.Store.(fragstore.Reader)
	return x
}

// finish ends a run: the scratch goes back to its pool, and an assembly
// that consumed its whole template reports its stale references.
func (x *execState) finish(err error) (Stats, error) {
	x.scratch.Release()
	if err != nil {
		return *x.st, err
	}
	return *x.st, x.st.staleErr()
}

// Run executes the cached plan p, writing the assembled page to w: SETs
// are applied even after the page is doomed by a stale GET, output is
// suppressed from the first stale reference onward, and the final error
// carries the first stale ref and the total count. sp, when non-nil,
// receives a child span per fragment resolution. Every byte is written to w
// before Run returns: fragment bytes passed to w.Write may be the run's
// scratch, valid only until the next GET.
func (e *Exec) Run(p *Plan, w io.Writer, sp *trace.Span) (Stats, error) {
	x := e.newState(w, p.hasInc)
	x.st.TemplateBytes = p.srcLen
	if p.numRefs > 0 {
		// Sized once: a plan without includes records at most numRefs.
		x.st.Refs = make([]Ref, 0, p.numRefs)
	}
	if !p.hasInc && p.numRefs > 64 {
		x.seen = make([]bool, p.numRefs)
	}
	return x.finish(x.run(p.ops, sp, 0))
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
	x := e.newState(w, true)
	cr := &countingReader{r: r}
	err := x.stream(e.Codec.NewDecoder(cr), sp)
	x.st.TemplateBytes = cr.n
	return x.finish(err)
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

// GetRef resolves one fragment reference through store's read path: its
// Reader when it has one, else its Get. s, when non-nil, is the caller's
// scratch (see fragstore.Scratch): a disk hit the store serves in place is
// copied into it, and the bytes returned are then valid only until the
// caller's next read through s. With a span it also records the read's tier
// crossings as tier events; without one it allocates nothing.
func GetRef(store fragstore.FragmentStore, fsp *trace.Span, key, gen uint32, strict bool, s *fragstore.Scratch) ([]byte, bool) {
	rd, _ := store.(fragstore.Reader)
	return getRef(store, rd, fsp, key, gen, strict, s)
}

// getRef is GetRef with store's Reader already asserted (rd, nil for none):
// a run asserts it once, not per GET.
func getRef(store fragstore.FragmentStore, rd fragstore.Reader, fsp *trace.Span, key, gen uint32, strict bool, s *fragstore.Scratch) ([]byte, bool) {
	if rd == nil {
		return store.Get(key, gen, strict)
	}
	data, ok, c := rd.Read(key, gen, strict, s)
	if fsp != nil {
		tierEvents(fsp, c)
	}
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
// Its data is the decoder's, valid only until the next Next, and nothing
// here keeps it that long: a literal is written to the page, a SET's body
// is copied by the store's Set and then written, before the loop asks for
// the next instruction.
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
			data, ok := x.resolve(o, fsp, x.scratch)
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
			// The body gets bytes of its own, not the scratch: the plan
			// cache may keep it, and the nested run's GETs reuse the scratch.
			data, ok := x.resolve(o, fsp, nil)
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
// hit and miss events; s, when non-nil, is the scratch the read may serve
// the bytes in (see GetRef).
func (x *execState) resolve(o *op, fsp *trace.Span, s *fragstore.Scratch) ([]byte, bool) {
	data, ok := getRef(x.e.Store, x.rd, fsp, o.key, o.gen, x.e.Strict, s)
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
