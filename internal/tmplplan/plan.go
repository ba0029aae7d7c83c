package tmplplan

import (
	"io"
	"sync"

	"dpcache/internal/tmpl"
)

// op is one operator: what a template instruction becomes before it is
// stepped. A compiled program retains its operators, immutable after
// Compile, with data slices owned by the plan and shared zero-copy with
// every execution; a streamed run builds each one, steps it and drops it.
type op struct {
	kind tmpl.Op
	key  uint32
	gen  uint32
	// data holds literal bytes (OpLiteral) or SET content (OpSet).
	data []byte
	// refSlot is the plan-dense index of this op's (key, gen) pair, used
	// for allocation-free ref dedup at execution (-1 for literals and for
	// streamed operators, which dedup by map).
	refSlot int32
}

// newOp converts one decoded instruction into its operator. What only a
// whole program can know (its dense ref slot) is left unset for Compile to
// fill in.
func newOp(in tmpl.Instruction) op {
	return op{kind: in.Op, key: in.Key, gen: in.Gen, data: in.Data, refSlot: -1}
}

// Plan is an immutable compiled template program. A Plan is safe for
// concurrent execution by any number of goroutines.
type Plan struct {
	ops []op
	// numRefs is the count of distinct (key, gen) pairs referenced.
	numRefs int
	// hasInc marks programs containing nested includes, whose ref dedup
	// must span sub-programs and therefore cannot use the dense slots.
	hasInc bool
	// hasSet marks programs containing a SET; see OneOff.
	hasSet bool
	// srcLen is the compiled template's byte length (Stats.TemplateBytes).
	srcLen int64
	// footprint is the plan's retained memory estimate (cache Cost).
	footprint int64
	// key is the string the Cache files the plan under, its template's
	// SHA-256; set by the Cache that compiled the plan (empty for a plan
	// compiled outside one).
	key string
}

// Ops returns the program length in operators.
func (p *Plan) Ops() int { return len(p.ops) }

// SrcLen returns the compiled template's byte length.
func (p *Plan) SrcLen() int64 { return p.srcLen }

// Key returns the plan's key in the Cache that compiled it (Cache.LookupKey).
func (p *Plan) Key() string { return p.key }

// OneOff reports that the program carries a SET, which makes its template
// one that will not arrive again: the SET is what makes the origin send a
// GET next time, and a re-SET after an invalidation carries a new
// generation. A plan cache keeps only plans that are not one-offs.
func (p *Plan) OneOff() bool { return p.hasSet }

// Footprint estimates the plan's retained bytes — the cost it charges
// against a plan cache's byte budget.
func (p *Plan) Footprint() int64 { return p.footprint }

// opOverhead approximates the per-op struct + bookkeeping bytes counted
// into a plan's footprint beyond its retained data.
const opOverhead = 64

// compiler is a Compile's scratch, pooled: the reader its decoder reads
// the template through, the program as decoded, before its length is
// known, and the table that numbers its refs.
type compiler struct {
	held  tmpl.Held
	ops   []op
	slots map[uint64]int32
}

var compilers = sync.Pool{New: func() any { return &compiler{slots: make(map[uint64]int32, 8)} }}

// maxPooledOps bounds the scratch the pool keeps: a giant template's
// program is left to the collector.
const maxPooledOps = 1 << 12

// release clears the scratch, so the pool pins neither a template nor a
// plan's bytes, and pools it.
func (c *compiler) release() {
	if len(c.ops) > maxPooledOps {
		return
	}
	c.held.Reset(nil)
	clear(c.ops)
	c.ops = c.ops[:0]
	clear(c.slots)
	compilers.Put(c)
}

// slot returns the dense index of the (key, gen) pair, numbering it on
// first sight.
func (c *compiler) slot(key, gen uint32) int32 {
	id := uint64(key)<<32 | uint64(gen)
	if s, ok := c.slots[id]; ok {
		return s
	}
	s := int32(len(c.slots))
	c.slots[id] = s
	return s
}

// Compile decodes template once and builds its operator program. The
// returned error is the decoder's own (wrapping tmpl.ErrCorrupt for
// malformed streams); callers then stream the template through
// Exec.RunStream, which applies the SETs ahead of the corruption before
// reporting it.
//
// The decoder reads the template where it lies (tmpl.Held), and what it
// returns is valid only until its next instruction, so each literal and
// SET body is copied as it is decoded, into one buffer the template's
// size: every byte a plan keeps is a byte of the template. The program is
// gathered in pooled scratch and copied out at its length, so a compile
// makes the same few allocations however many instructions it has.
func Compile(codec tmpl.Codec, template []byte) (*Plan, error) {
	c := compilers.Get().(*compiler)
	defer c.release()
	c.held.Reset(template)
	dec := codec.NewDecoder(&c.held)
	p := &Plan{srcLen: int64(len(template))}
	var kept []byte
	for {
		in, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		o := newOp(in)
		o.data = nil // in.Data is the decoder's: the op gets kept's copy
		if n := len(in.Data); n > 0 {
			if kept == nil {
				kept = make([]byte, 0, len(template))
			}
			kept = append(kept, in.Data...)
			o.data = kept[len(kept)-n : len(kept) : len(kept)]
		}
		if in.Op != tmpl.OpLiteral {
			o.refSlot = c.slot(in.Key, in.Gen)
		}
		switch in.Op {
		case tmpl.OpSet:
			p.hasSet = true
		case tmpl.OpInclude:
			p.hasInc = true
		}
		c.ops = append(c.ops, o)
	}
	p.ops = make([]op, len(c.ops))
	copy(p.ops, c.ops)
	p.numRefs = len(c.slots)
	// kept's spare capacity, the template's tag bytes, is retained too.
	p.footprint = int64(cap(kept)) + int64(len(p.ops))*opOverhead + int64(p.numRefs)*24 + 128
	return p, nil
}
