package tmplplan

import (
	"bytes"

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
	// digest is the compiled template's digest, set by the Cache that
	// compiled the plan (zero for a plan compiled outside one).
	digest Digest
}

// Ops returns the program length in operators.
func (p *Plan) Ops() int { return len(p.ops) }

// SrcLen returns the compiled template's byte length.
func (p *Plan) SrcLen() int64 { return p.srcLen }

// Digest returns the digest of the template a Cache compiled the plan from.
func (p *Plan) Digest() Digest { return p.digest }

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

// Compile decodes template once and builds its operator program. The
// returned error is the decoder's own (wrapping tmpl.ErrCorrupt for
// malformed streams); callers then stream the template through
// Exec.RunStream, which applies the SETs ahead of the corruption before
// reporting it.
func Compile(codec tmpl.Codec, template []byte) (*Plan, error) {
	ins, err := tmpl.DecodeAll(codec, bytes.NewReader(template))
	if err != nil {
		return nil, err
	}
	p := &Plan{srcLen: int64(len(template))}
	p.ops = make([]op, 0, len(ins))
	refSlots := make(map[uint64]int32, 8)
	var retained int64
	slot := func(key, gen uint32) int32 {
		id := uint64(key)<<32 | uint64(gen)
		if s, ok := refSlots[id]; ok {
			return s
		}
		s := int32(len(refSlots))
		refSlots[id] = s
		return s
	}
	for _, in := range ins {
		o := newOp(in)
		retained += int64(len(o.data))
		if in.Op != tmpl.OpLiteral {
			o.refSlot = slot(in.Key, in.Gen)
		}
		switch in.Op {
		case tmpl.OpSet:
			p.hasSet = true
		case tmpl.OpInclude:
			p.hasInc = true
		}
		p.ops = append(p.ops, o)
	}
	p.numRefs = len(refSlots)
	p.footprint = retained + int64(len(p.ops))*opOverhead + int64(p.numRefs)*24 + 128
	return p, nil
}
