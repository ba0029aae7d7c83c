package tmplplan

import (
	"crypto/sha256"
	"errors"
	"io"
	"math"
	"sync"
	"unsafe"

	"dpcache/internal/tmpl"
)

// op is one operator: what a template instruction becomes before it is
// stepped. A compiled program retains its operators, immutable after
// Compile, each addressing its bytes by offset and length in the plan's one
// buffer, shared zero-copy with every execution; a streamed run builds each
// one over the decoder's instruction data, steps it and drops it.
type op struct {
	kind tmpl.Op
	// refSlot is the plan-dense index of this op's (key, gen) pair, used
	// for allocation-free ref dedup at execution (-1 for literals and for
	// streamed operators, which dedup by map).
	refSlot int32
	key     uint32
	gen     uint32
	// off and n address the op's literal bytes (OpLiteral) or SET content
	// (OpSet) in the byte base its run is handed (execState.run).
	off, n uint32
}

// opSize is the bytes a plan keeps per operator: 24.
const opSize = int64(unsafe.Sizeof(op{}))

// data returns the op's bytes in base.
func (o *op) data(base []byte) []byte {
	end := o.off + o.n
	return base[o.off:end:end]
}

// newOp converts one decoded instruction into its operator, its bytes at
// off in the base that will hold them. What only a whole program can know
// (its dense ref slot) is left unset for Compile to fill in.
func newOp(in tmpl.Instruction, off uint32) op {
	return op{kind: in.Op, refSlot: -1, key: in.Key, gen: in.Gen, off: off, n: uint32(len(in.Data))}
}

// Plan is an immutable compiled template program. A Plan is safe for
// concurrent execution by any number of goroutines.
type Plan struct {
	ops []op
	// data is the byte base of ops: every literal and SET body, in
	// program order, exactly as many bytes as they hold.
	data []byte
	// numRefs is the count of distinct (key, gen) pairs referenced.
	numRefs int
	// hasInc marks programs containing nested includes, whose ref dedup
	// must span sub-programs and therefore cannot use the dense slots.
	hasInc bool
	// hasSet marks programs containing a SET; see OneOff.
	hasSet bool
	// srcLen is the compiled template's byte length (Stats.TemplateBytes).
	srcLen int64
	// footprint is the plan's retained bytes (cache Cost).
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

// Footprint is the plan's retained bytes — the cost it charges against a
// plan cache's byte budget: the Plan itself, its ops and its byte buffer,
// and the 32-byte key a Cache files it under.
func (p *Plan) Footprint() int64 { return p.footprint }

// planSize is the bytes of a Plan and of the key a Cache files it under.
const planSize = int64(unsafe.Sizeof(Plan{})) + sha256.Size

// compiler is a Compile's scratch, pooled: the reader its decoder reads
// the template through, the program and its bytes as decoded, before their
// lengths are known, and the table that numbers its refs.
type compiler struct {
	held  tmpl.Held
	ops   []op
	bytes []byte
	slots map[uint64]int32
}

var compilers = sync.Pool{New: func() any { return &compiler{slots: make(map[uint64]int32, 8)} }}

// The scratch the pool keeps is bounded: a giant template's program or
// bytes are left to the collector.
const (
	maxPooledOps   = 1 << 12
	maxPooledBytes = 1 << 20
)

// release clears the scratch, so the pool pins neither a template nor a
// plan's bytes, and pools it.
func (c *compiler) release() {
	if len(c.ops) > maxPooledOps || cap(c.bytes) > maxPooledBytes {
		return
	}
	c.held.Reset(nil)
	c.ops = c.ops[:0]
	c.bytes = c.bytes[:0]
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

// errTooLarge refuses a template whose bytes ops could not address.
var errTooLarge = errors.New("tmplplan: template of 4 GiB or more")

// Compile decodes template once and builds its operator program. The
// returned error is the decoder's own (wrapping tmpl.ErrCorrupt for
// malformed streams), or errTooLarge; callers then stream the template
// through Exec.RunStream, which applies the SETs ahead of the corruption
// before reporting it.
//
// The decoder reads the template where it lies (tmpl.Held), and what it
// returns is valid only until its next instruction, so each literal and
// SET body is gathered as it is decoded into pooled scratch, beside the
// program; both are copied out at their lengths, the bytes into one buffer
// that holds exactly the plan's literal and SET bytes and none of the
// template's tags. A compile makes the same few allocations however many
// instructions it has.
func Compile(codec tmpl.Codec, template []byte) (*Plan, error) {
	if int64(len(template)) > math.MaxUint32 {
		return nil, errTooLarge
	}
	c := compilers.Get().(*compiler)
	defer c.release()
	c.held.Reset(template)
	dec := codec.NewDecoder(&c.held)
	p := &Plan{srcLen: int64(len(template))}
	for {
		in, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		o := newOp(in, uint32(len(c.bytes)))
		c.bytes = append(c.bytes, in.Data...)
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
	if len(c.bytes) > 0 {
		p.data = make([]byte, len(c.bytes))
		copy(p.data, c.bytes)
	}
	p.numRefs = len(c.slots)
	p.footprint = planSize + int64(len(p.ops))*opSize + int64(len(p.data))
	return p, nil
}
