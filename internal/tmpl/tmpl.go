// Package tmpl defines the template wire protocol spoken between the Back
// End Monitor (origin side) and the Dynamic Proxy Cache.
//
// A template is the page layout the paper describes in Section 4: the
// origin's response body is a stream of instructions —
//
//   - literal bytes (non-cacheable output, markup between fragments),
//   - GET(dpcKey): "splice in the fragment you already hold in this slot",
//   - SET(dpcKey){content}: "store this freshly generated fragment in this
//     slot, and splice it in",
//   - INCLUDE(dpcKey): "the fragment in this slot is itself a template;
//     assemble it recursively in place" (ESI-style nested composition).
//
// Two codecs implement the protocol. The binary codec is the production
// format: a 4-byte magic, an op byte, and uvarint fields give a GET tag of
// ~7–10 bytes, matching the paper's tag-size parameter g (Table 2: 10
// bytes). SET content is bracketed by an open tag and a close tag so a cache
// miss costs s_e + 2g bytes, exactly the accounting of Section 5. The text
// codec is human-readable and exists for debugging and for the codec
// ablation benchmark.
//
// Literal output may contain bytes that collide with the magic sequence;
// encoders escape such occurrences so decode(encode(x)) == x for arbitrary
// x. (The paper does not discuss this, but any real deployment needs it.)
package tmpl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// readSetContent reads exactly n bytes of SET payload without trusting n
// for the allocation: a corrupt length header can claim a gigabyte the
// stream never delivers, and sizing the buffer up front would turn a
// few-byte template into a giant allocation. The buffer grows only as
// bytes actually arrive.
func readSetContent(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Op identifies an instruction kind.
type Op byte

// Instruction opcodes.
const (
	OpLiteral Op = iota // Data holds literal page bytes
	OpGet               // splice fragment from slot Key
	OpSet               // store Data into slot Key, then splice it
	OpInclude           // slot Key holds a nested template; assemble it inline
)

// String returns the mnemonic for the op.
func (o Op) String() string {
	switch o {
	case OpLiteral:
		return "LIT"
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpInclude:
		return "INC"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Instruction is one decoded unit of a template stream.
type Instruction struct {
	Op   Op
	Key  uint32 // dpcKey; meaningful for GET/SET
	Gen  uint32 // generation for strict-mode staleness checks
	Data []byte // literal bytes, or SET fragment content
}

// Encoder writes a template stream.
type Encoder interface {
	// Literal appends raw page bytes.
	Literal(p []byte) error
	// Get emits a splice-from-cache tag.
	Get(key, gen uint32) error
	// Set emits a store-and-splice tag pair bracketing content.
	Set(key, gen uint32, content []byte) error
	// Include emits a nested-include tag: slot Key holds another template
	// in the same codec, to be assembled recursively in place (ESI-style
	// composition). A missing or stale slot is a stale reference, exactly
	// like a GET.
	Include(key, gen uint32) error
	// Flush forces any buffered bytes to the underlying writer.
	Flush() error
}

// encoderOut is what an encoder writes to. A writer that also takes single
// bytes (a bytes.Buffer, a bufio.Writer) already holds its output in memory
// and the encoder writes straight into it; anything else — a pipe, a
// connection — gets a bufio.Writer of the encoder's own, which Flush drains.
type encoderOut struct {
	io.Writer
	own *bufio.Writer // nil when writing straight through
}

func newEncoderOut(w io.Writer) encoderOut {
	if _, inMemory := w.(io.ByteWriter); inMemory {
		return encoderOut{Writer: w}
	}
	bw := bufio.NewWriter(w)
	return encoderOut{Writer: bw, own: bw}
}

// Flush implements Encoder.
func (o encoderOut) Flush() error {
	if o.own == nil {
		return nil
	}
	return o.own.Flush()
}

// writeEscaped writes literal bytes p to w with every occurrence of the
// codec's tag mark replaced by its escape tag.
func writeEscaped(w io.Writer, p, mark, escape []byte) error {
	for {
		i := bytes.Index(p, mark)
		if i < 0 {
			_, err := w.Write(p)
			return err
		}
		if _, err := w.Write(p[:i]); err != nil {
			return err
		}
		if _, err := w.Write(escape); err != nil {
			return err
		}
		p = p[i+len(mark):]
	}
}

// Decoder reads a template stream. Next returns io.EOF after the final
// instruction. Implementations may reuse the returned Data buffer between
// calls; callers that retain it must copy.
type Decoder interface {
	Next() (Instruction, error)
}

// Codec constructs encoders and decoders for one wire format.
type Codec interface {
	// Name identifies the codec on the X-DPC-Template response header.
	Name() string
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
	// GetTagSize returns the encoded size of a GET tag for the given key
	// and generation — the paper's g.
	GetTagSize(key, gen uint32) int
	// SetOverhead returns the encoded overhead (everything except the
	// content itself) of a SET for the given fields — the paper's 2g.
	SetOverhead(key, gen uint32, contentLen int) int
}

// ErrCorrupt reports a malformed template stream.
var ErrCorrupt = errors.New("tmpl: corrupt template stream")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ByName returns the codec registered under name.
func ByName(name string) (Codec, error) {
	switch name {
	case "binary":
		return Binary{}, nil
	case "text":
		return Text{}, nil
	}
	return nil, fmt.Errorf("tmpl: unknown codec %q", name)
}

// EncodeAll is a convenience that writes a sequence of instructions to w.
func EncodeAll(c Codec, w io.Writer, ins []Instruction) error {
	e := c.NewEncoder(w)
	for _, in := range ins {
		var err error
		switch in.Op {
		case OpLiteral:
			err = e.Literal(in.Data)
		case OpGet:
			err = e.Get(in.Key, in.Gen)
		case OpSet:
			err = e.Set(in.Key, in.Gen, in.Data)
		case OpInclude:
			err = e.Include(in.Key, in.Gen)
		default:
			err = fmt.Errorf("tmpl: cannot encode op %v", in.Op)
		}
		if err != nil {
			return err
		}
	}
	return e.Flush()
}

// DecodeAll reads instructions until EOF, copying Data buffers so the
// result remains valid. Adjacent literals are returned as produced by the
// decoder (they are not merged).
func DecodeAll(c Codec, r io.Reader) ([]Instruction, error) {
	d := c.NewDecoder(r)
	var out []Instruction
	for {
		in, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		cp := make([]byte, len(in.Data))
		copy(cp, in.Data)
		in.Data = cp
		out = append(out, in)
	}
}

// Normalize merges adjacent literals and drops empty ones, producing the
// canonical form used to compare instruction streams in tests.
func Normalize(ins []Instruction) []Instruction {
	var out []Instruction
	for _, in := range ins {
		if in.Op == OpLiteral {
			if len(in.Data) == 0 {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Op == OpLiteral {
				merged := make([]byte, 0, len(out[n-1].Data)+len(in.Data))
				merged = append(merged, out[n-1].Data...)
				merged = append(merged, in.Data...)
				out[n-1].Data = merged
				continue
			}
		}
		out = append(out, in)
	}
	return out
}
