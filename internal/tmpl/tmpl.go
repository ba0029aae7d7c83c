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
// The protocol has one wire format, Binary (named "binary" on the
// X-DPC-Template response header): a 4-byte magic, an op byte, and uvarint
// fields give a GET tag of ~7–10 bytes, matching the paper's tag-size
// parameter g (Table 2: 10 bytes). SET content is bracketed by an open tag
// and a close tag so a cache miss costs s_e + 2g bytes, exactly the
// accounting of Section 5. Codec is the seam a reader of that format is
// plugged in through, so a caller can wrap Binary (to time its decoder,
// say) without a second format.
//
// Literal output may contain bytes that collide with the magic sequence;
// the encoder escapes such occurrences so decode(encode(x)) == x for
// arbitrary x. (The paper does not discuss this, but any real deployment
// needs it.)
package tmpl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

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

// writeEscaped writes literal bytes p to w with every occurrence of Magic
// replaced by its escape tag.
func writeEscaped(w io.Writer, p []byte) error {
	for {
		i := bytes.Index(p, Magic)
		if i < 0 {
			_, err := w.Write(p)
			return err
		}
		if _, err := w.Write(p[:i]); err != nil {
			return err
		}
		if _, err := w.Write(quoteTag); err != nil {
			return err
		}
		p = p[i+len(Magic):]
	}
}

// Decoder reads a template stream. Next returns io.EOF after the final
// instruction. The decoder owns each returned Data: it may be a buffer the
// decoder reuses, or alias what it reads (Binary's aliases its read buffer,
// or a Held template itself), so it is read-only and valid until the next
// call. A caller that keeps it past that must copy it.
type Decoder interface {
	Next() (Instruction, error)
}

// Codec constructs encoders and decoders for the wire format: Binary, or a
// wrapper around it.
type Codec interface {
	// Name identifies the format on the X-DPC-Template response header.
	Name() string
	NewEncoder(w io.Writer) Encoder
	NewDecoder(r io.Reader) Decoder
}

// ErrCorrupt reports a malformed template stream.
var ErrCorrupt = errors.New("tmpl: corrupt template stream")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
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

// DecodeAll reads instructions until EOF, copying each Data out of the
// decoder's hands (see Decoder), so the result is the caller's and stays
// valid. Adjacent literals are returned as produced by the decoder (they
// are not merged).
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
