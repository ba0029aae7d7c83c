package tmpl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"

	"dpcache/internal/kmp"
)

// Magic introduces every binary-codec tag. 0x01 cannot appear in HTML text
// produced by well-formed generators, so escapes are rare in practice; the
// encoder still handles them for full generality.
var Magic = []byte{0x01, 'D', 'P', 'C'}

// Binary op bytes following the magic.
const (
	bopGet   = 'G' // magic G key gen
	bopSet   = 'S' // magic S key gen len <content> magic E
	bopEnd   = 'E' // closes a SET
	bopQuote = 'Z' // literal occurrence of the magic itself
	bopInc   = 'I' // magic I key gen — nested-include of slot Key
)

// Binary is the template wire format.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// GetTagSize returns the encoded size of a GET tag for the given key and
// generation — the paper's g: magic + op + uvarint(key) + uvarint(gen).
func (Binary) GetTagSize(key, gen uint32) int {
	return len(Magic) + 1 + uvarintLen(uint64(key)) + uvarintLen(uint64(gen))
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// NewEncoder implements Codec.
func (Binary) NewEncoder(w io.Writer) Encoder {
	return &binEncoder{encoderOut: newEncoderOut(w)}
}

type binEncoder struct {
	encoderOut
	// tagBuf is where a tag (magic, op, up to three uvarints) is laid out
	// before its one Write: a field of the encoder, because a local handed
	// to an interface method escapes.
	tagBuf [4 + 1 + 3*binary.MaxVarintLen64]byte
}

// The tags that carry no fields.
var (
	quoteTag = append(append([]byte(nil), Magic...), bopQuote)
	endTag   = append(append([]byte(nil), Magic...), bopEnd)
)

// tag lays out magic, op, key and gen in tagBuf.
func (e *binEncoder) tag(op byte, key, gen uint32) []byte {
	buf := append(e.tagBuf[:0], Magic...)
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(key))
	return binary.AppendUvarint(buf, uint64(gen))
}

// Literal writes p, escaping any embedded magic sequences.
func (e *binEncoder) Literal(p []byte) error { return writeEscaped(e, p) }

func (e *binEncoder) Get(key, gen uint32) error {
	_, err := e.Write(e.tag(bopGet, key, gen))
	return err
}

func (e *binEncoder) Include(key, gen uint32) error {
	_, err := e.Write(e.tag(bopInc, key, gen))
	return err
}

func (e *binEncoder) Set(key, gen uint32, content []byte) error {
	open := binary.AppendUvarint(e.tag(bopSet, key, gen), uint64(len(content)))
	if _, err := e.Write(open); err != nil {
		return err
	}
	if _, err := e.Write(content); err != nil {
		return err
	}
	_, err := e.Write(endTag)
	return err
}

// magicMatcher is the streaming tag scan of Section 5, compiled once: a
// Matcher is read-only after Compile, each decoder takes its own Stream.
var magicMatcher = kmp.Compile(Magic)

// NewDecoder implements Codec.
func (Binary) NewDecoder(r io.Reader) Decoder {
	return &binDecoder{r: bufio.NewReader(r), magic: magicMatcher.Stream()}
}

// maxLiteralChunk bounds the size of a single literal instruction so the
// assembler can stream very large non-cacheable regions without buffering
// them whole.
const maxLiteralChunk = 32 * 1024

type binDecoder struct {
	r       *bufio.Reader
	magic   *kmp.Stream
	buf     []byte // literal bytes accumulated since the last instruction
	pending []Instruction
	eof     bool
}

// Next implements Decoder. Returned Data slices are freshly allocated and
// remain valid after subsequent calls.
func (d *binDecoder) Next() (Instruction, error) {
	for {
		if len(d.pending) > 0 {
			in := d.pending[0]
			d.pending = d.pending[1:]
			return in, nil
		}
		if d.eof {
			return Instruction{}, io.EOF
		}
		if err := d.readMore(); err != nil {
			return Instruction{}, err
		}
	}
}

// emitLiteral queues the accumulated literal (minus the trailing drop
// bytes, which belong to a recognized tag) and resets the buffer.
func (d *binDecoder) emitLiteral(drop int) {
	lit := d.buf[:len(d.buf)-drop]
	if len(lit) > 0 {
		cp := make([]byte, len(lit))
		copy(cp, lit)
		d.pending = append(d.pending, Instruction{Op: OpLiteral, Data: cp})
	}
	d.buf = d.buf[:0]
}

// readMore consumes input until at least one instruction is queued or an
// error occurs.
func (d *binDecoder) readMore() error {
	for len(d.pending) == 0 {
		b, err := d.r.ReadByte()
		if err == io.EOF {
			d.eof = true
			// A partial magic prefix at EOF is plain literal output.
			d.magic.Reset()
			d.emitLiteral(0)
			return nil
		}
		if err != nil {
			return err
		}
		d.buf = append(d.buf, b)
		if ends := d.magic.Feed([]byte{b}); len(ends) > 0 {
			d.magic.Reset()
			d.emitLiteral(len(Magic))
			in, err := d.readTag()
			if err != nil {
				return err
			}
			d.pending = append(d.pending, in)
			return nil
		}
		// Stream out very long literals early; never split a
		// partial magic prefix across the boundary.
		if keep := d.magic.State(); len(d.buf)-keep >= maxLiteralChunk {
			tail := make([]byte, keep)
			copy(tail, d.buf[len(d.buf)-keep:])
			d.emitLiteral(keep)
			d.buf = append(d.buf, tail...)
			return nil
		}
	}
	return nil
}

func (d *binDecoder) readTag() (Instruction, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return Instruction{}, corrupt("truncated tag: %v", err)
	}
	switch op {
	case bopQuote:
		return Instruction{Op: OpLiteral, Data: append([]byte(nil), Magic...)}, nil
	case bopGet:
		key, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("GET key: %v", err)
		}
		gen, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("GET gen: %v", err)
		}
		return Instruction{Op: OpGet, Key: uint32(key), Gen: uint32(gen)}, nil
	case bopInc:
		key, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("INC key: %v", err)
		}
		gen, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("INC gen: %v", err)
		}
		return Instruction{Op: OpInclude, Key: uint32(key), Gen: uint32(gen)}, nil
	case bopSet:
		key, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("SET key: %v", err)
		}
		gen, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("SET gen: %v", err)
		}
		n, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Instruction{}, corrupt("SET len: %v", err)
		}
		if n > 1<<30 {
			return Instruction{}, corrupt("SET len %d exceeds limit", n)
		}
		content, err := readSetContent(d.r, n)
		if err != nil {
			return Instruction{}, corrupt("SET content: %v", err)
		}
		var close [5]byte
		if _, err := io.ReadFull(d.r, close[:]); err != nil {
			return Instruction{}, corrupt("SET close tag: %v", err)
		}
		if !bytes.Equal(close[:4], Magic) || close[4] != bopEnd {
			return Instruction{}, corrupt("SET not closed by END tag")
		}
		return Instruction{Op: OpSet, Key: uint32(key), Gen: uint32(gen), Data: content}, nil
	default:
		return Instruction{}, corrupt("unknown op byte %q", op)
	}
}
