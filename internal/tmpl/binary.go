package tmpl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
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
	tagBuf [maxHeader]byte
}

// maxHeader is the longest a tag runs before a SET's body: magic, op, and
// three uvarints (key, gen, and the SET's length).
const maxHeader = 4 + 1 + 3*binary.MaxVarintLen64

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

// Held is an io.Reader over a template held whole in memory, set with
// Reset; the zero Held reads an empty template. Binary's decoder, handed
// one directly or through a Codec that wraps Binary, scans the template
// where it lies, with no bufio.Reader between: every SET length is checked
// against the bytes left, and each Instruction.Data is a subslice of the
// template. The template must not change while it is read.
type Held struct {
	b   []byte
	off int // bytes read or decoded
}

// Reset makes h read template from its start.
func (h *Held) Reset(template []byte) { *h = Held{b: template} }

// Read implements io.Reader.
func (h *Held) Read(p []byte) (int, error) {
	if h.off >= len(h.b) {
		return 0, io.EOF
	}
	n := copy(p, h.b[h.off:])
	h.off += n
	return n, nil
}

// NewDecoder implements Codec. A *Held is scanned where it lies, any other
// reader in the buffer of a bufio.Reader.
func (Binary) NewDecoder(r io.Reader) Decoder {
	if h, ok := r.(*Held); ok {
		return &binDecoder{held: h, end: io.EOF}
	}
	return &binDecoder{r: bufio.NewReader(r)}
}

// maxLiteralChunk bounds the size of a single literal instruction so the
// assembler can stream very large non-cacheable regions without buffering
// them whole.
const maxLiteralChunk = 32 * 1024

// binDecoder is the linear-time tag scan of Section 5, run over a window
// of bytes: the unread rest of a held template, or what a bufio.Reader
// holds of a stream. bytes.IndexByte finds each byte that could open a tag
// and a four-byte compare confirms the magic, so each byte is read at most
// len(Magic) times: the linear bound the paper takes from KMP, without an
// automaton fed one byte at a time. (Magic[0] occurs nowhere else in
// Magic, so KMP's failure function for it is all zeros: its automaton
// does what this scan does, look for Magic[0] and then match the rest.)
type binDecoder struct {
	held *Held         // a template in memory; nil for a stream
	r    *bufio.Reader // a stream; nil for a held template
	// end is why no byte beyond the window will come: nil while one may,
	// io.EOF at the input's end, or the error that ended a stream's reads,
	// reported once the bytes read before it are decoded.
	end error
	// gathered holds what of a stream ran past the window: a literal, or
	// a SET body longer than the buffer. A literal is handed out before the
	// tag after it is read, so one buffer serves both.
	gathered []byte
}

// window returns the unread bytes in view: at least min of them (at most
// the buffer's size) unless the input ends first.
func (d *binDecoder) window(min int) []byte {
	if d.r == nil {
		return d.held.b[d.held.off:]
	}
	if d.r.Buffered() < min && d.end == nil {
		_, d.end = d.r.Peek(min)
	}
	w, _ := d.r.Peek(d.r.Buffered()) // never more than is buffered: no error
	return w
}

// consume moves past n bytes of the window.
func (d *binDecoder) consume(n int) {
	if d.r == nil {
		d.held.off += n
		return
	}
	_, _ = d.r.Discard(n) // n bytes are buffered: no error
}

// cut is the error for an instruction the input ended inside.
func (d *binDecoder) cut() error {
	if d.end == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.end
}

// literalLen returns how many bytes at the front of w are literal, at most
// max: those before the first tag. open reports that they stop at a
// Magic[0] too near w's end to tell whether it opens a tag, which only a
// window that is not final leaves open; in the final one, that byte and
// every byte after it are literal.
func literalLen(w []byte, max int, final bool) (n int, open bool) {
	end := min(len(w), max)
	for n < end {
		i := bytes.IndexByte(w[n:end], Magic[0])
		if i < 0 {
			break
		}
		n += i
		if n+len(Magic) > len(w) {
			if final {
				return end, false
			}
			return n, true
		}
		if bytes.Equal(w[n:n+len(Magic)], Magic) {
			return n, false
		}
		n++
	}
	return end, false
}

// Next implements Decoder. Data is a subslice of the window — of the held
// template itself, or of a stream's read buffer — or of a buffer of the
// decoder's own: it is valid until the next call, and is not to be
// modified. A stream's read error is returned as it stands, once every
// byte read before it is decoded, unless a tag it cuts short makes it the
// cause of ErrCorrupt.
func (d *binDecoder) Next() (Instruction, error) {
	d.gathered = d.gathered[:0]
	want := 1
	for {
		w := d.window(want)
		if len(w) == 0 {
			if len(d.gathered) > 0 {
				return Instruction{Op: OpLiteral, Data: d.gathered}, nil
			}
			return Instruction{}, d.end
		}
		n, open := literalLen(w, maxLiteralChunk-len(d.gathered), d.end != nil)
		if open || n == len(w) && d.end == nil && len(d.gathered)+n < maxLiteralChunk {
			// The literal may run on past the window: gather what it has
			// and look again, at a whole magic's worth when one was cut.
			d.gathered = append(d.gathered, w[:n]...)
			d.consume(n)
			want = 1
			if open {
				want = len(Magic)
			}
			continue
		}
		switch {
		case len(d.gathered) > 0:
			d.gathered = append(d.gathered, w[:n]...)
			d.consume(n)
			return Instruction{Op: OpLiteral, Data: d.gathered}, nil
		case n > 0:
			d.consume(n)
			return Instruction{Op: OpLiteral, Data: w[:n:n]}, nil
		}
		return d.tag()
	}
}

// tag decodes the tag at the front of the window, which opens with Magic.
func (d *binDecoder) tag() (Instruction, error) {
	w := d.window(maxHeader)
	if len(w) == len(Magic) {
		return Instruction{}, corrupt("truncated tag: %v", d.cut())
	}
	var op Op
	switch w[len(Magic)] {
	case bopQuote:
		d.consume(len(Magic) + 1)
		return Instruction{Op: OpLiteral, Data: w[:len(Magic):len(Magic)]}, nil
	case bopGet:
		op = OpGet
	case bopInc:
		op = OpInclude
	case bopSet:
		op = OpSet
	default:
		return Instruction{}, corrupt("unknown op byte %q", w[len(Magic)])
	}
	var v [3]uint64 // key, gen, and a SET's length
	fields := v[:2]
	if op == OpSet {
		fields = v[:]
	}
	n := len(Magic) + 1
	for i := range fields {
		x, k := binary.Uvarint(w[n:])
		if k == 0 {
			return Instruction{}, corrupt("%v %s: %v", op, fieldNames[i], d.cut())
		}
		if k < 0 {
			return Instruction{}, corrupt("%v %s overflows 64 bits", op, fieldNames[i])
		}
		fields[i] = x
		n += k
	}
	d.consume(n)
	key, gen := uint32(v[0]), uint32(v[1])
	if op != OpSet {
		return Instruction{Op: op, Key: key, Gen: gen}, nil
	}
	if v[2] > 1<<30 {
		return Instruction{}, corrupt("SET len %d exceeds limit", v[2])
	}
	body, ok := d.body(int(v[2]))
	if !ok {
		return Instruction{}, corrupt("SET content: %v", d.cut())
	}
	if w = d.window(len(endTag)); len(w) < len(endTag) {
		return Instruction{}, corrupt("SET close tag: %v", d.cut())
	}
	if !bytes.Equal(w[:len(endTag)], endTag) {
		return Instruction{}, corrupt("SET not closed by END tag")
	}
	d.consume(len(endTag))
	return Instruction{Op: OpSet, Key: key, Gen: gen, Data: body}, nil
}

// fieldNames names a tag's uvarint fields in corruption errors.
var fieldNames = [...]string{"key", "gen", "len"}

// body returns the next n bytes, a SET's body, and moves past them; false
// when the input ends first. A body that fits the window with its END tag
// is returned where it lies, and reading that tag then refills nothing; a
// stream's longer one is gathered as its bytes arrive, so a length header
// that lies costs no allocation beyond what the stream delivers.
func (d *binDecoder) body(n int) ([]byte, bool) {
	if d.r == nil || n+len(endTag) <= d.r.Size() {
		w := d.window(n + len(endTag))
		if len(w) < n {
			return nil, false
		}
		d.consume(n)
		return w[:n:n], true
	}
	d.gathered = d.gathered[:0]
	for len(d.gathered) < n {
		w := d.window(1)
		if len(w) == 0 {
			return nil, false
		}
		k := min(len(w), n-len(d.gathered))
		d.gathered = append(d.gathered, w[:k]...)
		d.consume(k)
	}
	return d.gathered, true
}
