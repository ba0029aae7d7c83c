package tmpl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"dpcache/internal/kmp"
)

// textMark introduces every text-codec tag.
const textMark = "<dpc:"

// Text is the human-readable debug codec. Tags look like XML processing
// instructions:
//
//	<dpc:get k="7" g="2"/>
//	<dpc:set k="7" g="3" n="1024">…1024 bytes…</dpc:set>
//	<dpc:inc k="7" g="2"/>           (slot 7 holds a nested template)
//	<dpc:esc/>                       (a literal "<dpc:" in page output)
//
// It is roughly 2–3x larger on the wire than the binary codec; the codec
// ablation benchmark quantifies the difference.
type Text struct{}

// Name implements Codec.
func (Text) Name() string { return "text" }

// GetTagSize implements Codec.
func (Text) GetTagSize(key, gen uint32) int {
	return len(fmt.Sprintf(`<dpc:get k="%d" g="%d"/>`, key, gen))
}

// SetOverhead implements Codec.
func (Text) SetOverhead(key, gen uint32, contentLen int) int {
	open := len(fmt.Sprintf(`<dpc:set k="%d" g="%d" n="%d">`, key, gen, contentLen))
	return open + len("</dpc:set>")
}

// NewEncoder implements Codec.
func (Text) NewEncoder(w io.Writer) Encoder {
	return &textEncoder{encoderOut: newEncoderOut(w)}
}

type textEncoder struct {
	encoderOut
	// tagBuf holds a tag while it is formatted (see binEncoder.tagBuf); the
	// longest, a SET of maximal fields, is 64 bytes.
	tagBuf [64]byte
}

var (
	textMarkBytes = []byte(textMark)
	escTag        = []byte("<dpc:esc/>")
	setCloseTag   = []byte("</dpc:set>")
	// markMatcher is the text codec's streaming tag scan, compiled once
	// (see magicMatcher).
	markMatcher = kmp.Compile(textMarkBytes)
)

// tag lays out <dpc:VERB k="key" g="gen in tagBuf; the caller closes it.
func (e *textEncoder) tag(verb string, key, gen uint32) []byte {
	buf := append(e.tagBuf[:0], textMark...)
	buf = append(buf, verb...)
	buf = append(buf, ` k="`...)
	buf = strconv.AppendUint(buf, uint64(key), 10)
	buf = append(buf, `" g="`...)
	return strconv.AppendUint(buf, uint64(gen), 10)
}

func (e *textEncoder) Literal(p []byte) error { return writeEscaped(e, p, textMarkBytes, escTag) }

func (e *textEncoder) Get(key, gen uint32) error {
	_, err := e.Write(append(e.tag("get", key, gen), `"/>`...))
	return err
}

func (e *textEncoder) Include(key, gen uint32) error {
	_, err := e.Write(append(e.tag("inc", key, gen), `"/>`...))
	return err
}

func (e *textEncoder) Set(key, gen uint32, content []byte) error {
	open := append(e.tag("set", key, gen), `" n="`...)
	open = append(strconv.AppendUint(open, uint64(len(content)), 10), `">`...)
	if _, err := e.Write(open); err != nil {
		return err
	}
	if _, err := e.Write(content); err != nil {
		return err
	}
	_, err := e.Write(setCloseTag)
	return err
}

// NewDecoder implements Codec.
func (Text) NewDecoder(r io.Reader) Decoder {
	return &textDecoder{r: bufio.NewReader(r), mark: markMatcher.Stream()}
}

type textDecoder struct {
	r       *bufio.Reader
	mark    *kmp.Stream
	buf     []byte
	pending []Instruction
	eof     bool
}

func (d *textDecoder) Next() (Instruction, error) {
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

func (d *textDecoder) emitLiteral(drop int) {
	lit := d.buf[:len(d.buf)-drop]
	if len(lit) > 0 {
		cp := make([]byte, len(lit))
		copy(cp, lit)
		d.pending = append(d.pending, Instruction{Op: OpLiteral, Data: cp})
	}
	d.buf = d.buf[:0]
}

func (d *textDecoder) readMore() error {
	for len(d.pending) == 0 {
		b, err := d.r.ReadByte()
		if err == io.EOF {
			d.eof = true
			d.mark.Reset()
			d.emitLiteral(0)
			return nil
		}
		if err != nil {
			return err
		}
		d.buf = append(d.buf, b)
		if ends := d.mark.Feed([]byte{b}); len(ends) > 0 {
			d.mark.Reset()
			d.emitLiteral(len(textMark))
			in, err := d.readTag()
			if err != nil {
				return err
			}
			d.pending = append(d.pending, in)
			return nil
		}
		if keep := d.mark.State(); len(d.buf)-keep >= maxLiteralChunk {
			tail := make([]byte, keep)
			copy(tail, d.buf[len(d.buf)-keep:])
			d.emitLiteral(keep)
			d.buf = append(d.buf, tail...)
			return nil
		}
	}
	return nil
}

// expect consumes and verifies a fixed string.
func (d *textDecoder) expect(want string) error {
	got := make([]byte, len(want))
	if _, err := io.ReadFull(d.r, got); err != nil {
		return corrupt("truncated tag (want %q): %v", want, err)
	}
	if string(got) != want {
		return corrupt("malformed tag: got %q, want %q", got, want)
	}
	return nil
}

// attr parses ` NAME="123"` (leading space included).
func (d *textDecoder) attr(name string) (uint64, error) {
	if err := d.expect(" " + name + `="`); err != nil {
		return 0, err
	}
	digits, err := d.r.ReadBytes('"')
	if err != nil {
		return 0, corrupt("truncated %s attribute: %v", name, err)
	}
	v, err := strconv.ParseUint(string(digits[:len(digits)-1]), 10, 64)
	if err != nil {
		return 0, corrupt("bad %s attribute %q", name, digits)
	}
	return v, nil
}

func (d *textDecoder) readTag() (Instruction, error) {
	// The "<dpc:" mark is already consumed; a 3-byte verb follows.
	verb := make([]byte, 3)
	if _, err := io.ReadFull(d.r, verb); err != nil {
		return Instruction{}, corrupt("truncated tag verb: %v", err)
	}
	switch string(verb) {
	case "esc":
		if err := d.expect("/>"); err != nil {
			return Instruction{}, err
		}
		return Instruction{Op: OpLiteral, Data: []byte(textMark)}, nil
	case "get":
		key, err := d.attr("k")
		if err != nil {
			return Instruction{}, err
		}
		gen, err := d.attr("g")
		if err != nil {
			return Instruction{}, err
		}
		if err := d.expect("/>"); err != nil {
			return Instruction{}, err
		}
		return Instruction{Op: OpGet, Key: uint32(key), Gen: uint32(gen)}, nil
	case "inc":
		key, err := d.attr("k")
		if err != nil {
			return Instruction{}, err
		}
		gen, err := d.attr("g")
		if err != nil {
			return Instruction{}, err
		}
		if err := d.expect("/>"); err != nil {
			return Instruction{}, err
		}
		return Instruction{Op: OpInclude, Key: uint32(key), Gen: uint32(gen)}, nil
	case "set":
		key, err := d.attr("k")
		if err != nil {
			return Instruction{}, err
		}
		gen, err := d.attr("g")
		if err != nil {
			return Instruction{}, err
		}
		n, err := d.attr("n")
		if err != nil {
			return Instruction{}, err
		}
		if err := d.expect(">"); err != nil {
			return Instruction{}, err
		}
		if n > 1<<30 {
			return Instruction{}, corrupt("SET len %d exceeds limit", n)
		}
		content, err := readSetContent(d.r, n)
		if err != nil {
			return Instruction{}, corrupt("SET content: %v", err)
		}
		if err := d.expect("</dpc:set>"); err != nil {
			return Instruction{}, err
		}
		return Instruction{Op: OpSet, Key: uint32(key), Gen: uint32(gen), Data: content}, nil
	default:
		return Instruction{}, corrupt("unknown text tag verb %q", verb)
	}
}
