package tmpl_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"dpcache/internal/kmp"
	"dpcache/internal/tmpl"
)

// kmpDecoder is the binary decoder as it was before the window scan: one
// bufio.Reader.ReadByte and one kmp.Stream.Feed per byte, and every
// literal and SET body copied out. It stays here as the reference the
// decoder must match.
type kmpDecoder struct {
	r       *bufio.Reader
	magic   *kmp.Stream
	buf     []byte // literal bytes accumulated since the last instruction
	pending []tmpl.Instruction
	eof     bool
}

func newKMPDecoder(r io.Reader) *kmpDecoder {
	return &kmpDecoder{r: bufio.NewReader(r), magic: kmp.Compile(tmpl.Magic).Stream()}
}

func refCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", tmpl.ErrCorrupt, fmt.Sprintf(format, args...))
}

func (d *kmpDecoder) Next() (tmpl.Instruction, error) {
	for {
		if len(d.pending) > 0 {
			in := d.pending[0]
			d.pending = d.pending[1:]
			return in, nil
		}
		if d.eof {
			return tmpl.Instruction{}, io.EOF
		}
		if err := d.readMore(); err != nil {
			return tmpl.Instruction{}, err
		}
	}
}

// emitLiteral queues the accumulated literal (minus the trailing drop
// bytes, which belong to a recognized tag) and resets the buffer.
func (d *kmpDecoder) emitLiteral(drop int) {
	lit := d.buf[:len(d.buf)-drop]
	if len(lit) > 0 {
		d.pending = append(d.pending, tmpl.Instruction{Op: tmpl.OpLiteral, Data: append([]byte(nil), lit...)})
	}
	d.buf = d.buf[:0]
}

// readMore consumes input until at least one instruction is queued or an
// error occurs.
func (d *kmpDecoder) readMore() error {
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
			d.emitLiteral(len(tmpl.Magic))
			in, err := d.readTag()
			if err != nil {
				return err
			}
			d.pending = append(d.pending, in)
			return nil
		}
		// Stream out very long literals early; never split a partial
		// magic prefix across the boundary.
		if keep := d.magic.State(); len(d.buf)-keep >= tmpl.MaxLiteralChunk {
			tail := append([]byte(nil), d.buf[len(d.buf)-keep:]...)
			d.emitLiteral(keep)
			d.buf = append(d.buf, tail...)
			return nil
		}
	}
	return nil
}

func (d *kmpDecoder) readTag() (tmpl.Instruction, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return tmpl.Instruction{}, refCorrupt("truncated tag: %v", err)
	}
	var kind tmpl.Op
	switch op {
	case 'Z':
		return tmpl.Instruction{Op: tmpl.OpLiteral, Data: append([]byte(nil), tmpl.Magic...)}, nil
	case 'G':
		kind = tmpl.OpGet
	case 'I':
		kind = tmpl.OpInclude
	case 'S':
		kind = tmpl.OpSet
	default:
		return tmpl.Instruction{}, refCorrupt("unknown op byte %q", op)
	}
	key, err := binary.ReadUvarint(d.r)
	if err != nil {
		return tmpl.Instruction{}, refCorrupt("%v key: %v", kind, err)
	}
	gen, err := binary.ReadUvarint(d.r)
	if err != nil {
		return tmpl.Instruction{}, refCorrupt("%v gen: %v", kind, err)
	}
	in := tmpl.Instruction{Op: kind, Key: uint32(key), Gen: uint32(gen)}
	if kind != tmpl.OpSet {
		return in, nil
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return tmpl.Instruction{}, refCorrupt("SET len: %v", err)
	}
	if n > 1<<30 {
		return tmpl.Instruction{}, refCorrupt("SET len %d exceeds limit", n)
	}
	var content bytes.Buffer
	if _, err := io.CopyN(&content, d.r, int64(n)); err != nil {
		return tmpl.Instruction{}, refCorrupt("SET content: %v", err)
	}
	var close [5]byte
	if _, err := io.ReadFull(d.r, close[:]); err != nil {
		return tmpl.Instruction{}, refCorrupt("SET close tag: %v", err)
	}
	if !bytes.Equal(close[:4], tmpl.Magic) || close[4] != 'E' {
		return tmpl.Instruction{}, refCorrupt("SET not closed by END tag")
	}
	in.Data = content.Bytes()
	return in, nil
}

// drain reads d to its end or its first error, copying each Data.
func drain(d tmpl.Decoder) ([]tmpl.Instruction, error) {
	var out []tmpl.Instruction
	for {
		in, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		in.Data = append([]byte(nil), in.Data...)
		out = append(out, in)
	}
}

// held returns a tmpl.Held over data.
func held(data []byte) *tmpl.Held {
	h := new(tmpl.Held)
	h.Reset(data)
	return h
}

// sameInstruction compares two instructions field by field.
func sameInstruction(a, b tmpl.Instruction) bool {
	return a.Op == b.Op && a.Key == b.Key && a.Gen == b.Gen && bytes.Equal(a.Data, b.Data)
}

// matchesReference checks a decode against the reference's. Both must end
// the same way, cleanly or with ErrCorrupt, with the same instructions
// after Normalize. On a failure the decoder may also hand out the literal
// just ahead of the failing tag, which the reference queued and never
// returned: then the decoder's last literal may run longer than the
// reference's, which must be a prefix of it.
func matchesReference(got, want []tmpl.Instruction, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("decoder error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil && !errors.Is(gotErr, tmpl.ErrCorrupt) {
		return fmt.Errorf("decoder error %v is not ErrCorrupt (reference: %v)", gotErr, wantErr)
	}
	got, want = tmpl.Normalize(got), tmpl.Normalize(want)
	if gotErr != nil && len(got) > 0 && got[len(got)-1].Op == tmpl.OpLiteral {
		last := got[len(got)-1]
		switch {
		case len(want) == len(got) && want[len(want)-1].Op == tmpl.OpLiteral &&
			bytes.HasPrefix(last.Data, want[len(want)-1].Data):
			want = append(want[:len(want)-1:len(want)-1], last)
		case len(want) == len(got)-1:
			want = append(want[:len(want):len(want)], last)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("decoder gave %d instructions, reference %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if !sameInstruction(got[i], want[i]) {
			return fmt.Errorf("instruction %d: got %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

// FuzzDecodeMatchesKMP holds the window scan to the byte-at-a-time KMP
// decoder it replaced, on a held template and on streams that deliver a
// byte or half a read at a time.
func FuzzDecodeMatchesKMP(f *testing.F) {
	for _, seed := range seedTemplates() {
		f.Add(seed)
	}
	for _, seed := range windowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		want, wantErr := drain(newKMPDecoder(bytes.NewReader(data)))
		sources := []struct {
			name string
			r    io.Reader
		}{
			{"held", held(data)},
			{"stream", bytes.NewReader(data)},
			{"one-byte", iotest.OneByteReader(bytes.NewReader(data))},
			{"half", iotest.HalfReader(bytes.NewReader(data))},
		}
		for _, src := range sources {
			got, err := drain(tmpl.Binary{}.NewDecoder(src.r))
			if mismatch := matchesReference(got, want, err, wantErr); mismatch != nil {
				t.Fatalf("%s: %v\ntemplate %q", src.name, mismatch, data)
			}
		}
	})
}

// windowSeeds are templates whose tags fall where a window ends: a
// literal longer than the chunk bound, and tags, escapes and SETs that
// straddle byte 4096, the size of a stream's read buffer.
func windowSeeds() [][]byte {
	const edge = 4096
	var out [][]byte
	enc := func(ins ...tmpl.Instruction) {
		var buf bytes.Buffer
		if err := tmpl.EncodeAll(tmpl.Binary{}, &buf, ins); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	pad := func(n int) tmpl.Instruction {
		return tmpl.Instruction{Op: tmpl.OpLiteral, Data: bytes.Repeat([]byte("x"), n)}
	}
	enc(pad(2*tmpl.MaxLiteralChunk+100), tmpl.Instruction{Op: tmpl.OpGet, Key: 1, Gen: 1})
	for _, at := range []int{edge - 3, edge - 2, edge - 1} {
		enc(pad(at), tmpl.Instruction{Op: tmpl.OpGet, Key: 300, Gen: 7}, pad(10))
		enc(tmpl.Instruction{Op: tmpl.OpLiteral, Data: append(bytes.Repeat([]byte("y"), at), tmpl.Magic...)})
		enc(pad(at), tmpl.Instruction{Op: tmpl.OpSet, Key: 2, Gen: 2, Data: []byte("body")}, pad(3))
	}
	// A partial magic at the very end, and one cut at the buffer's edge.
	out = append(out, append(bytes.Repeat([]byte("z"), edge-2), tmpl.Magic[:3]...))
	out = append(out, append(append(bytes.Repeat([]byte("z"), edge-2), tmpl.Magic[:2]...), "ok"...))
	return out
}
