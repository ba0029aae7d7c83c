package tmpl

import (
	"bytes"
	"io"
	"testing"

	"dpcache/internal/kmp"
)

// kmpLiteral is the literal escape as the encoder did it before the scan
// became bytes.Index: a byte-at-a-time KMP search for Magic, each
// occurrence replaced by its escape tag. It stays here as the oracle the
// encoder must equal byte for byte.
func kmpLiteral(p []byte) []byte {
	m := kmp.Compile(Magic)
	var out []byte
	for {
		i := m.Index(p)
		if i < 0 {
			return append(out, p...)
		}
		out = append(out, p[:i]...)
		out = append(out, Magic...)
		out = append(out, bopQuote)
		p = p[i+len(Magic):]
	}
}

// plantMarks turns fuzz input into a literal dense in what the escape scan
// looks for: a byte 0xF0+n (n < 4) becomes a prefix of the magic (1–4
// bytes), the whole magic included; every other byte stands for itself.
func plantMarks(data []byte) []byte {
	var out []byte
	for _, b := range data {
		if n := int(b) - 0xF0; n >= 0 && n < len(Magic) {
			out = append(out, Magic[:n+1]...)
		} else {
			out = append(out, b)
		}
	}
	return out
}

// onlyWriter hides every method but Write, so an encoder over it takes the
// bufio path a pipe would.
type onlyWriter struct{ w io.Writer }

func (o onlyWriter) Write(p []byte) (int, error) { return o.w.Write(p) }

func FuzzEncodeLiteral(f *testing.F) {
	f.Add([]byte("<html>plain</html>"))
	f.Add([]byte{0xF3, 0xF3, 'x', 0xF8, 0xF2, 0xF0, 0xF3})               // magic magic x, a plain 0xF8, then overlapping prefixes
	f.Add([]byte{0x01, 0xF3, 0x01, 'D', 0xF2, 'C', '<', 0xF8, 'e', 's'}) // near misses around a full magic
	f.Add(bytes.Repeat([]byte{0xF2, 0xF7}, 40))                          // a prefix and a plain byte, never completed
	f.Fuzz(func(t *testing.T, data []byte) {
		lit := plantMarks(data)
		want := kmpLiteral(lit)
		var direct, piped bytes.Buffer
		for _, w := range []io.Writer{&direct, onlyWriter{&piped}} {
			enc := Binary{}.NewEncoder(w)
			if err := enc.Literal(lit); err != nil {
				t.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(direct.Bytes(), want) || !bytes.Equal(piped.Bytes(), want) {
			t.Fatalf("literal %q encodes to %q (in memory) and %q (through bufio), the KMP encoder wrote %q",
				lit, direct.Bytes(), piped.Bytes(), want)
		}
		ins, err := DecodeAll(Binary{}, &direct)
		if err != nil {
			t.Fatalf("literal %q does not decode: %v", lit, err)
		}
		var back []byte
		for _, in := range ins {
			if in.Op != OpLiteral {
				t.Fatalf("literal %q decodes to a %v", lit, in.Op)
			}
			back = append(back, in.Data...)
		}
		if !bytes.Equal(back, lit) {
			t.Fatalf("literal %q comes back as %q", lit, back)
		}
	})
}
