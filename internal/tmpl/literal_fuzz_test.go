package tmpl

import (
	"bytes"
	"io"
	"testing"

	"dpcache/internal/kmp"
)

// kmpLiteral is the literal escape as the encoders did it before the scan
// became bytes.Index: a byte-at-a-time KMP search for mark, each occurrence
// replaced by escape. It stays here as the oracle the encoders must equal
// byte for byte.
func kmpLiteral(mark, escape, p []byte) []byte {
	m := kmp.Compile(mark)
	var out []byte
	for {
		i := m.Index(p)
		if i < 0 {
			return append(out, p...)
		}
		out = append(out, p[:i]...)
		out = append(out, escape...)
		p = p[i+len(mark):]
	}
}

// plantMarks turns fuzz input into a literal dense in what the escape scan
// looks for: a byte 0xF0+n (n < 9) becomes a prefix of the binary magic
// (1–4 bytes) or of the text mark (1–5 bytes), whole ones included; every
// other byte stands for itself.
func plantMarks(data []byte) []byte {
	var out []byte
	for _, b := range data {
		switch n := int(b) - 0xF0; {
		case n >= 0 && n < len(Magic):
			out = append(out, Magic[:n+1]...)
		case n >= len(Magic) && n < len(Magic)+len(textMark):
			out = append(out, textMark[:n-len(Magic)+1]...)
		default:
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
	f.Add([]byte{0xF3, 0xF3, 'x', 0xF8, 0xF2, 0xF0, 0xF3})               // magic magic x mark, then overlapping prefixes
	f.Add([]byte{0x01, 0xF3, 0x01, 'D', 0xF2, 'C', '<', 0xF8, 'e', 's'}) // near misses around full marks
	f.Add(bytes.Repeat([]byte{0xF2, 0xF7}, 40))                          // prefixes only, never completed
	f.Fuzz(func(t *testing.T, data []byte) {
		lit := plantMarks(data)
		oracles := map[string][]byte{
			Binary{}.Name(): kmpLiteral(Magic, append(append([]byte{}, Magic...), bopQuote), lit),
			Text{}.Name():   kmpLiteral([]byte(textMark), []byte("<dpc:esc/>"), lit),
		}
		for _, c := range []Codec{Binary{}, Text{}} {
			var direct, piped bytes.Buffer
			for _, w := range []io.Writer{&direct, onlyWriter{&piped}} {
				enc := c.NewEncoder(w)
				if err := enc.Literal(lit); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if want := oracles[c.Name()]; !bytes.Equal(direct.Bytes(), want) || !bytes.Equal(piped.Bytes(), want) {
				t.Fatalf("%s: literal %q encodes to %q (in memory) and %q (through bufio), the KMP encoder wrote %q",
					c.Name(), lit, direct.Bytes(), piped.Bytes(), want)
			}
			ins, err := DecodeAll(c, &direct)
			if err != nil {
				t.Fatalf("%s: literal %q does not decode: %v", c.Name(), lit, err)
			}
			var back []byte
			for _, in := range ins {
				if in.Op != OpLiteral {
					t.Fatalf("%s: literal %q decodes to a %v", c.Name(), lit, in.Op)
				}
				back = append(back, in.Data...)
			}
			if !bytes.Equal(back, lit) {
				t.Fatalf("%s: literal %q comes back as %q", c.Name(), lit, back)
			}
		}
	})
}
