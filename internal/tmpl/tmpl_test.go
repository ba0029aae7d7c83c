package tmpl

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// equalStreams compares two instruction streams after normalization.
func equalStreams(a, b []Instruction) bool {
	a, b = Normalize(a), Normalize(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Key != b[i].Key || a[i].Gen != b[i].Gen || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func TestOpString(t *testing.T) {
	if OpLiteral.String() != "LIT" || OpGet.String() != "GET" || OpSet.String() != "SET" || OpInclude.String() != "INC" {
		t.Fatal("op mnemonics wrong")
	}
	if Op(99).String() != "Op(99)" {
		t.Fatalf("unknown op = %q", Op(99).String())
	}
}

func TestRoundTripSimple(t *testing.T) {
	in := []Instruction{
		{Op: OpLiteral, Data: []byte("<html><body>")},
		{Op: OpGet, Key: 7, Gen: 1},
		{Op: OpLiteral, Data: []byte("<hr>")},
		{Op: OpSet, Key: 12, Gen: 3, Data: []byte("fragment content here")},
		{Op: OpLiteral, Data: []byte("</body></html>")},
	}
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeAll(Binary{}, &buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !equalStreams(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestRoundTripInclude(t *testing.T) {
	in := []Instruction{
		{Op: OpLiteral, Data: []byte("<header>")},
		{Op: OpInclude, Key: 300, Gen: 2},
		{Op: OpGet, Key: 7, Gen: 1},
		{Op: OpInclude, Key: 0, Gen: 0},
		{Op: OpLiteral, Data: []byte("</footer>")},
	}
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeAll(Binary{}, &buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !equalStreams(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestRoundTripEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, nil); err != nil {
		t.Fatalf("%v", err)
	}
	out, err := DecodeAll(Binary{}, &buf)
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestRoundTripEmptySetContent(t *testing.T) {
	in := []Instruction{{Op: OpSet, Key: 1, Gen: 0, Data: []byte{}}}
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, in); err != nil {
		t.Fatalf("%v", err)
	}
	out, err := DecodeAll(Binary{}, &buf)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if len(out) != 1 || out[0].Op != OpSet || len(out[0].Data) != 0 {
		t.Fatalf("out=%v", out)
	}
}

// Literals containing the tag introducer must survive.
func TestRoundTripAdversarialLiterals(t *testing.T) {
	adversarial := [][]byte{
		Magic,
		append(append([]byte("x"), Magic...), 'G', 1, 1),
		bytes.Repeat(Magic, 5),
		[]byte{0x01, 'D', 'P'}, // partial magic at end
	}
	for _, lit := range adversarial {
		in := []Instruction{
			{Op: OpLiteral, Data: lit},
			{Op: OpGet, Key: 3, Gen: 9},
			{Op: OpLiteral, Data: lit},
		}
		var buf bytes.Buffer
		if err := EncodeAll(Binary{}, &buf, in); err != nil {
			t.Fatalf("encode %q: %v", lit, err)
		}
		out, err := DecodeAll(Binary{}, &buf)
		if err != nil {
			t.Fatalf("decode %q: %v", lit, err)
		}
		if !equalStreams(in, out) {
			t.Fatalf("adversarial literal %q did not roundtrip: %v", lit, Normalize(out))
		}
	}
}

// SET content may contain the raw magic: it is length-prefixed, never
// escaped, and must roundtrip untouched.
func TestRoundTripAdversarialSetContent(t *testing.T) {
	content := append(append([]byte("a"), Magic...), 'S', 9, 9, 3)
	in := []Instruction{{Op: OpSet, Key: 5, Gen: 2, Data: content}}
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, in); err != nil {
		t.Fatalf("%v", err)
	}
	out, err := DecodeAll(Binary{}, &buf)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !equalStreams(in, out) {
		t.Fatalf("SET content mangled: %v", out)
	}
}

// Property: random instruction streams (with literals drawn from an
// alphabet that includes the magic's bytes) roundtrip.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	alphabet := []byte("abD<dpc:PC\x01\"/>")
	genBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for trial := 0; trial < 200; trial++ {
		var in []Instruction
		for i, n := 0, rng.Intn(8); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				in = append(in, Instruction{Op: OpLiteral, Data: genBytes(rng.Intn(80))})
			case 1:
				in = append(in, Instruction{Op: OpGet, Key: rng.Uint32() % 5000, Gen: rng.Uint32() % 16})
			case 2:
				in = append(in, Instruction{Op: OpSet, Key: rng.Uint32() % 5000, Gen: rng.Uint32() % 16, Data: genBytes(rng.Intn(120))})
			case 3:
				in = append(in, Instruction{Op: OpInclude, Key: rng.Uint32() % 5000, Gen: rng.Uint32() % 16})
			}
		}
		var buf bytes.Buffer
		if err := EncodeAll(Binary{}, &buf, in); err != nil {
			t.Fatalf("trial %d encode: %v", trial, err)
		}
		out, err := DecodeAll(Binary{}, &buf)
		if err != nil {
			t.Fatalf("trial %d decode: %v", trial, err)
		}
		if !equalStreams(in, out) {
			t.Fatalf("trial %d mismatch\n in=%v\nout=%v", trial, Normalize(in), Normalize(out))
		}
	}
}

// The decoder must stream long literals in bounded chunks rather than
// buffering them whole.
func TestDecoderChunksLongLiterals(t *testing.T) {
	long := bytes.Repeat([]byte("y"), 3*maxLiteralChunk+17)
	var buf bytes.Buffer
	if err := EncodeAll(Binary{}, &buf, []Instruction{{Op: OpLiteral, Data: long}}); err != nil {
		t.Fatalf("%v", err)
	}
	d := Binary{}.NewDecoder(&buf)
	var total int
	var pieces int
	for {
		in, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%v", err)
		}
		if in.Op != OpLiteral {
			t.Fatalf("unexpected op %v", in.Op)
		}
		if len(in.Data) > maxLiteralChunk+len(Magic) {
			t.Fatalf("literal chunk of %d bytes exceeds cap", len(in.Data))
		}
		total += len(in.Data)
		pieces++
	}
	if total != len(long) {
		t.Fatalf("reassembled %d bytes, want %d", total, len(long))
	}
	if pieces < 3 {
		t.Fatalf("long literal delivered in %d pieces, want >= 3", pieces)
	}
}

func TestBinaryGetTagSizeMatchesWire(t *testing.T) {
	for _, key := range []uint32{0, 1, 127, 128, 300, 1 << 20} {
		for _, gen := range []uint32{0, 1, 200} {
			var buf bytes.Buffer
			e := Binary{}.NewEncoder(&buf)
			if err := e.Get(key, gen); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := buf.Len(), (Binary{}).GetTagSize(key, gen); got != want {
				t.Fatalf("key=%d gen=%d: wire=%d, GetTagSize=%d", key, gen, got, want)
			}
		}
	}
}

// The paper's Table 2 uses g = 10 bytes; the binary codec's GET tag must be
// in that neighborhood for realistic key ranges.
func TestBinaryTagSizeNearPaperG(t *testing.T) {
	g := Binary{}.GetTagSize(5000, 3)
	if g < 6 || g > 12 {
		t.Fatalf("binary GET tag = %d bytes; want within [6,12] (paper g=10)", g)
	}
}

func TestDecodeCorruptStreams(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"binary truncated after magic", string(Magic)},
		{"binary unknown op", string(Magic) + "Q"},
		{"binary set missing close", string(Magic) + "S\x01\x01\x03abc"},
		{"binary get missing gen", string(Magic) + "G\x01"},
		{"binary set longer than the template", string(Magic) + "S\x01\x01\x7fabc" + string(endTag)},
	}
	for _, tc := range cases {
		var held Held
		held.Reset([]byte(tc.raw))
		for src, r := range map[string]io.Reader{"stream": strings.NewReader(tc.raw), "held": &held} {
			if _, err := DecodeAll(Binary{}, r); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s (%s): decode error %v, want ErrCorrupt", tc.name, src, err)
			}
		}
	}
}

// A stream's read error comes after every instruction read before it, as
// the stream returned it: the SET ahead of a torn connection is decoded,
// so an assembly can still store it.
func TestDecodeReadErrorAfterInstructions(t *testing.T) {
	var buf bytes.Buffer
	in := []Instruction{
		{Op: OpLiteral, Data: []byte("<html>")},
		{Op: OpSet, Key: 4, Gen: 2, Data: []byte("prefix-set")},
	}
	if err := EncodeAll(Binary{}, &buf, in); err != nil {
		t.Fatal(err)
	}
	torn := errors.New("connection torn")
	out, err := DecodeAll(Binary{}, io.MultiReader(&buf, iotest.ErrReader(torn)))
	if !errors.Is(err, torn) || !equalStreams(in, out) {
		t.Fatalf("decoded %v then %v, want %v then the read error", out, err, in)
	}
}

func TestNormalizeMergesAdjacentLiterals(t *testing.T) {
	in := []Instruction{
		{Op: OpLiteral, Data: []byte("a")},
		{Op: OpLiteral, Data: []byte{}},
		{Op: OpLiteral, Data: []byte("b")},
		{Op: OpGet, Key: 1},
		{Op: OpLiteral, Data: []byte("c")},
	}
	out := Normalize(in)
	if len(out) != 3 {
		t.Fatalf("normalized to %d instructions, want 3: %v", len(out), out)
	}
	if string(out[0].Data) != "ab" || out[1].Op != OpGet || string(out[2].Data) != "c" {
		t.Fatalf("bad normalization: %v", out)
	}
}

func benchmarkEncode(b *testing.B, c Codec) {
	frag := bytes.Repeat([]byte("f"), 1024)
	lit := bytes.Repeat([]byte("l"), 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		e := c.NewEncoder(&buf)
		for j := 0; j < 4; j++ {
			_ = e.Literal(lit)
			if j%2 == 0 {
				_ = e.Get(uint32(j), 1)
			} else {
				_ = e.Set(uint32(j), 1, frag)
			}
		}
		_ = e.Flush()
	}
}

func benchmarkDecode(b *testing.B, c Codec) {
	frag := bytes.Repeat([]byte("f"), 1024)
	lit := bytes.Repeat([]byte("l"), 200)
	var buf bytes.Buffer
	e := c.NewEncoder(&buf)
	for j := 0; j < 4; j++ {
		_ = e.Literal(lit)
		if j%2 == 0 {
			_ = e.Get(uint32(j), 1)
		} else {
			_ = e.Set(uint32(j), 1, frag)
		}
	}
	_ = e.Flush()
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.NewDecoder(bytes.NewReader(raw))
		for {
			if _, err := d.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCodecBinaryEncode(b *testing.B) { benchmarkEncode(b, Binary{}) }
func BenchmarkCodecBinaryDecode(b *testing.B) { benchmarkDecode(b, Binary{}) }
