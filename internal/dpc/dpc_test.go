package dpc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
)

func TestStoreRejectsBadCapacity(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func TestStoreSetGet(t *testing.T) {
	s, err := NewStore(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(2, 7, []byte("frag")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(2, 7, true)
	if !ok || string(got) != "frag" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestStoreGetUnsetSlot(t *testing.T) {
	s, _ := NewStore(4)
	if _, ok := s.Get(1, 0, false); ok {
		t.Fatal("unset slot returned content")
	}
}

func TestStoreStrictGenerationCheck(t *testing.T) {
	s, _ := NewStore(4)
	_ = s.Set(0, 5, []byte("old"))
	if _, ok := s.Get(0, 6, true); ok {
		t.Fatal("strict Get matched wrong generation")
	}
	if got, ok := s.Get(0, 6, false); !ok || string(got) != "old" {
		t.Fatal("fast Get must ignore generation")
	}
}

func TestStoreKeyOutOfRange(t *testing.T) {
	s, _ := NewStore(2)
	if err := s.Set(2, 0, nil); err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if _, ok := s.Get(9, 0, false); ok {
		t.Fatal("out-of-range Get returned content")
	}
}

func TestStoreSetCopiesContent(t *testing.T) {
	s, _ := NewStore(2)
	src := []byte("abc")
	_ = s.Set(0, 1, src)
	src[0] = 'z'
	got, _ := s.Get(0, 1, true)
	if string(got) != "abc" {
		t.Fatal("store aliased caller buffer")
	}
}

func TestStoreBytesAndResident(t *testing.T) {
	s, _ := NewStore(4)
	_ = s.Set(0, 1, []byte("12345"))
	_ = s.Set(1, 1, []byte("12"))
	if s.Bytes() != 7 || s.Resident() != 2 {
		t.Fatalf("Bytes=%d Resident=%d", s.Bytes(), s.Resident())
	}
	_ = s.Set(0, 2, []byte("1")) // overwrite shrinks
	if s.Bytes() != 3 {
		t.Fatalf("Bytes after overwrite = %d, want 3", s.Bytes())
	}
	s.Drop(1)
	if s.Bytes() != 1 || s.Resident() != 1 {
		t.Fatalf("after Drop: Bytes=%d Resident=%d", s.Bytes(), s.Resident())
	}
	if _, ok := s.Get(1, 1, false); ok {
		t.Fatal("dropped slot still readable")
	}
}

func encodeTemplate(t *testing.T, c tmpl.Codec, ins []tmpl.Instruction) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tmpl.EncodeAll(c, &buf, ins); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestAssembler returns a proxy's assemble chokepoint over store, so the
// assembly tests run what production runs: a cached plan when the template
// compiles, the streamed driver when it does not.
func newTestAssembler(tb testing.TB, store fragstore.FragmentStore, codec tmpl.Codec, strict bool) func(w io.Writer, raw []byte) (AssembleStats, error) {
	tb.Helper()
	p, err := New(Config{OriginURL: "http://unused.invalid", Store: store, Codec: codec, Strict: strict, PublishInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	return func(w io.Writer, raw []byte) (AssembleStats, error) {
		return p.assemble(w, bytes.NewReader(raw), int64(len(raw)), &reqState{})
	}
}

func TestAssembleSetThenGet(t *testing.T) {
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		store, _ := NewStore(8)
		asm := newTestAssembler(t, store, codec, true)

		// First response: SET populates the slot and the content
		// appears inline.
		t1 := encodeTemplate(t, codec, []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("<a>")},
			{Op: tmpl.OpSet, Key: 3, Gen: 9, Data: []byte("FRAG")},
			{Op: tmpl.OpLiteral, Data: []byte("</a>")},
		})
		var page1 bytes.Buffer
		st1, err := asm(&page1, t1)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if page1.String() != "<a>FRAG</a>" {
			t.Fatalf("%s: page1 = %q", codec.Name(), page1.String())
		}
		if st1.Sets != 1 || st1.Gets != 0 {
			t.Fatalf("%s: stats = %+v", codec.Name(), st1)
		}
		if st1.TemplateBytes != int64(len(t1)) {
			t.Fatalf("%s: TemplateBytes = %d, want %d", codec.Name(), st1.TemplateBytes, len(t1))
		}

		// Second response: GET splices from the store.
		t2 := encodeTemplate(t, codec, []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("<b>")},
			{Op: tmpl.OpGet, Key: 3, Gen: 9},
			{Op: tmpl.OpLiteral, Data: []byte("</b>")},
		})
		var page2 bytes.Buffer
		st2, err := asm(&page2, t2)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if page2.String() != "<b>FRAG</b>" {
			t.Fatalf("%s: page2 = %q", codec.Name(), page2.String())
		}
		if st2.Gets != 1 {
			t.Fatalf("%s: stats = %+v", codec.Name(), st2)
		}
		// The GET template must be smaller than the SET template —
		// that is the whole bandwidth argument.
		if st2.TemplateBytes >= st1.TemplateBytes {
			t.Fatalf("%s: GET template (%d) not smaller than SET template (%d)",
				codec.Name(), st2.TemplateBytes, st1.TemplateBytes)
		}
	}
}

func TestAssembleStaleUnsetSlot(t *testing.T) {
	store, _ := NewStore(8)
	asm := newTestAssembler(t, store, tmpl.Binary{}, false)
	raw := encodeTemplate(t, tmpl.Binary{}, []tmpl.Instruction{{Op: tmpl.OpGet, Key: 1, Gen: 1}})
	_, err := asm(&bytes.Buffer{}, raw)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

func TestAssembleStrictGenMismatch(t *testing.T) {
	store, _ := NewStore(8)
	_ = store.Set(1, 1, []byte("old"))
	strict := newTestAssembler(t, store, tmpl.Binary{}, true)
	fast := newTestAssembler(t, store, tmpl.Binary{}, false)
	raw := encodeTemplate(t, tmpl.Binary{}, []tmpl.Instruction{{Op: tmpl.OpGet, Key: 1, Gen: 2}})

	if _, err := strict(&bytes.Buffer{}, raw); !errors.Is(err, ErrStale) {
		t.Fatalf("strict err = %v, want ErrStale", err)
	}
	var page bytes.Buffer
	if _, err := fast(&page, raw); err != nil {
		t.Fatalf("fast err = %v", err)
	}
	if page.String() != "old" {
		t.Fatalf("fast page = %q", page.String())
	}
}

func TestAssembleCorruptTemplate(t *testing.T) {
	store, _ := NewStore(2)
	asm := newTestAssembler(t, store, tmpl.Binary{}, false)
	raw := append(append([]byte{}, tmpl.Magic...), 'Q') // unknown op
	if _, err := asm(&bytes.Buffer{}, raw); err == nil {
		t.Fatal("corrupt template assembled")
	}
}

func TestAssemblePlainLiteralOnly(t *testing.T) {
	store, _ := NewStore(2)
	asm := newTestAssembler(t, store, tmpl.Binary{}, false)
	raw := encodeTemplate(t, tmpl.Binary{}, []tmpl.Instruction{{Op: tmpl.OpLiteral, Data: []byte("static page")}})
	var page bytes.Buffer
	st, err := asm(&page, raw)
	if err != nil {
		t.Fatal(err)
	}
	if page.String() != "static page" || st.Gets+st.Sets != 0 {
		t.Fatalf("page=%q stats=%+v", page.String(), st)
	}
}

func TestNewProxyValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 4}); err == nil {
		t.Fatal("missing OriginURL accepted")
	}
	if _, err := New(Config{OriginURL: "http://x", Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func BenchmarkAssembleAllHits(b *testing.B) {
	store, _ := NewStore(16)
	frag := bytes.Repeat([]byte("f"), 1024)
	for k := uint32(0); k < 4; k++ {
		_ = store.Set(k, 1, frag)
	}
	var ins []tmpl.Instruction
	for k := uint32(0); k < 4; k++ {
		ins = append(ins, tmpl.Instruction{Op: tmpl.OpLiteral, Data: []byte("<div>")})
		ins = append(ins, tmpl.Instruction{Op: tmpl.OpGet, Key: k, Gen: 1})
	}
	var buf bytes.Buffer
	_ = tmpl.EncodeAll(tmpl.Binary{}, &buf, ins)
	raw := buf.Bytes()
	asm := newTestAssembler(b, store, tmpl.Binary{}, true)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var page bytes.Buffer
		if _, err := asm(&page, raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleAllMisses(b *testing.B) {
	store, _ := NewStore(16)
	frag := bytes.Repeat([]byte("f"), 1024)
	var ins []tmpl.Instruction
	for k := uint32(0); k < 4; k++ {
		ins = append(ins, tmpl.Instruction{Op: tmpl.OpLiteral, Data: []byte("<div>")})
		ins = append(ins, tmpl.Instruction{Op: tmpl.OpSet, Key: k, Gen: 1, Data: frag})
	}
	var buf bytes.Buffer
	_ = tmpl.EncodeAll(tmpl.Binary{}, &buf, ins)
	raw := buf.Bytes()
	asm := newTestAssembler(b, store, tmpl.Binary{}, true)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var page bytes.Buffer
		if _, err := asm(&page, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// A stale GET must not abort the template: SET instructions after it must
// still land in the store, and all failing references must be reported
// (the anti-poisoning property of DESIGN.md decision 4).
func TestAssembleAppliesSetsAfterStaleGet(t *testing.T) {
	store, _ := NewStore(8)
	asm := newTestAssembler(t, store, tmpl.Binary{}, true)
	raw := encodeTemplate(t, tmpl.Binary{}, []tmpl.Instruction{
		{Op: tmpl.OpGet, Key: 0, Gen: 1}, // stale: never set
		{Op: tmpl.OpSet, Key: 1, Gen: 2, Data: []byte("later")},
		{Op: tmpl.OpGet, Key: 5, Gen: 9}, // also stale
	})
	st, err := asm(&bytes.Buffer{}, raw)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v", err)
	}
	if got, ok := store.Get(1, 2, true); !ok || string(got) != "later" {
		t.Fatal("SET after stale GET was not applied")
	}
	if len(st.Stale) != 2 || st.Stale[0] != (StaleRef{Key: 0, Gen: 1}) || st.Stale[1] != (StaleRef{Key: 5, Gen: 9}) {
		t.Fatalf("Stale = %v", st.Stale)
	}
}

func TestFormatStaleRefs(t *testing.T) {
	if got := FormatStaleRefs(nil); got != "" {
		t.Fatalf("empty = %q", got)
	}
	refs := []StaleRef{{Key: 3, Gen: 7}, {Key: 10, Gen: 2}}
	if got := FormatStaleRefs(refs); got != "3:7,10:2" {
		t.Fatalf("refs = %q", got)
	}
}

// Property: for any random template whose GETs reference previously SET
// slots, assembly reproduces exactly the concatenation of literals and
// fragment contents, byte for byte — including literals that contain the
// codec's own magic bytes.
func TestAssembleIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	alphabet := []byte("ab<dpc:\x01DPC\"/>xyz")
	genBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		for trial := 0; trial < 120; trial++ {
			store, _ := NewStore(32)
			asm := newTestAssembler(t, store, codec, true)
			type setFrag struct {
				key, gen uint32
				data     []byte
			}
			var sets []setFrag
			var ins []tmpl.Instruction
			var want bytes.Buffer
			nextKey := uint32(0)
			gen := uint32(1)
			for step, n := 0, 2+rng.Intn(12); step < n; step++ {
				switch {
				case len(sets) > 0 && rng.Intn(3) == 0:
					f := sets[rng.Intn(len(sets))]
					ins = append(ins, tmpl.Instruction{Op: tmpl.OpGet, Key: f.key, Gen: f.gen})
					want.Write(f.data)
				case rng.Intn(2) == 0 && nextKey < 31:
					data := genBytes(rng.Intn(150))
					f := setFrag{key: nextKey, gen: gen, data: data}
					nextKey++
					gen++
					sets = append(sets, f)
					ins = append(ins, tmpl.Instruction{Op: tmpl.OpSet, Key: f.key, Gen: f.gen, Data: data})
					want.Write(data)
				default:
					lit := genBytes(rng.Intn(120))
					ins = append(ins, tmpl.Instruction{Op: tmpl.OpLiteral, Data: lit})
					want.Write(lit)
				}
			}
			raw := encodeTemplate(t, codec, ins)
			var page bytes.Buffer
			if _, err := asm(&page, raw); err != nil {
				t.Fatalf("%s trial %d: %v", codec.Name(), trial, err)
			}
			if !bytes.Equal(page.Bytes(), want.Bytes()) {
				t.Fatalf("%s trial %d: assembled %q, want %q", codec.Name(), trial, page.Bytes(), want.Bytes())
			}
		}
	}
}
