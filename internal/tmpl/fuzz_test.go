package tmpl_test

// Fuzz harnesses for the template codecs. Three properties per codec:
//
//  1. The decoder never panics on arbitrary input (and never trusts a
//     length header for an allocation — see readSetContent in tmpl.go).
//  2. tmplplan.Compile never panics and errors exactly when DecodeAll
//     errors: the proxy decides "cached plan vs streamed driver" on that
//     error, so the two must never disagree about corruption.
//  3. Both of the engine's drivers agree with the reference interpreter
//     (internal/tmplplan/plantest) on error/no-error and on output bytes
//     against identically seeded stores — the streamed driver on every
//     input, corrupt ones included, the cached plan whenever one compiles.
//     It is the conformance suite's invariant, extended from its golden
//     shapes to whatever the mutator finds.
//
// The fuzz package is external (tmpl_test) so it can drive the engine and
// the oracle without an import cycle.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/tmplplan/plantest"
)

// seedTemplates mirrors the conformance-suite golden shapes
// (internal/dpc/planconform_test.go): every opcode, set-then-get reuse,
// strict generation mismatches, nested includes, and literals that
// collide with the codec's own framing so the mutator starts near the
// escape machinery.
func seedTemplates(c tmpl.Codec) [][]byte {
	shapes := [][]tmpl.Instruction{
		nil, // empty template
		{{Op: tmpl.OpLiteral, Data: []byte("<html>static</html>")}},
		{
			{Op: tmpl.OpLiteral, Data: []byte("<a>")},
			{Op: tmpl.OpSet, Key: 3, Gen: 9, Data: []byte("FRAG")},
			{Op: tmpl.OpGet, Key: 3, Gen: 9},
			{Op: tmpl.OpLiteral, Data: []byte("</a>")},
		},
		{
			{Op: tmpl.OpGet, Key: 1, Gen: 1},
			{Op: tmpl.OpLiteral, Data: []byte("|")},
			{Op: tmpl.OpGet, Key: 2, Gen: 1},
			{Op: tmpl.OpGet, Key: 1, Gen: 1},
		},
		{
			{Op: tmpl.OpGet, Key: 9, Gen: 3},
			{Op: tmpl.OpSet, Key: 5, Gen: 1, Data: []byte("landed")},
			{Op: tmpl.OpGet, Key: 8, Gen: 1},
		},
		{{Op: tmpl.OpGet, Key: 2, Gen: 7}},
		{
			{Op: tmpl.OpLiteral, Data: []byte("A")},
			{Op: tmpl.OpInclude, Key: 20, Gen: 1},
			{Op: tmpl.OpGet, Key: 1, Gen: 1},
		},
		// Literal containing the binary magic and the text tag prefix:
		// exercises both codecs' escape paths.
		{{Op: tmpl.OpLiteral, Data: append(append([]byte("x"), tmpl.Magic...), []byte("<dpc:esc/><dpc:get")...)}},
		// Large-ish SET so length-header mutations are reachable.
		{{Op: tmpl.OpSet, Key: 7, Gen: 2, Data: bytes.Repeat([]byte("y"), 4096)}},
	}
	var out [][]byte
	for _, ins := range shapes {
		var buf bytes.Buffer
		if err := tmpl.EncodeAll(c, &buf, ins); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// fuzzDecode is the shared fuzz body for both codecs.
func fuzzDecode(t *testing.T, codec tmpl.Codec, data []byte) {
	if len(data) > 1<<20 {
		return // bound per-case work; headers lie about lengths far below this
	}

	_, decErr := tmpl.DecodeAll(codec, bytes.NewReader(data))
	plan, compErr := tmplplan.Compile(codec, data)
	if (decErr == nil) != (compErr == nil) {
		t.Fatalf("decode/compile disagree on corruption:\nDecodeAll: %v\nCompile:   %v", decErr, compErr)
	}

	// Stores start empty and identical; unresolved GETs are strict-mode
	// staleness, not corruption, and must be reported identically. The
	// map-backed keyed view is used instead of the slot store because the
	// slot store allocates its full capacity up front and fuzz-mutated
	// keys span the whole uint32 range.
	var wantPage bytes.Buffer
	asm := plantest.NewAssembler(fuzzStore(t), codec, true)
	_, wantErr := asm.Assemble(&wantPage, bytes.NewReader(data))

	agree := func(driver string, gotPage []byte, gotErr error) {
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s driver disagrees on error:\noracle: %v\nengine: %v\ntemplate: %q", driver, wantErr, gotErr, data)
		}
		if !bytes.Equal(wantPage.Bytes(), gotPage) {
			t.Fatalf("%s driver disagrees on output:\noracle: %q\nengine: %q\ntemplate: %q",
				driver, wantPage.Bytes(), gotPage, data)
		}
	}
	var streamed bytes.Buffer
	ex := &tmplplan.Exec{Store: fuzzStore(t), Strict: true, Codec: codec, Parallelism: 1}
	_, err := ex.RunStream(bytes.NewReader(data), &streamed, nil)
	agree("streamed", streamed.Bytes(), err)
	if compErr != nil {
		return
	}
	var cached bytes.Buffer
	ex = &tmplplan.Exec{Store: fuzzStore(t), Strict: true, Codec: codec, Parallelism: 1}
	_, err = ex.Run(plan, &cached, nil)
	agree("cached-plan", cached.Bytes(), err)
}

// fuzzStore returns an unbounded map-backed fragment store that accepts
// the full uint32 key range without allocating per-slot capacity.
func fuzzStore(t *testing.T) fragstore.FragmentStore {
	t.Helper()
	ks, err := fragstore.NewKeyed(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ks.AsFragmentStore(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSetLengthHeaderDoesNotPreallocate pins the crasher class the fuzz
// harnesses exist to catch: a few-byte input whose SET length header
// claims half a gigabyte must fail as corrupt without the decoder ever
// allocating the claimed size (it used to make([]byte, n) before
// reading a single content byte).
func TestSetLengthHeaderDoesNotPreallocate(t *testing.T) {
	const claimed = 512 << 20

	// Binary open tag: magic 'S' uvarint(key) uvarint(gen) uvarint(len),
	// then the stream ends with no content at all.
	lying := append([]byte{}, tmpl.Magic...)
	lying = append(lying, 'S', 1, 1)
	lying = binary.AppendUvarint(lying, claimed)

	inputs := map[string]struct {
		codec tmpl.Codec
		data  []byte
	}{
		"binary": {tmpl.Binary{}, lying},
		"text":   {tmpl.Text{}, []byte(`<dpc:set k="1" g="1" n="536870912">oops`)},
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := tmpl.DecodeAll(in.codec, bytes.NewReader(in.data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tmpl.ErrCorrupt) {
				t.Fatalf("lying SET header decoded without ErrCorrupt: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("decoder allocated %d bytes for a %d-byte input claiming a %d-byte SET",
					grew, len(in.data), claimed)
			}
		})
	}
}

func FuzzTemplateDecodeBinary(f *testing.F) {
	for _, seed := range seedTemplates(tmpl.Binary{}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, tmpl.Binary{}, data)
	})
}

func FuzzTemplateDecodeText(f *testing.F) {
	for _, seed := range seedTemplates(tmpl.Text{}) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, tmpl.Text{}, data)
	})
}
