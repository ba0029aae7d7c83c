package dpc

// Repeat assemblies of the same template through the engine's two drivers:
// streamed (per-request decode) versus a warm plan cache (zero-decode
// compiled program); both resolve GETs in template order.
// CI runs this at -benchtime=1x as a smoke test; run it properly with
//
//	go test -run xxx -bench BenchmarkAssembleCompiledVsInterpreted ./internal/dpc/

import (
	"bytes"
	"io"
	"testing"

	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
)

func benchTemplate(b *testing.B, codec tmpl.Codec, frags int) ([]byte, *Store) {
	b.Helper()
	store, err := NewStore(frags + 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf)
	content := bytes.Repeat([]byte("f"), 512)
	for k := 0; k < frags; k++ {
		if err := store.Set(uint32(k), 1, content); err != nil {
			b.Fatal(err)
		}
		_ = enc.Literal([]byte("<div>"))
		_ = enc.Get(uint32(k), 1)
		_ = enc.Literal([]byte("</div>"))
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), store
}

func BenchmarkAssembleCompiledVsInterpreted(b *testing.B) {
	const frags = 16
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		body, store := benchTemplate(b, codec, frags)
		b.Run("streamed/"+codec.Name(), func(b *testing.B) {
			ex := &tmplplan.Exec{Store: store, Strict: true, Codec: codec}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunStream(bytes.NewReader(body), io.Discard, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("compiled/"+codec.Name(), func(b *testing.B) {
			cache, err := tmplplan.NewCache(codec, tmplplan.CacheConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ex := &tmplplan.Exec{Store: store, Strict: true, Codec: codec, Plans: cache}
			if _, _, err := cache.Get(body); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				plan, hit, err := cache.Get(body)
				if err != nil || !hit {
					b.Fatalf("hit=%v err=%v", hit, err)
				}
				if _, err := ex.Run(plan, io.Discard, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
