// Benchmarks for the tiered store's headline claim: a disk hit must be
// an order of magnitude cheaper than the origin round-trip it replaces.
// Run:
//
//	go test ./internal/fragstore -bench BenchmarkTieredStore -benchmem
package fragstore_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dpcache/internal/diskstore"
	"dpcache/internal/fragstore"
)

const tieredBenchPayload = 4 << 10 // 4 KiB, a typical page fragment

func newBenchTiered(b *testing.B, ramBudget int64) *fragstore.TieredKeyed {
	b.Helper()
	ts, err := fragstore.NewTieredKeyed(fragstore.TieredConfig{
		RAM:  fragstore.KeyedConfig{ByteBudget: ramBudget},
		Disk: diskstore.Config{Path: filepath.Join(b.TempDir(), "bench.heap")},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ts.Close() })
	return ts
}

// BenchmarkTieredStore measures the tier costs side by side:
//
//   - RAMHitGet: the unchanged fast path (baseline).
//   - DiskHitGet: a Get answered by the heap file through the buffer
//     pool and served in place — the cost of serving a disk-resident
//     entry.
//   - PromoteCycleGet: the fully-thrashing variant. A key earns its
//     promotion on its second touch, so Gets come in pairs: one served in
//     place, one that also pays a promotion and the displaced victim's
//     eviction — clean, since the disk tier keeps the copy of everything
//     it has promoted. ns/op is the mean of the two; a promoting Get costs
//     twice that less a DiskHitGet.
//   - DemotePut: a Put whose RAM eviction demotes a victim to disk.
//   - OriginRoundTrip: fetching the same payload from a local HTTP
//     origin — the cost a disk hit avoids. The tentpole's acceptance
//     bar is DiskHitGet >= 10x faster than this, and the origin here is
//     loopback with zero think time, the cheapest origin there is.
func BenchmarkTieredStore(b *testing.B) {
	payload := make([]byte, tieredBenchPayload)
	for i := range payload {
		payload[i] = byte(i)
	}

	b.Run("RAMHitGet", func(b *testing.B) {
		ts := newBenchTiered(b, 0) // unbounded RAM: everything stays hot
		fragstore.TieredPut(ts, "hot", fragstore.KeyedEntry{Value: payload})
		b.SetBytes(tieredBenchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := fragstore.TieredGet(ts, "hot"); !ok {
				b.Fatal("lost hot entry")
			}
		}
	})

	b.Run("DiskHitGet", func(b *testing.B) {
		// A RAM budget smaller than the payload keeps the entry
		// disk-resident (promotion is refused, nothing is displaced), so
		// every Get measures the pure second-tier read: index lookup,
		// buffer-pool pin, segment copy.
		ts := newBenchTiered(b, tieredBenchPayload/2)
		fragstore.TieredPut(ts, "cold", fragstore.KeyedEntry{Value: payload})
		b.SetBytes(tieredBenchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := fragstore.TieredGet(ts, "cold"); !ok {
				b.Fatal("disk-resident entry lost")
			}
		}
		b.StopTimer()
		if st := ts.TierStats(); st.DiskHits < int64(b.N) || st.Promotions != 0 {
			b.Fatalf("benchmark did not stay on the disk tier: %+v", st)
		}
	})

	b.Run("PromoteCycleGet", func(b *testing.B) {
		// RAM holds exactly one payload, so reading two keys in turn, each
		// twice in succession, makes every Get a disk hit and every second
		// one a promotion that displaces the other key — the worst-case
		// (fully thrashing) second-tier read. After the first round both
		// keys are on disk and no Get writes.
		ts := newBenchTiered(b, tieredBenchPayload)
		fragstore.TieredPut(ts, "a", fragstore.KeyedEntry{Value: payload})
		fragstore.TieredPut(ts, "b", fragstore.KeyedEntry{Value: payload}) // a → disk
		b.SetBytes(tieredBenchPayload)
		b.ResetTimer()
		keys := [4]string{"a", "a", "b", "b"}
		for i := 0; i < b.N; i++ {
			if _, ok := fragstore.TieredGet(ts, keys[i%4]); !ok {
				b.Fatal("entry lost across tiers")
			}
		}
		b.StopTimer()
		if st := ts.TierStats(); st.DiskHits < int64(b.N) || st.Promotions < int64(b.N/2) {
			b.Fatalf("benchmark did not promote on every second Get: %+v", st)
		}
	})

	b.Run("DemotePut", func(b *testing.B) {
		ts := newBenchTiered(b, tieredBenchPayload)
		b.SetBytes(tieredBenchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every Put displaces the previous key into the disk tier.
			fragstore.TieredPut(ts, fmt.Sprintf("k%d", i%512), fragstore.KeyedEntry{Value: payload})
		}
	})

	b.Run("OriginRoundTrip", func(b *testing.B) {
		origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(payload)
		}))
		defer origin.Close()
		client := origin.Client()
		b.SetBytes(tieredBenchPayload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(origin.URL)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}
