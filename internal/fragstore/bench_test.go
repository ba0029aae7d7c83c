// Benchmarks comparing the fragment-store backends under parallel load.
// Run:
//
//	go test ./internal/fragstore -bench=. -benchmem -cpu=1,4,8
//
// The headline comparison is BenchmarkStoreParallel: the sharded backend
// must match or beat the slot store as parallelism grows, since that is
// the reason it exists. BenchmarkStoreParallelGet at -cpu=1 reads the
// price of the engine's hash lookup against the slot array's index.
package fragstore_test

import (
	"sync/atomic"
	"testing"

	"dpcache/internal/fragstore"
)

const (
	benchCapacity = 4096
	benchPayload  = 512 // typical fragment size (Table 2's order of magnitude)
)

// benchBackends enumerates every selectable backend configuration.
func benchBackends(b *testing.B) map[string]func() fragstore.FragmentStore {
	b.Helper()
	mk := func(cfg fragstore.Config) func() fragstore.FragmentStore {
		cfg.Capacity = benchCapacity
		return func() fragstore.FragmentStore {
			s, err := fragstore.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
	}
	const sh = fragstore.BackendSharded
	return map[string]func() fragstore.FragmentStore{
		"slot":         mk(fragstore.Config{}),
		"sharded":      mk(fragstore.Config{Backend: sh}),
		"sharded-lru":  mk(fragstore.Config{Backend: sh, ByteBudget: benchCapacity * benchPayload, Eviction: "lru"}),
		"sharded-gdsf": mk(fragstore.Config{Backend: sh, ByteBudget: benchCapacity * benchPayload, Eviction: "gdsf"}),
	}
}

func fill(s fragstore.FragmentStore, payload []byte) {
	for k := uint32(0); k < benchCapacity; k++ {
		_ = s.Set(k, 1, payload)
	}
}

// BenchmarkStoreParallel is the assembly-path mix: ~90% GETs, 10% SETs
// (the paper's steady state, where most templates reference warm slots),
// issued from all procs at once via b.RunParallel.
func BenchmarkStoreParallel(b *testing.B) {
	payload := make([]byte, benchPayload)
	for name, mkStore := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			s := mkStore()
			fill(s, payload)
			var seq atomic.Uint32
			b.SetBytes(benchPayload)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 2654435761 // decorrelate goroutine key streams
				for pb.Next() {
					i++
					k := i % benchCapacity
					if i%10 == 0 {
						_ = s.Set(k, 1, payload)
					} else {
						s.Get(k, 1, true)
					}
				}
			})
		})
	}
}

// BenchmarkStoreParallelGet is the pure read path: every proc hammering
// warm slots, the best case for the slot store's RWMutex.
func BenchmarkStoreParallelGet(b *testing.B) {
	payload := make([]byte, benchPayload)
	for name, mkStore := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			s := mkStore()
			fill(s, payload)
			var seq atomic.Uint32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 2654435761
				for pb.Next() {
					i++
					s.Get(i%benchCapacity, 1, true)
				}
			})
		})
	}
}

// BenchmarkStoreParallelSet is the write-storm path (cold cache warmup or
// invalidation recovery): all procs SETting, where the single write lock
// fully serializes the slot store.
func BenchmarkStoreParallelSet(b *testing.B) {
	payload := make([]byte, benchPayload)
	for name, mkStore := range benchBackends(b) {
		b.Run(name, func(b *testing.B) {
			s := mkStore()
			var seq atomic.Uint32
			b.SetBytes(benchPayload)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 2654435761
				for pb.Next() {
					i++
					_ = s.Set(i%benchCapacity, 1, payload)
				}
			})
		})
	}
}

// BenchmarkStoreGlobalBudget measures the cost of the global byte-budget
// ledger under parallel writes: every SET reserves against one shared
// atomic and the store hovers at its budget, so this is the worst case for
// ledger contention (plus steady single-entry evictions). Compare with
// BenchmarkStoreParallelSet (unbudgeted) to read the ledger overhead.
func BenchmarkStoreGlobalBudget(b *testing.B) {
	payload := make([]byte, benchPayload)
	for _, pol := range []fragstore.Policy{fragstore.PolicyLRU, fragstore.PolicyGDSF} {
		b.Run(pol.String(), func(b *testing.B) {
			s := sharded(b, fragstore.Config{
				Capacity: benchCapacity,
				// Half the working set fits: the ledger sits at its limit
				// and every SET of a cold key evicts exactly one victim.
				ByteBudget: benchCapacity * benchPayload / 2,
				Eviction:   pol.String(),
			})
			var seq atomic.Uint32
			b.SetBytes(benchPayload)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 2654435761
				for pb.Next() {
					i++
					_ = s.Set(i%benchCapacity, 1, payload)
				}
			})
			if got := s.Bytes(); got > benchCapacity*benchPayload/2 {
				b.Fatalf("settled at %d bytes, over the budget", got)
			}
		})
	}
}

// BenchmarkStoreEvictionChurn drives the byte-budgeted configurations
// permanently over budget so every SET evicts: the policy bookkeeping
// cost, isolated.
func BenchmarkStoreEvictionChurn(b *testing.B) {
	payload := make([]byte, benchPayload)
	for _, pol := range []fragstore.Policy{fragstore.PolicyLRU, fragstore.PolicyGDSF} {
		b.Run(pol.String(), func(b *testing.B) {
			s := sharded(b, fragstore.Config{
				Capacity: benchCapacity,
				// A quarter of the working set fits, so churn is constant.
				ByteBudget: benchCapacity * benchPayload / 4,
				Eviction:   pol.String(),
			})
			var seq atomic.Uint32
			b.SetBytes(benchPayload)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 2654435761
				for pb.Next() {
					i++
					k := i % benchCapacity
					if i%4 == 0 {
						_ = s.Set(k, 1, payload)
					} else {
						s.Get(k, 1, true)
					}
				}
			})
		})
	}
}
