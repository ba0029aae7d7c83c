package fragstore_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/fragstore"
	"dpcache/internal/fragstore/storetest"
)

// The keyed store must satisfy the same fragment-memory contract as the
// slot and sharded backends (through the string-key adapter), for both
// eviction policies.
func TestKeyedConformance(t *testing.T) {
	storetest.Run(t, "keyed-lru", func(capacity int) (fragstore.FragmentStore, error) {
		s, err := fragstore.NewKeyed(fragstore.KeyedConfig{Policy: fragstore.PolicyLRU})
		if err != nil {
			return nil, err
		}
		return s.AsFragmentStore(capacity)
	})
	storetest.Run(t, "keyed-gdsf", func(capacity int) (fragstore.FragmentStore, error) {
		s, err := fragstore.NewKeyed(fragstore.KeyedConfig{Policy: fragstore.PolicyGDSF})
		if err != nil {
			return nil, err
		}
		return s.AsFragmentStore(capacity)
	})
}

func newKeyed(t *testing.T, cfg fragstore.KeyedConfig) *fragstore.KeyedStore {
	t.Helper()
	s, err := fragstore.NewKeyed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyedTTLExpiry(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := newKeyed(t, fragstore.KeyedConfig{Clock: fake})
	s.Put("/a", fragstore.KeyedEntry{Value: []byte("x"), Meta: "text/plain"}, 10*time.Second)
	fake.Advance(9 * time.Second)
	if e, ok := s.Get("/a"); !ok || e.Meta != "text/plain" {
		t.Fatalf("fresh entry: %+v, %v", e, ok)
	}
	fake.Advance(2 * time.Second)
	if _, ok := s.Get("/a"); ok {
		t.Fatal("served past expiry")
	}
	if s.Len() != 0 || s.Bytes() != 0 || s.BudgetUsed() != 0 {
		t.Fatalf("expired entry not fully released: len=%d bytes=%d ledger=%d",
			s.Len(), s.Bytes(), s.BudgetUsed())
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

func TestKeyedNoTTLNeverExpires(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := newKeyed(t, fragstore.KeyedConfig{Clock: fake})
	s.Put("/a", fragstore.KeyedEntry{Value: []byte("x")}, 0)
	fake.Advance(1000 * time.Hour)
	if _, ok := s.Get("/a"); !ok {
		t.Fatal("no-TTL entry expired")
	}
}

func TestKeyedMaxEntriesGlobalBound(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 4, MaxEntries: 8})
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("/f%d", i), fragstore.KeyedEntry{Value: []byte("x")}, 0)
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("resident = %d, want the MaxEntries bound of 8", got)
	}
	if st := s.Stats(); st.Evictions != 92 {
		t.Fatalf("evictions = %d, want 92", st.Evictions)
	}
}

func TestKeyedByteBudgetHolds(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 4, ByteBudget: 1000})
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("/f%d", i%50), fragstore.KeyedEntry{Value: make([]byte, 30+i%40)}, 0)
		if got := s.Bytes(); got > 1000 {
			t.Fatalf("bytes %d exceed budget after put %d", got, i)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions under sustained over-budget puts")
	}
}

func TestKeyedLRUOrder(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 1, MaxEntries: 2})
	s.Put("/a", fragstore.KeyedEntry{Value: []byte("a")}, 0)
	s.Put("/b", fragstore.KeyedEntry{Value: []byte("b")}, 0)
	if _, ok := s.Get("/a"); !ok { // touch a; b becomes LRU
		t.Fatal("a missing")
	}
	s.Put("/c", fragstore.KeyedEntry{Value: []byte("c")}, 0)
	if _, ok := s.Get("/b"); ok {
		t.Fatal("LRU entry b survived")
	}
	if _, ok := s.Get("/a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
}

// Entries are recycled through a free chain. A recycled one must carry
// nothing of its previous tenant. (That a victim survives intact the wiping
// of its slot is checked where victims are used: the tiered model test
// reads every demoted entry back from disk.)
func TestKeyedRecycledEntries(t *testing.T) {
	fc := clock.NewFake(time.Unix(1_000, 0))
	for _, pol := range []fragstore.Policy{fragstore.PolicyLRU, fragstore.PolicyGDSF} {
		t.Run(pol.String(), func(t *testing.T) {
			s := newKeyed(t, fragstore.KeyedConfig{Shards: 1, MaxEntries: 4, Policy: pol, Clock: fc})
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("/k%d", i)
				s.Put(key, fragstore.KeyedEntry{Value: []byte(key), Meta: "m" + key, Gen: uint32(i)}, time.Second)
				if i%3 == 0 {
					s.Delete(key)
				}
			}
			if ev := s.Stats().Evictions; ev == 0 || s.Len() != 4 {
				t.Fatalf("%d evictions, %d resident; want some evictions and 4 resident", ev, s.Len())
			}
			// The slot this takes was last held by an entry with a TTL, a
			// Meta and a generation.
			s.Put("/plain", fragstore.KeyedEntry{Value: []byte("p")}, 0)
			fc.Advance(time.Hour)
			e, ok := s.Get("/plain")
			if !ok || string(e.Value) != "p" || e.Meta != "" || e.Gen != 0 {
				t.Fatalf("recycled entry = %+v, %v; want the bare value, unexpired", e, ok)
			}
		})
	}
}

// A value larger than the whole budget is refused, not admitted by
// emptying the store; a stale entry it was replacing is dropped.
func TestKeyedOversizedPutRefused(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 4, ByteBudget: 1000})
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("/f%d", i), fragstore.KeyedEntry{Value: make([]byte, 100)}, 0)
	}
	s.Put("/f0", fragstore.KeyedEntry{Value: make([]byte, 5000)}, 0)
	if _, ok := s.Get("/f0"); ok {
		t.Fatal("oversized value admitted (or stale entry retained)")
	}
	if got := s.Len(); got != 7 {
		t.Fatalf("resident = %d after oversized put, want the 7 untouched entries", got)
	}
	if st := s.Stats(); st.Evictions != 1 || st.EvictedBytes != 5000 {
		t.Fatalf("refusal not counted: %+v", st)
	}
}

// The keyed store's ledger is global like the fragment store's: keys
// crowding one shard must not evict while the whole store has headroom.
func TestKeyedGlobalBudgetLedgerRace(t *testing.T) {
	const budget = 32 << 10
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 8, ByteBudget: budget})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				key := fmt.Sprintf("/k%d", (g*37+i*3)%96)
				switch i % 4 {
				case 0, 1:
					s.Put(key, fragstore.KeyedEntry{Value: make([]byte, 64+(i%256))}, 0)
				case 2:
					s.Get(key)
				default:
					s.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if used, bytes := s.BudgetUsed(), s.Bytes(); used != bytes {
		t.Fatalf("ledger (%d) disagrees with shard accounting (%d) at quiescence", used, bytes)
	}
	if got := s.Bytes(); got > budget {
		t.Fatalf("settled at %d bytes, over the %d budget", got, budget)
	}
	s.Flush()
	if s.Len() != 0 || s.BudgetUsed() != 0 {
		t.Fatalf("flush left len=%d ledger=%d", s.Len(), s.BudgetUsed())
	}
}

func TestKeyedConfigValidation(t *testing.T) {
	if _, err := fragstore.NewKeyed(fragstore.KeyedConfig{ByteBudget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := fragstore.NewKeyed(fragstore.KeyedConfig{MaxEntries: -1}); err == nil {
		t.Fatal("negative entry bound accepted")
	}
	s := newKeyed(t, fragstore.KeyedConfig{})
	if _, err := s.AsFragmentStore(0); err == nil {
		t.Fatal("adapter accepted zero capacity")
	}
}

// DeleteFunc drops exactly the matching keys, releasing their bytes.
func TestKeyedDeleteFunc(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 4})
	for i := 0; i < 10; i++ {
		prefix := "a\x00"
		if i%2 == 1 {
			prefix = "b\x00"
		}
		s.Put(fmt.Sprintf("%svariant%d", prefix, i), fragstore.KeyedEntry{Value: []byte("body")}, 0)
	}
	n := s.DeleteFunc(func(key string) bool {
		return len(key) > 2 && key[:2] == "a\x00"
	})
	if n != 5 {
		t.Fatalf("DeleteFunc dropped %d, want 5", n)
	}
	if s.Len() != 5 {
		t.Fatalf("resident = %d after scoped drop, want 5", s.Len())
	}
	if got := s.Stats().Drops; got != 5 {
		t.Fatalf("drops = %d, want 5", got)
	}
	if used, bytes := s.BudgetUsed(), s.Bytes(); used != bytes {
		t.Fatalf("ledger (%d) disagrees with shard accounting (%d)", used, bytes)
	}
	if _, ok := s.Get("b\x00variant1"); !ok {
		t.Fatal("unmatched key dropped")
	}
}

// Scratch reservations share the global ledger with resident entries:
// reserving capture bytes under pressure must evict resident entries, and
// releasing must restore headroom.
func TestKeyedReserveScratchEvicts(t *testing.T) {
	const budget = 1024
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 1, ByteBudget: budget})
	for i := 0; i < 4; i++ {
		s.Put(fmt.Sprintf("k%d", i), fragstore.KeyedEntry{Value: make([]byte, 200)}, 0)
	}
	if s.Len() != 4 {
		t.Fatalf("resident = %d before reservation", s.Len())
	}
	// Reserving 600 scratch bytes leaves room for only 424 resident.
	s.ReserveScratch(600)
	if got := s.BudgetUsed(); got > budget {
		t.Fatalf("ledger settled at %d, over the %d budget", got, budget)
	}
	if s.Len() > 2 {
		t.Fatalf("resident = %d after a 600-byte reservation, want <= 2", s.Len())
	}
	s.ReserveScratch(-600)
	if used, bytes := s.BudgetUsed(), s.Bytes(); used != bytes {
		t.Fatalf("ledger (%d) disagrees with shard accounting (%d) after release", used, bytes)
	}
	// Unbudgeted stores ignore reservations entirely.
	u := newKeyed(t, fragstore.KeyedConfig{})
	u.ReserveScratch(1 << 30)
	if u.BudgetUsed() != 0 {
		t.Fatalf("unbudgeted store accounted scratch bytes: %d", u.BudgetUsed())
	}
}

// Entries carrying a structured Obj payload are stored by reference and
// charge their declared Cost against the byte budget instead of
// len(Value), so a tier of compiled objects evicts under pressure like
// any byte-valued tier.
func TestKeyedObjCostAccounting(t *testing.T) {
	s := newKeyed(t, fragstore.KeyedConfig{Shards: 1, ByteBudget: 1000})
	type plan struct{ n int }
	p := &plan{n: 42}
	s.Put("/plan", fragstore.KeyedEntry{Obj: p, Cost: 400}, 0)
	if got := s.Bytes(); got != 400 {
		t.Fatalf("Bytes = %d after Cost=400 put, want 400", got)
	}
	e, ok := s.Get("/plan")
	if !ok || e.Obj == nil {
		t.Fatal("Obj entry missing")
	}
	if e.Obj.(*plan) != p {
		t.Fatal("Obj was not stored by reference")
	}
	// Replacing the entry adjusts the ledger by the cost delta.
	s.Put("/plan", fragstore.KeyedEntry{Obj: p, Cost: 700}, 0)
	if got := s.Bytes(); got != 700 {
		t.Fatalf("Bytes = %d after replace with Cost=700, want 700", got)
	}
	// Two more 400-cost entries push past the 1000-byte budget and force
	// an eviction; the ledger must return to within budget.
	s.Put("/plan2", fragstore.KeyedEntry{Obj: &plan{}, Cost: 400}, 0)
	if got := s.Bytes(); got > 1000 {
		t.Fatalf("bytes %d exceed budget", got)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("no eviction after over-budget Obj puts")
	}
	// An Obj entry whose cost exceeds the entire budget is refused.
	s.Put("/huge", fragstore.KeyedEntry{Obj: &plan{}, Cost: 5000}, 0)
	if _, ok := s.Get("/huge"); ok {
		t.Fatal("over-budget Obj entry admitted")
	}
}

// GetKeep must miss on an expired entry (counted) without destroying it:
// stale-while-revalidate depends on the copy surviving the freshness
// lookup that discovered its expiry.
func TestKeyedGetKeepLeavesExpiredResident(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := newKeyed(t, fragstore.KeyedConfig{Clock: fake})
	s.Put("/a", fragstore.KeyedEntry{Value: []byte("stale-me"), Meta: "text/html"}, 10*time.Second)

	fake.Advance(9 * time.Second)
	if e, ok := s.GetKeep("/a"); !ok || string(e.Value) != "stale-me" {
		t.Fatalf("fresh GetKeep: %+v, %v", e, ok)
	}

	fake.Advance(6 * time.Second) // 5s past the deadline
	if _, ok := s.GetKeep("/a"); ok {
		t.Fatal("GetKeep served an expired entry as fresh")
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d after the expired GetKeep, want 1", st.Misses)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (expired entry must stay resident)", s.Len())
	}
	e, age, ok := s.GetStale("/a")
	if !ok || string(e.Value) != "stale-me" {
		t.Fatalf("GetStale after GetKeep: %+v, %v", e, ok)
	}
	if age != 5*time.Second {
		t.Fatalf("stale age = %v, want 5s", age)
	}
}

// GetStale serves entries past their deadline with their age, without
// touching the hit/miss counters, and a fresh entry reads back with age
// zero. Delete still removes the entry outright — an invalidation beats
// any stale serve.
func TestKeyedGetStale(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := newKeyed(t, fragstore.KeyedConfig{Clock: fake})
	s.Put("/a", fragstore.KeyedEntry{Value: []byte("v"), Meta: "text/plain"}, 10*time.Second)

	if e, age, ok := s.GetStale("/a"); !ok || age != 0 || e.Meta != "text/plain" {
		t.Fatalf("fresh GetStale: entry=%+v age=%v ok=%v", e, age, ok)
	}
	fake.Advance(13 * time.Second)
	if _, age, ok := s.GetStale("/a"); !ok || age != 3*time.Second {
		t.Fatalf("expired GetStale: age=%v ok=%v, want 3s true", age, ok)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("GetStale moved the freshness counters: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if _, _, ok := s.GetStale("/missing"); ok {
		t.Fatal("GetStale invented an entry")
	}

	if !s.Delete("/a") {
		t.Fatal("Delete missed the resident entry")
	}
	if _, _, ok := s.GetStale("/a"); ok {
		t.Fatal("GetStale served a deleted (invalidated) entry")
	}
}
