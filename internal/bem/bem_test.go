package bem

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/repository"
)

func newMonitor(t *testing.T, capacity int) *Monitor {
	t.Helper()
	m, err := New(Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := New(Config{Capacity: 1, ForcedMissProb: 1.5}); err == nil {
		t.Fatal("forced-miss prob 1.5 accepted")
	}
}

func TestFirstLookupMissesThenHits(t *testing.T) {
	m := newMonitor(t, 4)
	d1, err := m.Lookup("nav+top", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Hit {
		t.Fatal("first lookup was a hit")
	}
	d2, err := m.Lookup("nav+top", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Hit {
		t.Fatal("second lookup was a miss")
	}
	if d2.Key != d1.Key || d2.Gen != d1.Gen {
		t.Fatalf("hit decision %+v does not match miss decision %+v", d2, d1)
	}
}

func TestDistinctFragmentsGetDistinctKeys(t *testing.T) {
	m := newMonitor(t, 8)
	seen := map[uint32]string{}
	for _, id := range []string{"a", "b", "c", "d"} {
		d, err := m.Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[d.Key]; dup {
			t.Fatalf("key %d assigned to both %q and %q", d.Key, prev, id)
		}
		seen[d.Key] = id
	}
}

func TestGenerationsGloballyUnique(t *testing.T) {
	m := newMonitor(t, 2)
	gens := map[uint32]bool{}
	for i := 0; i < 10; i++ {
		id := string(rune('a' + i%3))
		d, err := m.Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Hit {
			if gens[d.Gen] {
				t.Fatalf("generation %d reused", d.Gen)
			}
			gens[d.Gen] = true
		}
		m.Invalidate(id)
	}
}

func TestTTLExpiryInvalidatesLazily(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	m, err := New(Config{Capacity: 4, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup("quote+IBM", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	fake.Advance(10 * time.Second)
	d, _ := m.Lookup("quote+IBM", 30*time.Second)
	if !d.Hit {
		t.Fatal("fragment expired early")
	}
	fake.Advance(25 * time.Second)
	d, _ = m.Lookup("quote+IBM", 30*time.Second)
	if d.Hit {
		t.Fatal("fragment not expired after TTL")
	}
	if got := m.Stats().TTLInvalidations; got != 1 {
		t.Fatalf("TTLInvalidations = %d, want 1", got)
	}
}

func TestSweepExpired(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	m, err := New(Config{Capacity: 8, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Lookup("a", time.Second)
	_, _ = m.Lookup("b", time.Minute)
	_, _ = m.Lookup("c", 0) // no TTL
	fake.Advance(10 * time.Second)
	if n := m.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired = %d, want 1", n)
	}
	if d, _ := m.Lookup("b", time.Minute); !d.Hit {
		t.Fatal("unexpired fragment was swept")
	}
	if d, _ := m.Lookup("c", 0); !d.Hit {
		t.Fatal("no-TTL fragment was swept")
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	m, err := New(Config{Capacity: 2, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Lookup("eternal", 0)
	fake.Advance(1000 * time.Hour)
	if d, _ := m.Lookup("eternal", 0); !d.Hit {
		t.Fatal("no-TTL fragment expired")
	}
}

func TestExplicitInvalidate(t *testing.T) {
	m := newMonitor(t, 4)
	_, _ = m.Lookup("x", 0)
	if !m.Invalidate("x") {
		t.Fatal("Invalidate returned false for valid fragment")
	}
	if m.Invalidate("x") {
		t.Fatal("Invalidate returned true for already-invalid fragment")
	}
	if m.Invalidate("never-seen") {
		t.Fatal("Invalidate returned true for unknown fragment")
	}
	if d, _ := m.Lookup("x", 0); d.Hit {
		t.Fatal("invalidated fragment served as hit")
	}
}

func TestInvalidationReassignsKeyAndBumpsGen(t *testing.T) {
	m := newMonitor(t, 4)
	d1, _ := m.Lookup("x", 0)
	m.Invalidate("x")
	d2, _ := m.Lookup("x", 0)
	if d2.Hit {
		t.Fatal("lookup after invalidation hit")
	}
	if d2.Gen == d1.Gen {
		t.Fatal("generation not bumped on regeneration")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDependencyInvalidation(t *testing.T) {
	m := newMonitor(t, 8)
	repo := repository.New(repository.LatencyModel{})
	m.BindRepo(repo)

	dep := repository.Key{Table: "quotes", Row: "IBM"}
	d, _ := m.Lookup("quote+IBM", 0)
	m.Depend("quote+IBM", d.Gen, dep)
	m.Commit("quote+IBM", d.Gen, 100)
	d, _ = m.Lookup("headlines+IBM", 0)
	m.Depend("headlines+IBM", d.Gen, repository.Key{Table: "news", Row: "IBM"})
	m.Commit("headlines+IBM", d.Gen, 400)

	repo.Put(dep, map[string]string{"px": "142.10"})

	if d, _ := m.Lookup("quote+IBM", 0); d.Hit {
		t.Fatal("dependent fragment survived data update")
	}
	if d, _ := m.Lookup("headlines+IBM", 0); !d.Hit {
		t.Fatal("unrelated fragment was invalidated")
	}
	if got := m.Stats().DataInvalidations; got != 1 {
		t.Fatalf("DataInvalidations = %d, want 1", got)
	}
}

// A miss hands out a generation with no dependencies: the rows the last one
// read are forgotten, and only Depend against the new generation adds any.
func TestMissClearsDeps(t *testing.T) {
	m := newMonitor(t, 4)
	old := repository.Key{Table: "t", Row: "old"}
	nw := repository.Key{Table: "t", Row: "new"}
	d, _ := m.Lookup("f", 0)
	m.Depend("f", d.Gen, old)
	m.Commit("f", d.Gen, 10)
	m.Invalidate("f")
	dead := d.Gen
	d, _ = m.Lookup("f", 0)
	m.Depend("f", dead, old) // a render of the dead generation reads on
	m.Depend("f", d.Gen, nw)
	m.Commit("f", d.Gen, 10)
	if n := m.InvalidateDependents(old); n != 0 {
		t.Fatalf("stale dependency still registered: invalidated %d", n)
	}
	if n := m.InvalidateDependents(nw); n != 1 {
		t.Fatalf("new dependency not registered: invalidated %d", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionWhenFull(t *testing.T) {
	m := newMonitor(t, 3)
	for _, id := range []string{"a", "b", "c"} {
		_, _ = m.Lookup(id, 0)
	}
	// Touch a and c so b is LRU.
	_, _ = m.Lookup("a", 0)
	_, _ = m.Lookup("c", 0)
	// Inserting d forces eviction of b.
	_, _ = m.Lookup("d", 0)
	if got := m.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// b must now miss (this lookup itself evicts another fragment).
	if d, _ := m.Lookup("b", 0); d.Hit {
		t.Fatal("LRU fragment b survived eviction")
	}
}

func TestEvictionPrefersLeastRecentlyUsed(t *testing.T) {
	m := newMonitor(t, 2)
	_, _ = m.Lookup("old", 0)
	_, _ = m.Lookup("new", 0)
	_, _ = m.Lookup("new", 0)    // refresh new
	_, _ = m.Lookup("newest", 0) // evicts old, not new
	if d, _ := m.Lookup("new", 0); !d.Hit {
		t.Fatal("recently used fragment was evicted before LRU one")
	}
}

// With the freeList empty every miss evicts. On a bench-sized directory the
// victims are exactly the least recently used fragments, in order, and
// choosing each examines one entry — not the 16 384 a scan of the directory
// under the monitor mutex would, stalling every concurrent Lookup.
func TestEvictionIsExactLRUWithoutAScan(t *testing.T) {
	const capacity, extra, kept = 16384, 1000, 10
	m := newMonitor(t, capacity)
	var evicted []string
	m.OnInvalidate(func(id string, _, _ uint32, reason InvalidationReason) {
		if reason == ReasonEviction {
			evicted = append(evicted, id)
		}
	})
	id := func(i int) string { return "f" + strconv.Itoa(i) }
	for i := 0; i < capacity; i++ {
		_, _ = m.Lookup(id(i), 0)
	}
	for i := 0; i < kept; i++ { // the oldest ten become the newest
		if d, _ := m.Lookup(id(i), 0); !d.Hit {
			t.Fatalf("%s missed in a directory that holds it", id(i))
		}
	}
	for i := capacity; i < capacity+extra; i++ {
		_, _ = m.Lookup(id(i), 0)
	}
	if len(evicted) != extra {
		t.Fatalf("%d evictions, want %d", len(evicted), extra)
	}
	for n, got := range evicted {
		if want := id(kept + n); got != want {
			t.Fatalf("eviction %d took %s, the least recently used was %s", n, got, want)
		}
	}
	if m.evictVisited != extra {
		t.Fatalf("choosing %d victims examined %d entries, want one each", extra, m.evictVisited)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedMissPinsHitRatio(t *testing.T) {
	m, err := New(Config{Capacity: 4, ForcedMissProb: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	hits := 0
	for i := 0; i < n; i++ {
		d, err := m.Lookup("f", 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Hit {
			hits++
		}
	}
	h := float64(hits) / float64(n)
	if h < 0.44 || h > 0.56 {
		t.Fatalf("measured hit ratio %.3f, want ~0.5", h)
	}
	if m.Stats().ForcedMisses == 0 {
		t.Fatal("no forced misses recorded")
	}
}

func TestStatsHitRatio(t *testing.T) {
	m := newMonitor(t, 4)
	_, _ = m.Lookup("a", 0)
	_, _ = m.Lookup("a", 0)
	_, _ = m.Lookup("a", 0)
	_, _ = m.Lookup("a", 0)
	s := m.Stats()
	if got := s.HitRatio(); got != 0.75 {
		t.Fatalf("HitRatio = %v, want 0.75", got)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("empty HitRatio not 0")
	}
}

func TestOnInvalidateHookFires(t *testing.T) {
	m := newMonitor(t, 4)
	var mu sync.Mutex
	var got []string
	m.OnInvalidate(func(fragID string, key, gen uint32, reason InvalidationReason) {
		mu.Lock()
		got = append(got, fragID)
		mu.Unlock()
	})
	d, _ := m.Lookup("x", 0)
	_ = d
	m.Invalidate("x")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("hook calls = %v, want [x]", got)
	}
}

func TestHookFiresOnTTLAndEviction(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	m, err := New(Config{Capacity: 1, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	m.OnInvalidate(func(string, uint32, uint32, InvalidationReason) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	_, _ = m.Lookup("a", time.Second)
	fake.Advance(2 * time.Second)
	_, _ = m.Lookup("a", time.Second) // TTL invalidation + regeneration
	_, _ = m.Lookup("b", 0)           // evicts a
	mu.Lock()
	defer mu.Unlock()
	if count != 2 {
		t.Fatalf("hook fired %d times, want 2 (one TTL, one eviction)", count)
	}
}

// Property: after an arbitrary interleaving of lookups, invalidations,
// dependency updates, TTL advances, and evictions, the freeList/directory
// key discipline holds.
func TestInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fake := clock.NewFake(time.Unix(0, 0))
	const capacity = 5
	m, err := New(Config{Capacity: capacity, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	frags := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	deps := []repository.Key{{Table: "t", Row: "1"}, {Table: "t", Row: "2"}}
	for op := 0; op < 5000; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			id := frags[rng.Intn(len(frags))]
			ttl := time.Duration(rng.Intn(3)) * time.Second
			d, err := m.Lookup(id, ttl)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			m.Depend(id, d.Gen, deps[rng.Intn(len(deps))])
			m.Commit(id, d.Gen, rng.Intn(2048))
		case 2:
			m.Invalidate(frags[rng.Intn(len(frags))])
		case 3:
			m.InvalidateDependents(deps[rng.Intn(len(deps))])
		case 4:
			fake.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
			m.SweepExpired()
		}
		// Recency-list order equal to lastUsed order, checked after every
		// operation, is what makes "evict the oldest" exactly LRU.
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	s := m.Stats()
	if s.ValidFragments > capacity {
		t.Fatalf("%d valid fragments exceed capacity %d", s.ValidFragments, capacity)
	}
}

func TestConcurrentLookups(t *testing.T) {
	m := newMonitor(t, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := string(rune('a' + rng.Intn(20)))
				if _, err := m.Lookup(id, 0); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if rng.Intn(10) == 0 {
					m.Invalidate(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyQueueFIFOAndGrowth(t *testing.T) {
	q := newKeyQueue(2)
	for i := uint32(0); i < 10; i++ {
		q.push(i)
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := uint32(0); i < 10; i++ {
		k, ok := q.pop()
		if !ok || k != i {
			t.Fatalf("pop %d = %d,%v", i, k, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestKeyQueueWrapAround(t *testing.T) {
	q := newKeyQueue(4)
	for round := 0; round < 5; round++ {
		for i := uint32(0); i < 3; i++ {
			q.push(i)
		}
		for i := uint32(0); i < 3; i++ {
			k, ok := q.pop()
			if !ok || k != i {
				t.Fatalf("round %d: pop = %d,%v want %d", round, k, ok, i)
			}
		}
	}
}

func TestInvalidatedKeyGoesToFreeListTail(t *testing.T) {
	// Paper: invalid keys are appended at the tail, so reuse happens as
	// late as possible. With capacity 3 and one fragment invalidated,
	// two fresh fragments must consume the two never-used keys before
	// the recycled key reappears.
	m := newMonitor(t, 3)
	d, _ := m.Lookup("a", 0)
	m.Invalidate("a")
	d1, _ := m.Lookup("b", 0)
	d2, _ := m.Lookup("c", 0)
	if d1.Key == d.Key || d2.Key == d.Key {
		t.Fatalf("recycled key %d reused before fresh keys (got %d, %d)", d.Key, d1.Key, d2.Key)
	}
	d3, _ := m.Lookup("d", 0)
	if d3.Key != d.Key {
		t.Fatalf("fourth fragment key = %d, want recycled %d", d3.Key, d.Key)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	m, _ := New(Config{Capacity: 1024})
	_, _ = m.Lookup("hot", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Lookup("hot", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupEvicting is a miss on a full bench-sized directory: every
// Lookup reclaims the least recently used slot.
func BenchmarkLookupEvicting(b *testing.B) {
	const capacity = 16384
	m, _ := New(Config{Capacity: capacity})
	ids := make([]string, 2*capacity) // the lookup after next of an id finds it evicted
	for i := range ids {
		ids[i] = "f" + strconv.Itoa(i)
	}
	for _, id := range ids[:capacity] {
		_, _ = m.Lookup(id, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d, err := m.Lookup(ids[(capacity+i)%len(ids)], 0); err != nil || d.Hit {
			b.Fatal(d, err)
		}
	}
}

func BenchmarkLookupMissInvalidate(b *testing.B) {
	m, _ := New(Config{Capacity: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Lookup("f", 0); err != nil {
			b.Fatal(err)
		}
		m.Invalidate("f")
	}
}

func TestInvalidateStale(t *testing.T) {
	m := newMonitor(t, 4)
	d, _ := m.Lookup("f", 0)
	if !m.InvalidateStale(d.Key, d.Gen) {
		t.Fatal("stale report for valid entry rejected")
	}
	if d2, _ := m.Lookup("f", 0); d2.Hit {
		t.Fatal("fragment still hit after stale invalidation")
	}
	if m.Stats().StaleInvalidations != 1 {
		t.Fatalf("StaleInvalidations = %d", m.Stats().StaleInvalidations)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateStaleWrongGenIgnored(t *testing.T) {
	m := newMonitor(t, 4)
	d, _ := m.Lookup("f", 0)
	if m.InvalidateStale(d.Key, d.Gen+1) {
		t.Fatal("stale report with wrong generation accepted")
	}
	if d2, _ := m.Lookup("f", 0); !d2.Hit {
		t.Fatal("valid fragment was invalidated by mismatched report")
	}
}

func TestInvalidateStaleUnknownKey(t *testing.T) {
	m := newMonitor(t, 4)
	if m.InvalidateStale(3, 1) {
		t.Fatal("unknown key accepted")
	}
}

func TestSweeperReclaimsExpiredSlots(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	m, err := New(Config{Capacity: 4, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Lookup("short", 100*time.Millisecond)
	stop := m.StartSweeper(5 * time.Millisecond)
	defer stop()
	fake.Advance(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.Stats().TTLInvalidations == 1 {
			if m.Stats().FreeKeys != 4 {
				t.Fatalf("FreeKeys = %d, want 4", m.Stats().FreeKeys)
			}
			stop()
			stop() // idempotent
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("sweeper never reclaimed the expired fragment")
}

func TestTopFragments(t *testing.T) {
	m := newMonitor(t, 8)
	d, _ := m.Lookup("hot", 0)
	m.Commit("hot", d.Gen, 512)
	for i := 0; i < 5; i++ {
		_, _ = m.Lookup("hot", 0)
	}
	d, _ = m.Lookup("cold", 0)
	m.Commit("cold", d.Gen, 128)
	_, _ = m.Lookup("cold", 0)

	top := m.TopFragments(1)
	if len(top) != 1 || top[0].FragmentID != "hot" {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Hits != 5 || top[0].Size != 512 || !top[0].Valid {
		t.Fatalf("hot info = %+v", top[0])
	}
	all := m.TopFragments(0)
	if len(all) != 2 {
		t.Fatalf("all = %+v", all)
	}
}

func TestTopFragmentsDeterministicTies(t *testing.T) {
	m := newMonitor(t, 8)
	_, _ = m.Lookup("b", 0)
	_, _ = m.Lookup("a", 0)
	top := m.TopFragments(2)
	if top[0].FragmentID != "a" || top[1].FragmentID != "b" {
		t.Fatalf("tie order = %v, %v", top[0].FragmentID, top[1].FragmentID)
	}
}

// A write that lands after a render read its row and before Commit would
// find no dependency to invalidate if the row were registered after the
// read. Depend registers it before, so the write invalidates the entry it
// was rendering for — with a data invalidation's hook — and a Lookup
// meanwhile does not hit content older than the row.
func TestCommitRaceDependBeforeRead(t *testing.T) {
	m := newMonitor(t, 4)
	repo := repository.New(repository.LatencyModel{})
	m.BindRepo(repo)
	row := repository.Key{Table: "quotes", Row: "IBM"}
	repo.Put(row, map[string]string{"px": "141.80"})
	var fired []InvalidationReason
	m.OnInvalidate(func(_ string, _, _ uint32, reason InvalidationReason) { fired = append(fired, reason) })

	d, _ := m.Lookup("quote+IBM", 0)
	m.Depend("quote+IBM", d.Gen, row)
	m.Depend("quote+IBM", d.Gen, row) // a second read of the row registers nothing more
	_ = repo.Field(row, "px", "")
	repo.Put(row, map[string]string{"px": "142.10"}) // between the render's read and Commit
	if len(fired) != 1 || fired[0] != ReasonData {
		t.Fatalf("hooks %v; want one data invalidation as the write landed", fired)
	}
	again, _ := m.Lookup("quote+IBM", 0)
	if again.Hit {
		t.Fatal("a Lookup during the render hit the entry the write invalidated")
	}
	// That Lookup's render commits first. The raced render goes on after,
	// for a generation the entry no longer has: it reads another row and
	// commits, and neither may touch the live generation's dependencies.
	m.Depend("quote+IBM", again.Gen, row)
	_ = repo.Field(row, "px", "")
	m.Commit("quote+IBM", again.Gen, 64)
	ge := repository.Key{Table: "quotes", Row: "GE"}
	m.Depend("quote+IBM", d.Gen, ge)
	m.Commit("quote+IBM", d.Gen, 32)
	if d2, _ := m.Lookup("quote+IBM", 0); !d2.Hit || d2.Gen != again.Gen {
		t.Fatalf("lookup after both commits: %+v, want a hit on generation %d", d2, again.Gen)
	}
	if top := m.TopFragments(1); top[0].Size != 64 {
		t.Fatalf("size %d, want the live generation's 64", top[0].Size)
	}
	repo.Put(ge, map[string]string{"px": "20.00"})
	if d2, _ := m.Lookup("quote+IBM", 0); !d2.Hit {
		t.Fatal("a write to a row only the dead generation read invalidated the live one")
	}
	repo.Put(row, map[string]string{"px": "142.20"})
	if d3, _ := m.Lookup("quote+IBM", 0); d3.Hit {
		t.Fatal("the live generation's dependency did not survive the dead one's render")
	}
	if m.Stats().DataInvalidations != 2 {
		t.Fatalf("%d data invalidations, want 2", m.Stats().DataInvalidations)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A page's shell is an entry only Depend ever adds to: runs against the
// generation a Lookup hit register their reads too, nothing replaces them,
// so a write to a row any of them read invalidates it.
// Decision.Expiry reports the entry's TTL expiry, zero without one.
func TestLeaseShellDependenciesGrowWhileItsGenerationLives(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	m, err := New(Config{Capacity: 4, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	repo := repository.New(repository.LatencyModel{})
	m.BindRepo(repo)
	rows := []repository.Key{{Table: "prefs", Row: "u0"}, {Table: "prefs", Row: "u1"}}
	for _, r := range rows {
		repo.Put(r, map[string]string{"theme": "plain"})
	}
	const shell = "\x00dash?"
	miss, _ := m.Lookup(shell, 0)
	m.Depend(shell, miss.Gen, rows[0]) // u0's run
	hit, _ := m.Lookup(shell, 0)
	if !hit.Hit || hit.Gen != miss.Gen || !hit.Expiry.IsZero() {
		t.Fatalf("second lookup %+v, want a hit on generation %d with no expiry", hit, miss.Gen)
	}
	m.Depend(shell, hit.Gen, rows[1]) // u1's run, against the same generation
	repo.Put(rows[0], map[string]string{"theme": "dark"})
	if again, _ := m.Lookup(shell, 0); again.Hit {
		t.Fatal("a write to a row u0's run read left the shell valid after u1's run")
	}
	if ttl, _ := m.Lookup("f", time.Minute); !ttl.Expiry.Equal(fake.Now().Add(time.Minute)) {
		t.Fatalf("a one-minute entry reports expiry %v", ttl.Expiry)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
