package depindex

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
)

func newTestIndex(budget int64, hz time.Duration, clk clock.Clock) *Index {
	return New(Config{Shards: 4, ByteBudget: budget, Horizon: hz, Clock: clk})
}

func TestRecordAndDependents(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	ix.Record(Ref(1, 1), "pageA")
	ix.Record(Ref(1, 1), "pageB")
	ix.Record(Ref(2, 1), "pageA")

	keys, exact := ix.Dependents(Ref(1, 1))
	if !exact || len(keys) != 2 {
		t.Fatalf("Dependents(1:1) = %v, exact=%v", keys, exact)
	}
	keys, exact = ix.Dependents(Ref(2, 1))
	if !exact || len(keys) != 1 || keys[0] != "pageA" {
		t.Fatalf("Dependents(2:1) = %v, exact=%v", keys, exact)
	}
	// A never-recorded fragment is an authoritative empty answer as long
	// as nothing has been evicted.
	keys, exact = ix.Dependents(Ref(9, 9))
	if !exact || keys != nil {
		t.Fatalf("Dependents(9:9) = %v, exact=%v, want exact empty", keys, exact)
	}
	if st := ix.Stats(); st.Fragments != 2 || st.Edges != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateEdgesNotDoubleCounted(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	ix.Record("r", "k")
	b1 := ix.Stats().Bytes
	ix.Record("r", "k")
	if b2 := ix.Stats().Bytes; b2 != b1 {
		t.Fatalf("duplicate edge grew bytes %d → %d", b1, b2)
	}
	if keys, _ := ix.Dependents("r"); len(keys) != 1 {
		t.Fatalf("keys = %v", keys)
	}
}

// Edges expire after the horizon: the entries they describe are
// TTL-bounded, so the index must not outremember the tiers.
func TestEdgesExpireAfterHorizon(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := newTestIndex(0, 10*time.Second, fake)
	ix.Record("r", "k")
	fake.Advance(11 * time.Second)
	keys, exact := ix.Dependents("r")
	if !exact || len(keys) != 0 {
		t.Fatalf("expired edge survived: %v, exact=%v", keys, exact)
	}
	if st := ix.Stats(); st.Fragments != 0 || st.Bytes != 0 {
		t.Fatalf("expired fragment not reclaimed: %+v", st)
	}
}

// Eviction under byte pressure must make misses conservative (exact =
// false) for one horizon, then heal: after the horizon every described
// entry has expired anyway, so an authoritative empty answer is sound
// again.
func TestEvictionFallbackWindowHeals(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	ix := newTestIndex(512, hz, fake)
	for i := 0; i < 64; i++ {
		ix.Record(Ref(uint32(i), 1), fmt.Sprintf("page-%d-with-a-long-key", i))
	}
	st := ix.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 512, st)
	}
	if st.Bytes > 512 {
		t.Fatalf("index settled over budget: %+v", st)
	}
	// Some fragment was evicted; a miss anywhere must now be inexact
	// (shard-granular — assert on a ref we know was evicted: the oldest).
	inexactSeen := false
	for i := 0; i < 64; i++ {
		if _, exact := ix.Dependents(Ref(uint32(i), 1)); !exact {
			inexactSeen = true
		}
	}
	if !inexactSeen {
		t.Fatal("no lookup answered conservatively after eviction")
	}
	if ix.Stats().Inexact == 0 {
		t.Fatal("inexact lookups not counted")
	}
	// Past the horizon the window closes.
	fake.Advance(hz + time.Second)
	if _, exact := ix.Dependents(Ref(999, 1)); !exact {
		t.Fatal("conservative window never healed")
	}
}

func TestTombstones(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	if ix.AnyInvalid([]string{"a", "b"}) {
		t.Fatal("empty index reported invalid refs")
	}
	ix.MarkInvalid("b")
	if !ix.AnyInvalid([]string{"a", "b"}) {
		t.Fatal("marked ref not reported")
	}
	if ix.AnyInvalid([]string{"a"}) {
		t.Fatal("unmarked ref reported invalid")
	}
	if ix.AnyInvalid(nil) {
		t.Fatal("nil refs reported invalid")
	}
}

// A fill in progress holds Filing: a tombstone or an epoch bump waits for
// it, so the subscriber's lookup that follows finds the fill's edges, and
// a fill that starts afterwards sees the marker.
func TestFilingOrdersFillsAgainstInvalidations(t *testing.T) {
	for name, invalidate := range map[string]func(*Index){
		"tombstone": func(ix *Index) { ix.MarkInvalid(Ref(1, 1)) },
		"epoch":     (*Index).BumpEpoch,
	} {
		t.Run(name, func(t *testing.T) {
			ix := newTestIndex(0, time.Minute, nil)
			epoch := ix.Epoch()
			filing := ix.Filing()
			filing.Lock()
			applied := make(chan struct{})
			go func() {
				invalidate(ix)
				close(applied)
			}()
			select {
			case <-applied:
				t.Fatal("invalidation applied in the middle of a fill")
			case <-time.After(20 * time.Millisecond):
			}
			if ix.AnyInvalid([]string{Ref(1, 1)}) || ix.Epoch() != epoch {
				t.Fatal("fill in progress already sees the invalidation")
			}
			ix.Record(Ref(1, 1), "page")
			filing.Unlock()
			<-applied
			if keys, _ := ix.Dependents(Ref(1, 1)); len(keys) != 1 {
				t.Fatalf("invalidation does not find the fill's edge: %v", keys)
			}
			if !ix.AnyInvalid([]string{Ref(1, 1)}) && ix.Epoch() == epoch {
				t.Fatal("a later fill does not see the invalidation")
			}
		})
	}
}

func TestTombstonesExpire(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := newTestIndex(0, time.Second, fake)
	ix.MarkInvalid("r")
	fake.Advance(tombstoneTTL + time.Second)
	if ix.AnyInvalid([]string{"r"}) {
		t.Fatal("tombstone survived past its TTL")
	}
}

func TestEpochBumpsOnFlush(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	e0 := ix.Epoch()
	ix.BumpEpoch()
	if ix.Epoch() != e0+1 {
		t.Fatalf("epoch = %d after bump", ix.Epoch())
	}
	ix.Record("r", "k")
	ix.Flush()
	if ix.Epoch() == e0+1 {
		t.Fatal("Flush did not bump the epoch")
	}
	if keys, exact := ix.Dependents("r"); !exact || len(keys) != 0 {
		t.Fatalf("flush left edges: %v exact=%v", keys, exact)
	}
	if st := ix.Stats(); st.Bytes != 0 || st.Fragments != 0 {
		t.Fatalf("flush left bytes: %+v", st)
	}
}

// Tombstone-set overflow must fail conservative: the shard forgets its
// markers but bumps the epoch so every in-flight fill discards.
func TestTombstoneOverflowBumpsEpoch(t *testing.T) {
	ix := New(Config{Shards: 1, Horizon: time.Minute})
	e0 := ix.Epoch()
	for i := 0; i <= maxTombstones; i++ {
		ix.MarkInvalid(fmt.Sprintf("ref-%d", i))
	}
	if ix.Epoch() == e0 {
		t.Fatal("overflowing the tombstone set did not bump the epoch")
	}
}

func TestConcurrentRecordInvalidateLookup(t *testing.T) {
	ix := newTestIndex(16<<10, time.Minute, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ref := Ref(uint32(i%37), uint32(w))
				ix.Record(ref, fmt.Sprintf("page-%d", i%11))
				ix.MarkInvalid(Ref(uint32(i%37), uint32(w^1)))
				ix.Dependents(ref)
				ix.AnyInvalid([]string{ref})
			}
		}(w)
	}
	wg.Wait()
	if st := ix.Stats(); st.Bytes > 16<<10 {
		t.Fatalf("index settled over budget: %+v", st)
	}
}

func BenchmarkRecordDependents(b *testing.B) {
	ix := New(Config{ByteBudget: 1 << 20, Horizon: time.Minute})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ref := Ref(uint32(i%512), 1)
			ix.Record(ref, "GET\x00/page/synth?page=0\x00")
			if i%8 == 0 {
				ix.Dependents(ref)
			}
			i++
		}
	})
}

// The conservative window must cover hits too: a fragment evicted and
// then re-recorded holds only its post-eviction edges, so trusting the
// hit would silently forget the pre-eviction dependents.
func TestEvictionWindowQualifiesHits(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	ix := New(Config{Shards: 1, ByteBudget: 300, Horizon: hz, Clock: fake})
	ix.Record("victim", "pre-eviction-page-with-a-long-key")
	for i := 0; i < 8; i++ {
		ix.Record(Ref(uint32(i), 1), "filler-page-with-a-rather-long-key")
	}
	if ix.Stats().Evictions == 0 {
		t.Fatal("test setup: no evictions occurred")
	}
	// Re-record the (possibly evicted) fragment: the hit must still be
	// answered conservatively inside the window.
	ix.Record("victim", "post-eviction-page")
	if _, exact := ix.Dependents("victim"); exact {
		t.Fatal("hit inside the eviction window claimed to be exact")
	}
	fake.Advance(hz + time.Second)
	ix.Record("victim", "post-window-page")
	if keys, exact := ix.Dependents("victim"); !exact || len(keys) == 0 {
		t.Fatalf("post-window hit = %v, exact=%v", keys, exact)
	}
}
