package depindex

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dpcache/internal/clock"
)

func newTestIndex(budget int64, hz time.Duration, clk clock.Clock) *Index {
	return New(Config{Shards: 4, ByteBudget: budget, Horizon: hz, Clock: clk})
}

// file records one edge.
func file(ix *Index, id ID, key string) { ix.File([]ID{id}, key, ix.hz) }

func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 32 {
		t.Fatalf("entry is %d bytes, the cost constants assume 32", n)
	}
	if n := unsafe.Sizeof(overflow{}); n != overflowCost {
		t.Fatalf("overflow record is %d bytes, charged %d", n, overflowCost)
	}
	if n := unsafe.Sizeof(keyRec{}); n != 24 {
		t.Fatalf("key record is %d bytes, keyCost assumes 24", n)
	}
}

func TestFileAndLookup(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	ix.File([]ID{MakeID(1, 1), MakeID(2, 1)}, "pageA", ix.hz)
	file(ix, MakeID(1, 1), "pageB")

	keys, exact := ix.Lookup(MakeID(1, 1))
	slices.Sort(keys)
	if !exact || !slices.Equal(keys, []string{"pageA", "pageB"}) {
		t.Fatalf("Lookup(1:1) = %v, exact=%v", keys, exact)
	}
	// Every tier's subscriber asks about the same event: a lookup must not
	// consume what it returns.
	if again, _ := ix.Lookup(MakeID(1, 1)); len(again) != 2 {
		t.Fatalf("second Lookup(1:1) = %v", again)
	}
	keys, exact = ix.Lookup(MakeID(2, 1))
	if !exact || len(keys) != 1 || keys[0] != "pageA" {
		t.Fatalf("Lookup(2:1) = %v, exact=%v", keys, exact)
	}
	// A never-recorded fragment is an authoritative empty answer as long
	// as nothing has been evicted.
	keys, exact = ix.Lookup(MakeID(9, 9))
	if !exact || keys != nil {
		t.Fatalf("Lookup(9:9) = %v, exact=%v, want exact empty", keys, exact)
	}
	if st := ix.Stats(); st.Fragments != 2 || st.Edges != 3 || st.Keys != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEdgesNotDoubleCounted(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	file(ix, 7, "k")
	b1 := ix.Stats().Bytes
	file(ix, 7, "k")
	if b2 := ix.Stats().Bytes; b2 != b1 {
		t.Fatalf("duplicate edge grew bytes %d → %d", b1, b2)
	}
	if keys, _ := ix.Lookup(7); len(keys) != 1 {
		t.Fatalf("keys = %v", keys)
	}
}

// The key's bytes are stored and charged once, however many fragments
// point at it, and leave with the last edge.
func TestKeysInternedOncePerIndex(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := newTestIndex(0, 10*time.Second, fake)
	key := "GET\x00/page/synth?page=7\x00a-rather-long-variant-header-suffix"
	ids := make([]ID, 12)
	for i := range ids {
		ids[i] = MakeID(uint32(i), 1)
	}
	ix.File(ids, key, ix.hz)
	st := ix.Stats()
	if want := int64(12*entryCost + len(key) + keyCost); st.Keys != 1 || st.Bytes != want {
		t.Fatalf("stats = %+v, want 1 key and %d bytes", st, want)
	}
	fake.Advance(11 * time.Second)
	for _, id := range ids {
		ix.Lookup(id)
	}
	if st := ix.Stats(); st.Keys != 0 || st.Bytes != 0 || st.Fragments != 0 {
		t.Fatalf("expired edges left the key behind: %+v", st)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Edges expire after the horizon: the entries they describe are
// TTL-bounded, so the index must not outremember the tiers.
func TestEdgesExpireAfterHorizon(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := newTestIndex(0, 10*time.Second, fake)
	file(ix, 7, "k")
	fake.Advance(9 * time.Second)
	if keys, _ := ix.Lookup(7); len(keys) != 1 {
		t.Fatal("edge expired before the horizon")
	}
	fake.Advance(2 * time.Second)
	keys, exact := ix.Lookup(7)
	if !exact || len(keys) != 0 {
		t.Fatalf("expired edge survived: %v, exact=%v", keys, exact)
	}
	if st := ix.Stats(); st.Fragments != 0 || st.Bytes != 0 {
		t.Fatalf("expired fragment not reclaimed: %+v", st)
	}
}

// Eviction under byte pressure must make misses conservative (exact =
// false) until the lost edges would have expired, then heal: after that
// every described entry has expired anyway, so an authoritative empty
// answer is sound again.
func TestEvictionFallbackWindowHeals(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	ix := newTestIndex(512, hz, fake)
	for i := 0; i < 64; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%d-with-a-long-key", i))
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
		if _, exact := ix.Lookup(MakeID(uint32(i), 1)); !exact {
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
	if _, exact := ix.Lookup(MakeID(999, 1)); !exact {
		t.Fatal("conservative window never healed")
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The conservative window must cover hits too: a fragment evicted and
// then re-recorded holds only its post-eviction edges, so trusting the
// hit would silently forget the pre-eviction dependents.
func TestEvictionWindowQualifiesHits(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	ix := New(Config{Shards: 1, ByteBudget: 400, Horizon: hz, Clock: fake})
	const victim = ID(1 << 40)
	file(ix, victim, "pre-eviction-page-with-a-long-key")
	for i := 0; i < 8; i++ {
		file(ix, MakeID(uint32(i), 1), "filler-page-with-a-rather-long-key")
	}
	if ix.Stats().Evictions == 0 {
		t.Fatal("test setup: no evictions occurred")
	}
	// Re-record the evicted fragment: the hit must still be answered
	// conservatively inside the window.
	file(ix, victim, "post-eviction-page")
	if _, exact := ix.Lookup(victim); exact {
		t.Fatal("hit inside the eviction window claimed to be exact")
	}
	fake.Advance(hz + time.Second)
	file(ix, victim, "post-window-page")
	if keys, exact := ix.Lookup(victim); !exact || len(keys) == 0 {
		t.Fatalf("post-window hit = %v, exact=%v", keys, exact)
	}
}

// An eviction that loses nothing opens no window: the victim's edges had
// all expired, so no answer the shard gives afterwards can be missing one.
func TestExpiredVictimOpensNoWindow(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	const room = 4 // fragments the budget holds, each on a page of its own
	ix := New(Config{Shards: 1, ByteBudget: room * (entryCost + keyCost + 8), Horizon: hz, Clock: fake})
	for i := 0; i < room; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))
	}
	fake.Advance(hz + time.Second)
	for i := room; i < 2*room; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))
	}
	st := ix.Stats()
	if st.Fragments != room || st.Bytes > room*(entryCost+keyCost+8) {
		t.Fatalf("test setup: the old fragments were not displaced: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("%d reclaimed fragments counted as lossy evictions", st.Evictions)
	}
	for i := 0; i < 2*room; i++ {
		if _, exact := ix.Lookup(MakeID(uint32(i), 1)); !exact {
			t.Fatalf("Lookup(%d:1) inexact after an eviction that lost nothing", i)
		}
	}
}

// A dead generation does not wait out a Horizon: when its tombstone is
// retired its entry goes too, silently, and until then it is there for
// every subscriber's lookup.
func TestDeadGenerationReclaimedWithTombstone(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := New(Config{Shards: 1, Horizon: 10 * time.Minute, Clock: fake})
	dead, revived := MakeID(1, 1), MakeID(2, 1)
	file(ix, dead, "page-1")
	file(ix, revived, "page-2")
	ix.MarkInvalid(dead)
	ix.MarkInvalid(revived)
	for sub := 0; sub < 2; sub++ {
		if keys, exact := ix.Lookup(dead); !exact || len(keys) != 1 {
			t.Fatalf("subscriber %d: Lookup(dead) = %v, exact=%v", sub, keys, exact)
		}
	}
	// An edge recorded after the mark is not the dead generation's.
	file(ix, revived, "page-3")

	fake.Advance(tombstoneTTL + time.Second)
	ix.MarkInvalid(MakeID(3, 1)) // any mark on the shard runs the sweep
	st := ix.Stats()
	if st.Fragments != 1 || st.Tombstones != 1 {
		t.Fatalf("after the sweep: %+v, want the revived fragment and the new tombstone", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("sweep counted %d evictions", st.Evictions)
	}
	if keys, exact := ix.Lookup(dead); !exact || len(keys) != 0 {
		t.Fatalf("Lookup(dead) after the sweep = %v, exact=%v", keys, exact)
	}
	if keys, exact := ix.Lookup(revived); !exact || len(keys) != 2 {
		t.Fatalf("Lookup(revived) = %v, exact=%v", keys, exact)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Under pressure a dead generation whose tombstone has run out is a victim
// like any other, except that losing it opens no window.
func TestSettledDeadVictimOpensNoWindow(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const room = 4
	ix := New(Config{Shards: 1, ByteBudget: room * (entryCost + keyCost + 8), Horizon: 10 * time.Minute, Clock: fake})
	for i := 0; i < room; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))
		ix.MarkInvalid(MakeID(uint32(i), 1))
	}
	fake.Advance(tombstoneTTL + time.Second)
	for i := room; i < 2*room; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))
	}
	if st := ix.Stats(); st.Evictions != 0 || st.Fragments != room {
		t.Fatalf("stats = %+v, want the dead generations displaced silently", st)
	}
	if _, exact := ix.Lookup(MakeID(99, 1)); !exact {
		t.Fatal("losing a settled dead generation opened the conservative window")
	}
}

// Victims come from one shard after the next: a burst of evictions must
// not drain (and blind) shard 0 while the others keep older fragments.
func TestEvictionRotatesAcrossShards(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const perShard, shards = 8, 4
	ix := New(Config{Shards: shards, ByteBudget: perShard * shards * (entryCost + keyCost + 8), Horizon: time.Minute, Clock: fake})
	var held [shards]int
	next := uint32(0)
	// fill files fragments that land on shards still short of want.
	fill := func(want int) {
		for done := false; !done; next++ {
			id := MakeID(next, 1)
			if sh := mix(id) & ix.mask; held[sh] < want {
				held[sh]++
				file(ix, id, fmt.Sprintf("page-%03d", next))
			}
			done = true
			for _, n := range held {
				done = done && n >= want
			}
		}
	}
	fill(perShard)
	if st := ix.Stats(); st.Evictions != 0 || st.Fragments != perShard*shards {
		t.Fatalf("test setup: %+v", st)
	}
	// Eight more, two per shard: eight evictions.
	fill(perShard + 2)
	if st := ix.Stats(); st.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", st.Evictions)
	}
	for i := range ix.shards {
		if live := ix.shards[i].live; live != perShard {
			t.Fatalf("shard %d holds %d fragments after 8 evictions, want %d on every shard", i, live, perShard)
		}
	}
}

func TestTombstones(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	if ix.AnyInvalid([]ID{1, 2}) {
		t.Fatal("empty index reported invalid refs")
	}
	ix.MarkInvalid(2)
	if !ix.AnyInvalid([]ID{1, 2}) {
		t.Fatal("marked ref not reported")
	}
	if ix.AnyInvalid([]ID{1}) {
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
	ref := MakeID(1, 1)
	for name, invalidate := range map[string]func(*Index){
		"tombstone": func(ix *Index) { ix.MarkInvalid(ref) },
		"epoch":     func(ix *Index) { ix.BumpEpoch("test") },
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
			if ix.AnyInvalid([]ID{ref}) || ix.Epoch() != epoch {
				t.Fatal("fill in progress already sees the invalidation")
			}
			file(ix, ref, "page")
			filing.Unlock()
			<-applied
			if keys, _ := ix.Lookup(ref); len(keys) != 1 {
				t.Fatalf("invalidation does not find the fill's edge: %v", keys)
			}
			if !ix.AnyInvalid([]ID{ref}) && ix.Epoch() == epoch {
				t.Fatal("a later fill does not see the invalidation")
			}
		})
	}
}

func TestTombstonesExpire(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	ix := newTestIndex(0, time.Second, fake)
	ix.MarkInvalid(7)
	fake.Advance(tombstoneTTL - time.Second)
	if !ix.AnyInvalid([]ID{7}) {
		t.Fatal("tombstone expired before its TTL")
	}
	fake.Advance(2 * time.Second)
	if ix.AnyInvalid([]ID{7}) {
		t.Fatal("tombstone survived past its TTL")
	}
}

func TestEpochBumpsOnFlush(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	e0 := ix.Epoch()
	if ix.BumpCause() != "" {
		t.Fatalf("fresh index names a bump cause: %q", ix.BumpCause())
	}
	ix.BumpEpoch("gap")
	if ix.Epoch() != e0+1 || ix.BumpCause() != "gap" {
		t.Fatalf("epoch = %d, cause = %q after bump", ix.Epoch(), ix.BumpCause())
	}
	file(ix, 7, "k")
	ix.MarkInvalid(8)
	ix.Flush()
	if ix.Epoch() == e0+1 {
		t.Fatal("Flush did not bump the epoch")
	}
	if keys, exact := ix.Lookup(7); !exact || len(keys) != 0 {
		t.Fatalf("flush left edges: %v exact=%v", keys, exact)
	}
	if st := ix.Stats(); st.Bytes != 0 || st.Fragments != 0 || st.Keys != 0 || st.Tombstones != 0 {
		t.Fatalf("flush left state: %+v", st)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Tombstone-set overflow must fail conservative: the shard forgets its
// markers but bumps the epoch so every in-flight fill discards.
func TestTombstoneOverflowBumpsEpoch(t *testing.T) {
	ix := New(Config{Shards: 1, Horizon: time.Minute})
	e0 := ix.Epoch()
	for i := 0; i <= maxTombstones; i++ {
		ix.MarkInvalid(MakeID(uint32(i), 1))
	}
	if ix.Epoch() == e0 || ix.BumpCause() != "tombstone-overflow" {
		t.Fatalf("overflowing the tombstone set: epoch %d → %d, cause %q", e0, ix.Epoch(), ix.BumpCause())
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
				ref := MakeID(uint32(i%37), uint32(w))
				ids := []ID{ref, MakeID(uint32(i%5), 99)}
				ix.File(ids, fmt.Sprintf("page-%d", i%11), ix.hz)
				ix.MarkInvalid(MakeID(uint32(i%37), uint32(w^1)))
				ix.Lookup(ref)
				ix.AnyInvalid(ids)
				if i%100 == 99 {
					ix.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
	if st := ix.Stats(); st.Bytes > 16<<10 {
		t.Fatalf("index settled over budget: %+v", st)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The string entry points bench/ links parse "key:gen" and land on the
// integer path: what one records the other finds, with the same answer.
func TestStringShimsMatchIntegerPath(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	for _, tc := range [][2]uint32{{0, 0}, {7, 3}, {4096, 1 << 20}, {^uint32(0), ^uint32(0)}} {
		k, g := tc[0], tc[1]
		id, ok := parseRef(Ref(k, g))
		if !ok || id != MakeID(k, g) {
			t.Fatalf("parseRef(Ref(%d,%d)) = %d, %v", k, g, id, ok)
		}
		ix.Record(Ref(k, g), "via-string")
		file(ix, MakeID(k, g), "via-integer")
		byString, exactS := ix.Dependents(Ref(k, g))
		byInteger, exactI := ix.Lookup(MakeID(k, g))
		slices.Sort(byString)
		slices.Sort(byInteger)
		if !slices.Equal(byString, []string{"via-integer", "via-string"}) || !slices.Equal(byString, byInteger) || exactS != exactI {
			t.Fatalf("%d:%d: Dependents = %v/%v, Lookup = %v/%v", k, g, byString, exactS, byInteger, exactI)
		}
	}
	before := ix.Stats()
	for _, bad := range []string{"", "7", "7:", ":3", "a:b", "7:3:1", "-1:2", "4294967296:1"} {
		ix.Record(bad, "page")
		if keys, exact := ix.Dependents(bad); keys != nil || !exact {
			t.Fatalf("Dependents(%q) = %v, %v", bad, keys, exact)
		}
	}
	if after := ix.Stats(); after.Edges != before.Edges || after.Keys != before.Keys {
		t.Fatalf("malformed refs recorded edges: %+v → %+v", before, after)
	}
}

func BenchmarkFileLookup(b *testing.B) {
	ix := New(Config{ByteBudget: 1 << 20, Horizon: time.Minute})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		ids := make([]ID, 1)
		for pb.Next() {
			ids[0] = MakeID(uint32(i%512), 1)
			ix.File(ids, "GET\x00/page/synth?page=0\x00", ix.hz)
			if i%8 == 0 {
				ix.Lookup(ids[0])
			}
			i++
		}
	})
}
