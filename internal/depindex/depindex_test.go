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

// file records one edge as a filler does, File then Shed, and returns the
// keys the shed handed back.
func file(ix *Index, id ID, key string) (dropped []string) {
	ix.File([]ID{id}, key, ix.hz)
	ix.Shed(func(k string) { dropped = append(dropped, k) })
	return dropped
}

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

	keys := ix.Lookup(MakeID(1, 1))
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"pageA", "pageB"}) {
		t.Fatalf("Lookup(1:1) = %v", keys)
	}
	// A lookup must not consume what it returns.
	if again := ix.Lookup(MakeID(1, 1)); len(again) != 2 {
		t.Fatalf("second Lookup(1:1) = %v", again)
	}
	if keys = ix.Lookup(MakeID(2, 1)); len(keys) != 1 || keys[0] != "pageA" {
		t.Fatalf("Lookup(2:1) = %v", keys)
	}
	if keys = ix.Lookup(MakeID(9, 9)); keys != nil {
		t.Fatalf("Lookup(9:9) = %v, want empty", keys)
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
	if keys := ix.Lookup(7); len(keys) != 1 {
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
	if keys := ix.Lookup(7); len(keys) != 1 {
		t.Fatal("edge expired before the horizon")
	}
	fake.Advance(2 * time.Second)
	if keys := ix.Lookup(7); len(keys) != 0 {
		t.Fatalf("expired edge survived: %v", keys)
	}
	if st := ix.Stats(); st.Fragments != 0 || st.Bytes != 0 {
		t.Fatalf("expired fragment not reclaimed: %+v", st)
	}
}

// Over budget, a shed evicts least-recently-recorded fragments until the
// index fits and hands back exactly the unexpired keys the evicted records
// named; every record it keeps answers as before.
func TestShedHandsBackLiveKeys(t *testing.T) {
	const budget = 1024
	ix := newTestIndex(budget, time.Minute, nil)
	// Page p is composed of fragments p and p+1: most fragments sit on two
	// pages, so a record's keys outnumber its fragment.
	const pages = 40
	for p := uint32(0); p < pages; p++ {
		ix.File([]ID{MakeID(p, 1), MakeID(p+1, 1)}, fmt.Sprintf("page-%02d", p), ix.hz)
	}
	before := make(map[ID][]string)
	for f := uint32(0); f <= pages; f++ {
		before[MakeID(f, 1)] = ix.Lookup(MakeID(f, 1))
	}
	var dropped []string
	ix.Shed(func(k string) { dropped = append(dropped, k) })

	st := ix.Stats()
	if st.Bytes > budget {
		t.Fatalf("shed left the index over budget: %+v", st)
	}
	var want []string
	evicted := 0
	for id, keys := range before {
		after := ix.Lookup(id)
		if after == nil {
			want = append(want, keys...)
			evicted++
			continue
		}
		slices.Sort(keys)
		slices.Sort(after)
		if !slices.Equal(keys, after) {
			t.Fatalf("kept record %d answers %v, %v before the shed", id, after, keys)
		}
	}
	slices.Sort(want)
	slices.Sort(dropped)
	if evicted == 0 || !slices.Equal(dropped, want) {
		t.Fatalf("%d records shed, handed back %v, want %v", evicted, dropped, want)
	}
	if st.Evictions != int64(evicted) {
		t.Fatalf("evictions = %d, %d records shed", st.Evictions, evicted)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A fragment shed and then filed again answers exactly its new edges: the
// page its old record named was handed back when the record went.
func TestShedThenRefileAnswersExactly(t *testing.T) {
	const room = 4 // fragments the budget holds, each on a page of its own
	ix := New(Config{Shards: 1, ByteBudget: room * (entryCost + keyCost + 8), Horizon: time.Minute})
	victim := MakeID(99, 1)
	file(ix, victim, "page-old")
	var dropped []string
	for i := 0; i < room; i++ {
		dropped = append(dropped, file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))...)
	}
	if !slices.Equal(dropped, []string{"page-old"}) {
		t.Fatalf("shedding the victim handed back %v, want its one page", dropped)
	}
	file(ix, victim, "page-new")
	if keys := ix.Lookup(victim); !slices.Equal(keys, []string{"page-new"}) {
		t.Fatalf("Lookup(victim) = %v after refiling", keys)
	}
}

// A victim whose edges have all expired names no page the tier still
// holds: shedding it hands back nothing and counts no eviction.
func TestShedExpiredVictimHandsBackNothing(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	const hz = 10 * time.Second
	const room = 4
	ix := New(Config{Shards: 1, ByteBudget: room * (entryCost + keyCost + 8), Horizon: hz, Clock: fake})
	for i := 0; i < room; i++ {
		file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))
	}
	fake.Advance(hz + time.Second)
	for i := room; i < 2*room; i++ {
		if dropped := file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i)); len(dropped) != 0 {
			t.Fatalf("shedding expired victims handed back %v", dropped)
		}
	}
	if st := ix.Stats(); st.Fragments != room || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want the expired fragments displaced silently", st)
	}
}

// A shed takes Filing exclusively: it waits for a fill in progress, so the
// fill's Put is in the tier before the shed hands its page back.
func TestShedWaitsForFills(t *testing.T) {
	ix := New(Config{Shards: 1, ByteBudget: entryCost + keyCost + 8, Horizon: time.Minute})
	file(ix, MakeID(1, 1), "page-001")
	filing := ix.Filing()
	filing.Lock()
	ix.File([]ID{MakeID(2, 1)}, "page-002", ix.hz)
	shed := make(chan []string)
	go func() {
		var dropped []string
		ix.Shed(func(k string) { dropped = append(dropped, k) })
		shed <- dropped
	}()
	select {
	case <-shed:
		t.Fatal("shed ran in the middle of a fill")
	case <-time.After(20 * time.Millisecond):
	}
	filing.Unlock()
	if dropped := <-shed; !slices.Equal(dropped, []string{"page-001"}) {
		t.Fatalf("shed handed back %v, want the older page", dropped)
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

// A fill in progress holds Filing: an invalidation or an epoch bump waits
// for it, so an invalidation's answer holds the fill's edge, and a fill
// that starts after a bump sees the new epoch.
func TestFilingOrdersFillsAgainstInvalidations(t *testing.T) {
	ref := MakeID(1, 1)
	for name, tc := range map[string]struct {
		invalidate func(*Index) []string
		// answer is what the invalidation returns, after what Lookup
		// finds once it has applied.
		answer, after []string
	}{
		"invalidate": {func(ix *Index) []string { return ix.Invalidate(ref) }, []string{"page"}, nil},
		"epoch":      {func(ix *Index) []string { ix.BumpEpoch("test"); return nil }, nil, []string{"page"}},
	} {
		t.Run(name, func(t *testing.T) {
			ix := newTestIndex(0, time.Minute, nil)
			epoch := ix.Epoch()
			filing := ix.Filing()
			filing.Lock()
			applied := make(chan []string, 1)
			go func() { applied <- tc.invalidate(ix) }()
			select {
			case <-applied:
				t.Fatal("invalidation applied in the middle of a fill")
			case <-time.After(20 * time.Millisecond):
			}
			if ix.Epoch() != epoch {
				t.Fatal("fill in progress already sees the bump")
			}
			file(ix, ref, "page")
			filing.Unlock()
			if keys := <-applied; !slices.Equal(keys, tc.answer) {
				t.Fatalf("invalidation answered %v, want %v", keys, tc.answer)
			}
			if keys := ix.Lookup(ref); !slices.Equal(keys, tc.after) {
				t.Fatalf("Lookup after the invalidation = %v, want %v", keys, tc.after)
			}
			if bumped := ix.Epoch() != epoch; bumped != (name == "epoch") {
				t.Fatalf("epoch moved: %v", bumped)
			}
		})
	}
}

// Invalidate answers a generation's dependents and forgets them in one
// step: the record's bytes are released at once, and a later shed hands
// back none of its keys.
func TestInvalidateRemovesTheRecord(t *testing.T) {
	const room = 4
	ix := New(Config{Shards: 1, ByteBudget: room * (entryCost + keyCost + 8), Horizon: time.Minute})
	dead := MakeID(99, 1)
	file(ix, dead, "page-dead")
	file(ix, MakeID(1, 1), "page-001")
	if keys := ix.Invalidate(dead); !slices.Equal(keys, []string{"page-dead"}) {
		t.Fatalf("Invalidate = %v", keys)
	}
	if keys := ix.Lookup(dead); len(keys) != 0 {
		t.Fatalf("Lookup after Invalidate = %v", keys)
	}
	if st, want := ix.Stats(), int64(entryCost+keyCost+len("page-001")); st.Fragments != 1 || st.Bytes != want {
		t.Fatalf("stats = %+v, want one fragment in %d bytes", st, want)
	}
	var dropped []string
	for i := 2; i < 2+2*room; i++ {
		dropped = append(dropped, file(ix, MakeID(uint32(i), 1), fmt.Sprintf("page-%03d", i))...)
	}
	if !slices.Contains(dropped, "page-001") || slices.Contains(dropped, "page-dead") {
		t.Fatalf("sheds handed back %v: want page-001, and never the invalidated page", dropped)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochBumpsOnFlush(t *testing.T) {
	ix := newTestIndex(0, time.Minute, nil)
	e0 := ix.Epoch()
	if ix.BumpCause() != "" {
		t.Fatalf("fresh index names a bump cause: %q", ix.BumpCause())
	}
	file(ix, 7, "k")
	ix.BumpEpoch("gap")
	if ix.Epoch() != e0+1 || ix.BumpCause() != "gap" {
		t.Fatalf("epoch = %d, cause = %q after bump", ix.Epoch(), ix.BumpCause())
	}
	// A bump refuses the fills in flight; the edges filed before it stay.
	if keys := ix.Lookup(7); len(keys) != 1 {
		t.Fatalf("bump dropped edges: %v", keys)
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
				ix.Shed(func(string) {})
				ix.Invalidate(MakeID(uint32(i%37), uint32(w^1)))
				ix.Lookup(ref)
				if i%100 == 99 {
					ix.BumpEpoch("test")
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
		byString := ix.Dependents(Ref(k, g))
		byInteger := ix.Lookup(MakeID(k, g))
		slices.Sort(byString)
		slices.Sort(byInteger)
		if !slices.Equal(byString, []string{"via-integer", "via-string"}) || !slices.Equal(byString, byInteger) {
			t.Fatalf("%d:%d: Dependents = %v, Lookup = %v", k, g, byString, byInteger)
		}
	}
	before := ix.Stats()
	for _, bad := range []string{"", "7", "7:", ":3", "a:b", "7:3:1", "-1:2", "4294967296:1"} {
		ix.Record(bad, "page")
		if keys := ix.Dependents(bad); keys != nil {
			t.Fatalf("Dependents(%q) = %v", bad, keys)
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
