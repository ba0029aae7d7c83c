package fragstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/diskstore"
)

// The tests in this file force the interleavings at the tier boundary that
// a scheduler produces once in a long while. One side of each race runs as
// the real call; the other is held open by hand — an eviction registered as
// evict registers its own, its write issued with the calls evict makes,
// finished with exitTransit; a lookup as the consult, disk Read and promote
// that lookup strings together — so the order of the steps is fixed.

func newTransitStore(t *testing.T, ramBudget int64) *TieredKeyed {
	t.Helper()
	ts, err := NewTieredKeyed(TieredConfig{
		RAM:  KeyedConfig{Shards: 1, ByteBudget: ramBudget},
		Disk: diskstore.Config{Path: filepath.Join(t.TempDir(), "transit.heap"), PageBytes: diskstore.MinPageBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// beginEvict is the first half of evict: the crossing registered, the entry
// out of RAM and published as the victim, nothing written yet.
func beginEvict(t *testing.T, ts *TieredKeyed, key string, e KeyedEntry) *transit {
	t.Helper()
	ts.mu.Lock()
	f, suspect := ts.registerLocked(key, mover)
	ts.ram.evictKey(key)
	f.held, f.victim = true, victim{e: e}
	ts.mu.Unlock()
	if suspect {
		t.Fatal("a lone eviction entered suspect")
	}
	return f
}

// beginLookup is the first half of a lookup that missed RAM: the transit
// table consulted, the disk tier read, nothing promoted yet.
func beginLookup(t *testing.T, ts *TieredKeyed, key string) (e diskstore.Entry, writes uint64) {
	t.Helper()
	suspect, held, _, writes := ts.consult(key)
	e, _, ok := ts.disk.Read(key, uint64(ts.ram.Len()), false)
	if suspect || held || !ok {
		t.Fatalf("setup: suspect=%v held=%v ok=%v", suspect, held, ok)
	}
	return e, writes
}

// finishLookup is the second half, the entry having earned its promotion.
func finishLookup(ts *TieredKeyed, key string, e diskstore.Entry, writes uint64) bool {
	return ts.promote(key, fromDisk(e), e.Deadline, writes)
}

func entryOf(s string) KeyedEntry { return KeyedEntry{Value: []byte(s)} }

func mustGet(t *testing.T, ts *TieredKeyed, key, want string) {
	t.Helper()
	e, ok := ts.Get(key)
	if !ok || string(e.Value) != want {
		t.Fatalf("Get(%q) = %q, %v; want %q", key, e.Value, ok, want)
	}
}

// evictAll pushes every resident entry out of a 16-byte RAM tier.
func evictAll(ts *TieredKeyed) {
	ts.Put("pad1", entryOf("11111111"), 0)
	ts.Put("pad2", entryOf("22222222"), 0)
}

// TestTieredPutSupersedesDemotionInFlight: thread A has evicted k's old
// version from RAM and is about to write it; thread B's Put(k, new) runs to
// completion — its disk Delete finds nothing — and only then does A's write
// land. The old bytes must not stay on disk: the next clean eviction of the
// new version would trust them.
func TestTieredPutSupersedesDemotionInFlight(t *testing.T) {
	ts := newTransitStore(t, 16)
	old := entryOf("old-old-")
	ts.Put("k", old, 0)
	f := beginEvict(t, ts, "k", old)    // A: registered, not yet written
	ts.Put("k", entryOf("new-new-"), 0) // B
	ts.writeDisk("k", old, time.Time{}) // A's write lands after B's Delete
	ts.exitTransit("k", f, mover, true)

	if e, ok := ts.disk.Peek("k"); ok {
		t.Fatalf("disk tier holds %q after the demoter exited; the Put superseded it", e.Value)
	}
	mustGet(t, ts, "k", "new-new-") // B's RAM entry survives the clean-up
	evictAll(ts)
	mustGet(t, ts, "k", "new-new-") // and is what a later eviction wrote
	if n := len(ts.transit); n != 0 {
		t.Fatalf("%d crossings left registered", n)
	}
}

// TestTieredEvictionDuringPutIsDropped is the same race with A arriving
// second: B's Put is in flight (its disk Delete done, its RAM store not)
// when A evicts the old version. A must not write it.
func TestTieredEvictionDuringPutIsDropped(t *testing.T) {
	ts := newTransitStore(t, 16)
	ts.Put("k", entryOf("old-old-"), 0)
	f, _ := ts.enterTransit("k", writer) // B
	ts.disk.Delete("k")
	if out := ts.evict("k"); out != demoteDropped { // A
		t.Fatalf("eviction during a Put of the same key: outcome %d, want dropped", out)
	}
	ts.ram.store("k", entryOf("new-new-"), 0)
	ts.exitTransit("k", f, writer, false)

	if e, ok := ts.disk.Peek("k"); ok {
		t.Fatalf("disk tier holds %q", e.Value)
	}
	evictAll(ts)
	mustGet(t, ts, "k", "new-new-")
}

// TestTieredPutSupersedesPromotionInFlight: a Get has read k's old version
// from disk and not yet inserted it into RAM when a Put stores a new one.
func TestTieredPutSupersedesPromotionInFlight(t *testing.T) {
	setup := func(t *testing.T) (*TieredKeyed, diskstore.Entry, uint64) {
		ts := newTransitStore(t, 16)
		ts.Put("k", entryOf("old-old-"), 0)
		evictAll(ts) // k → disk only
		e, writes := beginLookup(t, ts, "k")
		return ts, e, writes
	}
	t.Run("new version still in RAM", func(t *testing.T) {
		ts, e, writes := setup(t)
		ts.Put("k", entryOf("new-new-"), 0)
		if finishLookup(ts, "k", e, writes) {
			t.Fatal("promotion replaced the entry a Put stored meanwhile")
		}
		mustGet(t, ts, "k", "new-new-")
		evictAll(ts)
		mustGet(t, ts, "k", "new-new-")
	})
	t.Run("new version already evicted", func(t *testing.T) {
		// The Put's entry has left RAM again, for the disk tier, by the time
		// the promotion would insert. It must not: RAM would serve the older
		// copy over the newer one on disk for as long as it stayed.
		ts, e, writes := setup(t)
		ts.Put("k", entryOf("new-new-"), 0)
		evictAll(ts)
		if finishLookup(ts, "k", e, writes) {
			t.Fatal("a promotion inserted the copy it read before the Put")
		}
		mustGet(t, ts, "k", "new-new-")
	})
	t.Run("put after the promotion inserted", func(t *testing.T) {
		ts, e, writes := setup(t)
		if !finishLookup(ts, "k", e, writes) {
			t.Fatal("setup: promotion did not insert")
		}
		ts.Put("k", entryOf("new-new-"), 0)
		mustGet(t, ts, "k", "new-new-")
		evictAll(ts)
		mustGet(t, ts, "k", "new-new-") // the older version is in neither tier
	})
	t.Run("delete and bulk invalidation", func(t *testing.T) {
		for name, remove := range map[string]func(*TieredKeyed){
			"Delete":     func(ts *TieredKeyed) { ts.Delete("k") },
			"DeleteFunc": func(ts *TieredKeyed) { ts.DeleteFunc(func(k string) bool { return k == "k" }) },
			"Flush":      func(ts *TieredKeyed) { ts.Flush() },
		} {
			ts, e, writes := setup(t)
			remove(ts)
			if finishLookup(ts, "k", e, writes) {
				t.Fatalf("a promotion put back what %s removed", name)
			}
			if e, ok := ts.Get("k"); ok {
				t.Fatalf("Get(k) = %q after %s returned", e.Value, name)
			}
		}
	})
}

// TestTieredPromotionYieldsToEvictionInFlight: promoter A has read k from
// disk; B's earlier copy of k is being evicted by E, which has unlinked it
// and not yet cleared the twin flag. If A inserted now, E's clearing would
// land last: RAM holding k, the flag saying it does not (disk_twinned one
// short, Len and Bytes one over, for as long as k stayed). A must not.
func TestTieredPromotionYieldsToEvictionInFlight(t *testing.T) {
	ts := newTransitStore(t, 16)
	ts.Put("k", entryOf("kkkkkkkk"), 0)
	evictAll(ts)                         // k → disk only
	e, writes := beginLookup(t, ts, "k") // A
	mustGet(t, ts, "k", "kkkkkkkk")      // B: k's second touch, promoted
	if st := ts.TierStats(); st.Promotions != 1 || st.Disk.Twinned != 1 {
		t.Fatalf("setup: B did not promote k: %+v", st)
	}
	f := beginEvict(t, ts, "k", entryOf("kkkkkkkk")) // E: unlinked, flag not yet cleared
	if finishLookup(ts, "k", e, writes) {
		t.Fatal("a promotion inserted k while an eviction of k was in flight")
	}
	if !ts.disk.Twin("k", false) {
		t.Fatal("the disk tier lost k")
	}
	ts.exitTransit("k", f, mover, true)
	if st := ts.TierStats(); st.Disk.Twinned != 0 || st.RAM.Resident != 1 || ts.Len() != 3 {
		t.Fatalf("twin flag and RAM tier disagree about k: %+v (Len %d)", st, ts.Len())
	}
}

// TestTieredBulkInvalidationOutlivesNoEviction: a DeleteFunc is under way —
// past the point where it marks the crossings in flight — when an eviction
// of a matching key registers and unlinks its victim from RAM, so the RAM
// sweep does not see it; the disk sweep finds nothing either, the disk
// tier having never held the key; and only then does the eviction write.
// The invalidated bytes must not be on disk, to be served by the next read,
// once both have returned.
func TestTieredBulkInvalidationOutlivesNoEviction(t *testing.T) {
	ts, err := NewTieredKeyed(TieredConfig{
		RAM:  KeyedConfig{Shards: 2, ByteBudget: 64},
		Disk: diskstore.Config{Path: filepath.Join(t.TempDir(), "bulk.heap"), PageBytes: diskstore.MinPageBytes},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	// hook is a key of the shard the sweep visits first and victim one of the
	// shard it visits second: the predicate's call for hook, made under the
	// first shard's lock, is where the eviction of victim begins.
	var hook, victimKey string
	for i := 0; hook == "" || victimKey == ""; i++ {
		switch key := fmt.Sprintf("page/%d", i); ts.ram.locate(key) {
		case &ts.ram.shards[0]:
			hook = key
		case &ts.ram.shards[1]:
			victimKey = key
		}
	}
	doomed := entryOf("doomed--")
	ts.Put(hook, entryOf("hook----"), 0)
	ts.Put(victimKey, doomed, 0)
	var f *transit
	var published bool
	ts.DeleteFunc(func(key string) bool {
		if key == hook && f == nil {
			// evict's critical section, by hand.
			ts.mu.Lock()
			var suspect bool
			f, suspect = ts.registerLocked(victimKey, mover)
			_, ok := ts.ram.evictKey(victimKey)
			if published = ok && !suspect; published {
				f.held, f.victim = true, victim{e: doomed}
			}
			ts.mu.Unlock()
		}
		return strings.HasPrefix(key, "page/")
	})
	if f == nil {
		t.Fatal("setup: the sweep never asked about the hook key")
	}
	// Both sweeps have passed. The rest of evict:
	if published && !ts.disk.Twin(victimKey, false) {
		ts.writeDisk(victimKey, doomed, time.Time{})
	}
	ts.exitTransit(victimKey, f, mover, published)

	if e, ok := ts.disk.Peek(victimKey); ok {
		t.Fatalf("the disk tier holds %q, which the DeleteFunc invalidated", e.Value)
	}
	if e, ok := ts.Get(victimKey); ok {
		t.Fatalf("Get(%s) = %q after the DeleteFunc returned", victimKey, e.Value)
	}
	if n := len(ts.transit) + len(ts.bulks); n != 0 {
		t.Fatalf("%d crossings left registered", n)
	}
}

// TestTieredLookupServesDemotionInFlight: between the RAM tier unlinking a
// victim the disk has never seen and the disk write returning, the key is
// in neither tier. A Get in that window is served from the crossing.
func TestTieredLookupServesDemotionInFlight(t *testing.T) {
	ts := newTransitStore(t, 16)
	ts.Put("k", entryOf("victim--"), 0)
	f := beginEvict(t, ts, "k", entryOf("victim--"))
	before := ts.Stats()
	mustGet(t, ts, "k", "victim--")
	if e, ok := ts.GetKeep("k"); !ok || string(e.Value) != "victim--" {
		t.Fatalf("GetKeep in the window: %q, %v", e.Value, ok)
	}
	if st := ts.Stats(); st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Fatalf("window reads not counted as hits: %+v → %+v", before, st)
	}
	ts.writeDisk("k", entryOf("victim--"), time.Time{})
	ts.exitTransit("k", f, mover, true)
	mustGet(t, ts, "k", "victim--") // now a disk hit
	if st := ts.TierStats(); st.DiskHits != 1 {
		t.Fatalf("after the crossing the disk tier serves: %+v", st)
	}

	// A Delete in the window wins over the victim in flight.
	ts.Put("d", entryOf("doomed--"), 0)
	f = beginEvict(t, ts, "d", entryOf("doomed--"))
	ts.Delete("d")
	if e, ok := ts.Get("d"); ok {
		t.Fatalf("Get(d) = %q from a crossing a Delete overlapped", e.Value)
	}
	ts.writeDisk("d", entryOf("doomed--"), time.Time{})
	ts.exitTransit("d", f, mover, true)
	if _, ok := ts.Get("d"); ok {
		t.Fatal("deleted key resurfaced from the tier boundary")
	}
}

// TestTieredNeverServesOlderThanCompletedPut runs the races for real. Each
// key has one writer storing increasing versions and publishing the last
// one whose Put has returned; readers must never see an older one. The RAM
// tier holds two entries, so nearly every operation crosses the boundary.
func TestTieredNeverServesOlderThanCompletedPut(t *testing.T) {
	const (
		keys    = 4
		readers = 4
		rounds  = 400
	)
	ts := newTransitStore(t, 16)
	var done [keys]atomic.Uint64 // highest version whose Put has returned
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", k)
			for v := uint64(1); v <= rounds; v++ {
				ts.Put(key, KeyedEntry{Value: binary.BigEndian.AppendUint64(nil, v), Gen: uint32(v)}, 0)
				done[k].Store(v)
			}
		}(k)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				floor := done[k].Load()
				e, ok := ts.Get(fmt.Sprintf("k%d", k))
				if !ok {
					continue
				}
				if got := binary.BigEndian.Uint64(e.Value); got < floor || uint32(got) != e.Gen {
					t.Errorf("k%d: served version %d (gen %d) after the Put of %d returned", k, got, e.Gen, floor)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	for k := 0; k < keys; k++ {
		if e, ok := ts.Get(fmt.Sprintf("k%d", k)); ok && binary.BigEndian.Uint64(e.Value) != rounds {
			t.Errorf("k%d settled on version %d, last Put stored %d", k, binary.BigEndian.Uint64(e.Value), rounds)
		}
	}
	if n := len(ts.transit); n != 0 {
		t.Fatalf("%d crossings left registered", n)
	}
}
