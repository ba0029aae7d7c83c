package fragstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/diskstore"
)

// The tests in this file force the interleavings at the tier boundary that
// a scheduler produces once in a long while. One side of each race runs as
// the real call; the other is a crossing held open by hand — registered
// as evict and lookup register theirs, its write issued with the calls they
// make, finished with exitTransit — so the order of the steps is fixed.

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
func beginEvict(t *testing.T, ts *TieredKeyed, key string, e KeyedEntry) (*transit, *victim) {
	t.Helper()
	v := &victim{e: e}
	ts.mu.Lock()
	f, suspect := ts.registerLocked(key, mover)
	ts.ram.evictKey(key)
	f.victim = v
	ts.mu.Unlock()
	if suspect {
		t.Fatal("a lone eviction entered suspect")
	}
	return f, v
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
	f, v := beginEvict(t, ts, "k", old) // A: registered, not yet written
	ts.Put("k", entryOf("new-new-"), 0) // B
	ts.writeDisk("k", old, time.Time{}) // A's write lands after B's Delete
	ts.exitTransit("k", f, mover, v)

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
	f, _, _ := ts.enterTransit("k", writer) // B
	ts.disk.Delete("k")
	if out := ts.evict("k"); out != demoteDropped { // A
		t.Fatalf("eviction during a Put of the same key: outcome %d, want dropped", out)
	}
	ts.ram.store("k", entryOf("new-new-"), 0)
	ts.exitTransit("k", f, writer, nil)

	if e, ok := ts.disk.Peek("k"); ok {
		t.Fatalf("disk tier holds %q", e.Value)
	}
	evictAll(ts)
	mustGet(t, ts, "k", "new-new-")
}

// TestTieredPutSupersedesPromotionInFlight: a Get has read k's old version
// from disk and not yet inserted it into RAM when a Put stores a new one.
func TestTieredPutSupersedesPromotionInFlight(t *testing.T) {
	setup := func(t *testing.T) (*TieredKeyed, *transit, diskstore.Entry) {
		ts := newTransitStore(t, 16)
		ts.Put("k", entryOf("old-old-"), 0)
		evictAll(ts) // k → disk only
		f, suspect, held := ts.enterTransit("k", mover)
		e, ok := ts.disk.Get("k")
		if suspect || held != nil || !ok {
			t.Fatalf("setup: suspect=%v held=%v ok=%v", suspect, held, ok)
		}
		return ts, f, e
	}
	t.Run("new version still in RAM", func(t *testing.T) {
		ts, f, e := setup(t)
		ts.Put("k", entryOf("new-new-"), 0)
		if ts.promote("k", f, e) {
			t.Fatal("promotion replaced the entry a Put stored meanwhile")
		}
		ts.exitTransit("k", f, mover, nil)
		mustGet(t, ts, "k", "new-new-")
		evictAll(ts)
		mustGet(t, ts, "k", "new-new-")
	})
	t.Run("new version already evicted", func(t *testing.T) {
		// The Put's entry has left RAM again (dropped, its key being marked)
		// by the time the promotion would insert. It must not: RAM would
		// serve the older copy until the crossing ended. The key is lost,
		// which a cache may do, and never stale.
		ts, f, e := setup(t)
		ts.Put("k", entryOf("new-new-"), 0)
		evictAll(ts)
		if ts.promote("k", f, e) {
			t.Fatal("a marked crossing promoted the copy it read before the Put")
		}
		ts.exitTransit("k", f, mover, nil)
		if e, ok := ts.Get("k"); ok {
			t.Fatalf("Get(k) = %q after a Put of new-new- returned", e.Value)
		}
	})
	t.Run("put after the promotion inserted", func(t *testing.T) {
		ts, f, e := setup(t)
		if !ts.promote("k", f, e) {
			t.Fatal("setup: promotion did not insert")
		}
		ts.Put("k", entryOf("new-new-"), 0)
		ts.exitTransit("k", f, promoter, nil)
		// The promoter cannot tell its copy from the Put's and removes what
		// RAM holds; the older version must be gone from both tiers.
		if e, ok := ts.Get("k"); ok && string(e.Value) != "new-new-" {
			t.Fatalf("Get(k) = %q after a Put of new-new- returned", e.Value)
		}
	})
}

// TestTieredLookupServesDemotionInFlight: between the RAM tier unlinking a
// victim the disk has never seen and the disk write returning, the key is
// in neither tier. A Get in that window is served from the crossing.
func TestTieredLookupServesDemotionInFlight(t *testing.T) {
	ts := newTransitStore(t, 16)
	ts.Put("k", entryOf("victim--"), 0)
	f, v := beginEvict(t, ts, "k", entryOf("victim--"))
	before := ts.Stats()
	mustGet(t, ts, "k", "victim--")
	if e, ok := ts.GetKeep("k"); !ok || string(e.Value) != "victim--" {
		t.Fatalf("GetKeep in the window: %q, %v", e.Value, ok)
	}
	if st := ts.Stats(); st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Fatalf("window reads not counted as hits: %+v → %+v", before, st)
	}
	ts.writeDisk("k", v.e, v.deadline)
	ts.exitTransit("k", f, mover, v)
	mustGet(t, ts, "k", "victim--") // now a disk hit
	if st := ts.TierStats(); st.DiskHits != 1 {
		t.Fatalf("after the crossing the disk tier serves: %+v", st)
	}

	// A Delete in the window wins over the victim in flight.
	ts.Put("d", entryOf("doomed--"), 0)
	f, v2 := beginEvict(t, ts, "d", entryOf("doomed--"))
	ts.Delete("d")
	if e, ok := ts.Get("d"); ok {
		t.Fatalf("Get(d) = %q from a crossing a Delete overlapped", e.Value)
	}
	ts.writeDisk("d", v2.e, v2.deadline)
	ts.exitTransit("d", f, mover, v2)
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
