//go:build !race

package fragstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"dpcache/internal/diskstore"
)

// The store's allocation budgets: what a read that crosses the tier
// boundary may ask of the allocator, and what the slot array's Get and Set
// may ask at all. (Without the race detector, which changes what
// allocates.)

const budgetPayload = 4 << 10

// newBudgetStore returns a store whose RAM tier holds two payloads and
// whose disk tier holds n more, every page of them pooled, and the
// fragment view a template run reads it through: slot i is key "k<i>".
func newBudgetStore(t *testing.T, n int) (*TieredKeyed, Reader) {
	t.Helper()
	ts, err := NewTieredKeyed(TieredConfig{
		RAM:  KeyedConfig{Shards: 1, ByteBudget: 2 * budgetPayload},
		Disk: diskstore.Config{Path: filepath.Join(t.TempDir(), "budget.heap")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	payload := make([]byte, budgetPayload)
	for i := 0; i < n+2; i++ {
		ts.Put(fmt.Sprintf("k%d", i), KeyedEntry{Value: payload}, 0)
	}
	view, err := ts.AsFragmentStore(n + 2)
	if err != nil {
		t.Fatal(err)
	}
	return ts, view.(Reader) // slots 0..n-1 are on disk only; the last two are what RAM holds
}

// A pool-hit read through a run's scratch that does not promote allocates
// nothing: the value is copied into the scratch under the disk latch, and
// there is no transit record, segment list, key or meta string. Without the
// scratch it would be one object, the value's own slice.
func TestAllocBudgetDiskHitServedInPlace(t *testing.T) {
	// Eight slots in turn: each is read again eight disk reads later, the
	// window is the RAM tier's two entries, so none is ever promoted.
	const n = 8
	ts, rd := newBudgetStore(t, n)
	var s Scratch
	defer s.Release()
	i := 0
	perRead := testing.AllocsPerRun(200, func() {
		if _, ok, _ := rd.Read(uint32(i%n), 0, false, &s); !ok {
			t.Fatal("disk-resident entry lost")
		}
		i++
	})
	st := ts.TierStats()
	if st.Promotions != 0 || st.ServedInPlace != int64(i) || st.Disk.PoolLoads != 0 {
		t.Fatalf("the reads were not pool hits served in place: %+v", st)
	}
	if perRead != 0 {
		t.Fatalf("%v allocations per disk hit served in place through a scratch, budget 0", perRead)
	}
}

// A promotion with the eviction it owes allocates the promoted value and
// nothing else: the transit record, the victim and the RAM entry are
// recycled, the LRU links are the entries' own, and the in-place read
// before it goes to the scratch. (Two values a round when the in-place read
// had a slice of its own.)
func TestAllocBudgetPromotionWithEviction(t *testing.T) {
	const n = 4
	ts, rd := newBudgetStore(t, n)
	var s Scratch
	defer s.Release()
	i := 0
	before := ts.TierStats()
	const rounds = 200
	perRound := testing.AllocsPerRun(rounds, func() {
		// Twice in succession: served in place, then promoted over the
		// coldest of RAM's two, whose disk copy is still there.
		for touch := 0; touch < 2; touch++ {
			if _, ok, _ := rd.Read(uint32(i%n), 0, false, &s); !ok {
				t.Fatal("entry lost across the tier boundary")
			}
		}
		i++
	})
	st := ts.TierStats()
	if n := st.Promotions - before.Promotions; n != int64(i) {
		t.Fatalf("%d promotions in %d rounds: %+v", n, i, st)
	}
	if n := st.CleanEvictions + st.Demotions - before.CleanEvictions - before.Demotions; n != int64(i) {
		t.Fatalf("%d evictions for %d promotions: %+v", n, i, st)
	}
	if perRound > 1 {
		t.Fatalf("%v allocations per in-place read plus promotion and eviction, budget 1 (the promoted value)", perRound)
	}
	t.Logf("%v allocations per round of two reads", perRound)
}

// The slot array's budgets, at one lock stripe and at sixteen: a warm Get
// allocates nothing, and a Set allocates the copy of its content and
// nothing else.
func TestAllocBudgetSlotStore(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		s, err := newSlotStore(1000, stripes, BackendSharded)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 512)
		k := uint32(0)
		if n := testing.AllocsPerRun(1000, func() {
			k = (k + 1) % 1000
			if err := s.Set(k, 1, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%d stripes: Set allocates %v objects, budget 1 (the content copy)", stripes, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			k = (k + 1) % 1000
			if _, ok := s.Get(k, 1, true); !ok {
				t.Fatalf("%d stripes: warm slot %d missed", stripes, k)
			}
		}); n != 0 {
			t.Errorf("%d stripes: Get allocates %v objects, budget 0", stripes, n)
		}
	}
}
