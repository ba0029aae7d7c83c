//go:build !race

package fragstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"dpcache/internal/diskstore"
)

// The store's allocation budgets: what a read that crosses the tier
// boundary may ask of the allocator beyond the copy of the value it
// returns, and what the slot array's Get and Set may ask at all. (Without
// the race detector, which changes what allocates.)

const budgetPayload = 4 << 10

// newBudgetStore returns a store whose RAM tier holds two payloads and
// whose disk tier holds n more, every page of them pooled.
func newBudgetStore(t *testing.T, n int) (*TieredKeyed, []string) {
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
	keys := make([]string, n+2)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		ts.Put(keys[i], KeyedEntry{Value: payload}, 0)
	}
	return ts, keys[:n] // the last two are what RAM holds
}

// A pool-hit read that does not promote allocates the value and nothing
// else: no transit record, no segment list, no key or meta string.
func TestAllocBudgetDiskHitServedInPlace(t *testing.T) {
	// Eight keys in turn: each is read again eight disk reads later, the
	// window is the RAM tier's two entries, so none is ever promoted.
	ts, keys := newBudgetStore(t, 8)
	i := 0
	perRead := testing.AllocsPerRun(200, func() {
		if _, ok := ts.Get(keys[i%len(keys)]); !ok {
			t.Fatal("disk-resident entry lost")
		}
		i++
	})
	st := ts.TierStats()
	if st.Promotions != 0 || st.ServedInPlace != int64(i) || st.Disk.PoolLoads != 0 {
		t.Fatalf("the reads were not pool hits served in place: %+v", st)
	}
	if perRead != 1 {
		t.Fatalf("%v allocations per disk hit served in place, budget 1 (the value)", perRead)
	}
}

// A promotion with the eviction it owes allocates at most one object
// beyond the value: the transit record, the victim and the RAM entry are
// recycled, the LRU links are the entries' own.
func TestAllocBudgetPromotionWithEviction(t *testing.T) {
	ts, keys := newBudgetStore(t, 4)
	i := 0
	before := ts.TierStats()
	const rounds = 200
	perRound := testing.AllocsPerRun(rounds, func() {
		// Twice in succession: served in place, then promoted over the
		// coldest of RAM's two, whose disk copy is still there.
		for touch := 0; touch < 2; touch++ {
			if _, ok := ts.Get(keys[i%len(keys)]); !ok {
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
	if perRound > 3 {
		t.Fatalf("%v allocations per in-place read plus promotion and eviction, budget 3 (two values and one object)", perRound)
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
