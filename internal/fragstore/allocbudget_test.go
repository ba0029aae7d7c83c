//go:build !race

package fragstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"dpcache/internal/diskstore"
)

// The tier boundary's allocation budgets: what a read that crosses it may
// ask of the allocator, beyond the copy of the value it returns. (Without
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
