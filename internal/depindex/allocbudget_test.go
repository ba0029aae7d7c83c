//go:build !race

package depindex

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The benchmark's site — 1 000 pages of 12 tagged fragments, each fragment
// on one page, 32-byte page keys — must fit the default budget with room to
// spare, at a heap cost the ledger tells the truth about; and re-filing a
// page the index already holds must allocate nothing. (Without the race
// detector, which changes what allocates.)
func TestAllocBudgetDepindexFootprint(t *testing.T) {
	const pages, perPage = 1000, 12
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ids := make([]ID, perPage)
	pageIDs := func(page int) []ID {
		for i := range ids {
			ids[i] = MakeID(uint32(page*perPage+i), uint32(page%7+1))
		}
		return ids
	}
	pageKey := func(page int) string {
		return fmt.Sprintf("GET\x00/page/synth?page=%04d\x00\x00\x00\x00\x00\x00\x00", page)
	}
	if n := len(pageKey(0)); n != 32 {
		t.Fatalf("test setup: page key is %d bytes", n)
	}

	before := heap()
	ix := New(Config{Horizon: 10 * time.Minute})
	for page := 0; page < pages; page++ {
		ix.File(pageIDs(page), pageKey(page), ix.hz)
	}
	after := heap()

	st := ix.Stats()
	if st.Fragments != pages*perPage || st.Edges != pages*perPage || st.Keys != pages || st.Evictions != 0 {
		t.Fatalf("the site does not fit the default budget: %+v", st)
	}
	const budget = 1 << 20
	if st.Bytes > budget*8/10 {
		t.Fatalf("index charges %d of %d bytes: under 20%% headroom", st.Bytes, budget)
	}
	spent := int64(after - before)
	perFragment := spent / (pages * perPage)
	t.Logf("%d B of heap, %d B charged: %d B per fragment, key table included; 1 MiB ≈ %d such fragments",
		spent, st.Bytes, perFragment, budget*int64(pages*perPage)/st.Bytes)
	if perFragment > 70 {
		t.Fatalf("%d B of heap per fragment, budget 70", perFragment)
	}
	if st.Bytes*100 < spent*85 || st.Bytes*100 > spent*115 {
		t.Fatalf("ledger charges %d B for %d B of heap: off by more than 15%%", st.Bytes, spent)
	}

	key := pageKey(7)
	if n := testing.AllocsPerRun(100, func() { ix.File(pageIDs(7), key, ix.hz) }); n != 0 {
		t.Fatalf("re-filing an indexed page allocated %v times", n)
	}
	if err := ix.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ix)
}
