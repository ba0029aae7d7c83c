//go:build !race

package diskstore

import (
	"fmt"
	"testing"

	"dpcache/internal/alloctest"
)

// With one pool frame, Gets that change page on every call load a page per
// call, and the frame each load displaces is the buffer the next one reads
// into: a call allocates its value copy and frame bookkeeping, well under a
// page, in three objects — the value, the frame and its load channel; the
// clock ring's links are the frame's own. (Without the race detector, which
// changes what allocates.)
func TestAllocBudgetPoolLoadReusesFrames(t *testing.T) {
	s := openTemp(t, Config{PoolPages: 1})
	const n, valueBytes = 256, 1 << 10
	perPage := DefaultPageBytes / valueBytes
	value := make([]byte, valueBytes)
	keys := make([]string, n) // formatted once, so the count is the store's
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	key := func(i int) string { return keys[i] }
	for i := 0; i < n; i++ {
		if !s.Put(key(i), Entry{Value: value}) {
			t.Fatal("Put refused")
		}
	}
	i := 0
	get := func() { // each call reads the next page
		k := key((i * perPage) % n)
		i++
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Get(%s) missed", k)
		}
	}
	for range 2 * n / perPage { // every page once or twice: the free list is primed
		get()
	}
	const windows, calls = 5, 200
	loads := s.Stats().PoolLoads
	perCall, objsPerCall := alloctest.PerCall(windows, calls, get)
	if got := s.Stats().PoolLoads - loads; got != windows*calls {
		t.Fatalf("%d pool loads in %d calls: the reads did not change page every time", got, windows*calls)
	}
	t.Logf("%.0f B in %.2f objects allocated per call, page %d B", perCall, objsPerCall, DefaultPageBytes)
	if perCall >= DefaultPageBytes {
		t.Fatalf("%.0f B allocated per page-changing Get, budget under one %d-byte page", perCall, DefaultPageBytes)
	}
	if objsPerCall > 3 {
		t.Fatalf("%.2f objects allocated per page-changing Get, budget 3 (the value, the frame, its load channel)", objsPerCall)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
