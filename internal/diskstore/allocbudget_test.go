//go:build !race

package diskstore

import (
	"fmt"
	"runtime"
	"testing"
)

// With one pool frame, Gets that change page on every call load a page per
// call, and the frame each load displaces is the buffer the next one reads
// into: a call allocates its value copy and frame bookkeeping, well under a
// page. (Without the race detector, which changes what allocates.)
func TestAllocBudgetPoolLoadReusesFrames(t *testing.T) {
	s := openTemp(t, Config{PoolPages: 1})
	const n, valueBytes = 256, 1 << 10
	perPage := DefaultPageBytes / valueBytes
	value := make([]byte, valueBytes)
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < n; i++ {
		if !s.Put(key(i), Entry{Value: value}) {
			t.Fatal("Put refused")
		}
	}
	get := func(calls int) {
		for i := 0; i < calls; i++ {
			if _, ok := s.Get(key((i * perPage) % n)); !ok {
				t.Fatalf("Get(%s) missed", key((i*perPage)%n))
			}
		}
	}
	get(2 * n / perPage) // every page once or twice: the free list is primed
	const calls = 200
	loads := s.Stats().PoolLoads
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get(calls)
	runtime.ReadMemStats(&after)
	if got := s.Stats().PoolLoads - loads; got != calls {
		t.Fatalf("%d pool loads in %d calls: the reads did not change page every time", got, calls)
	}
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per call, page %d B", perCall, DefaultPageBytes)
	if perCall >= DefaultPageBytes {
		t.Fatalf("%d B allocated per page-changing Get, budget under one %d-byte page", perCall, DefaultPageBytes)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
