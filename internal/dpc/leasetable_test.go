package dpc

import (
	"testing"

	"dpcache/internal/metrics"
)

// TestLeaseTableFilingKeepsLiveLeases files into one bucket (a constant
// hash): a lease filed over the newer slot a void emptied must leave the
// older slot's live lease where it is, a key filed again must be replaced
// and never held twice, and dpc.lease_resident must count the filled slots.
func TestLeaseTableFilingKeepsLiveLeases(t *testing.T) {
	reg := metrics.NewRegistry()
	lt := newLeaseTable(reg)
	lt.hash = func(string) uint64 { return 0 }
	yes := func() bool { return true }
	file := func(key, plan string) { lt.file(lease{key: key, plan: plan}, yes) }
	expect := func(step string, resident int64, held map[string]string) {
		t.Helper()
		for key, plan := range held {
			l, ok := lt.get(key)
			if ok != (plan != "") || l.plan != plan {
				t.Fatalf("%s: lease %q = %q, %v; want %q", step, key, l.plan, ok, plan)
			}
		}
		if got := reg.Snapshot()["dpc.lease_resident"]; got != resident {
			t.Fatalf("%s: dpc.lease_resident = %d, want %d", step, got, resident)
		}
		filled := int64(0)
		for _, l := range lt.buckets[0] {
			if l.key != "" {
				filled++
			}
		}
		if filled != resident {
			t.Fatalf("%s: the bucket holds %d leases, dpc.lease_resident says %d", step, filled, resident)
		}
	}

	file("A", "a1")
	file("B", "b1")
	lt.void("B", voidFloor)
	file("C", "c1")
	expect("file A, B, void B, file C", 2, map[string]string{"A": "a1", "B": "", "C": "c1"})

	file("A", "a2") // A is in the older slot: replaced, not held twice
	expect("file A again", 2, map[string]string{"A": "a2", "C": "c1"})
	lt.void("A", voidFloor)
	expect("void A", 1, map[string]string{"A": "", "C": "c1"})

	lt.void("C", voidFloor)
	file("D", "d1") // the newer slot is empty, and so is the older
	expect("void C, file D", 1, map[string]string{"C": "", "D": "d1"})
	file("E", "e1")
	file("F", "f1") // D, the older of two filled slots, gives way
	expect("file E, F", 2, map[string]string{"D": "", "E": "e1", "F": "f1"})
	lt.void("F", voidFloor)
	file("E", "e2") // E refiled from the older slot into the emptied newer one
	expect("void F, file E again", 1, map[string]string{"E": "e2", "F": ""})
}
