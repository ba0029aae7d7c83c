package dpc

import (
	"fmt"
	"testing"

	"dpcache/internal/metrics"
)

// TestLeaseTableFilingKeepsLiveLeases: a lease filed after a void must leave
// every other live lease where it is, a key filed again must be replaced
// and never held twice, and dpc.lease_resident must count the leases held.
func TestLeaseTableFilingKeepsLiveLeases(t *testing.T) {
	reg := metrics.NewRegistry()
	lt := newLeaseTable(reg)
	yes := func() bool { return true }
	file := func(key, plan string) { lt.file(key, lease{plan: plan}, yes) }
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
		if n := int64(len(lt.leases)); n != resident {
			t.Fatalf("%s: the table holds %d leases, dpc.lease_resident says %d", step, n, resident)
		}
	}

	file("A", "a1")
	file("B", "b1")
	lt.void("B", voidFloor)
	file("C", "c1")
	expect("file A, B, void B, file C", 2, map[string]string{"A": "a1", "B": "", "C": "c1"})

	file("A", "a2")
	expect("file A again", 2, map[string]string{"A": "a2", "C": "c1"})
	lt.void("A", voidFloor)
	expect("void A", 1, map[string]string{"A": "", "C": "c1"})
	lt.void("A", voidFloor) // nothing left to void: resident stays
	expect("void A again", 1, map[string]string{"C": "c1"})
	if got := reg.Snapshot()["dpc.lease_evictions"]; got != 0 {
		t.Fatalf("dpc.lease_evictions = %d below the bound, want 0", got)
	}
}

// TestLeaseTableBound files past maxLeases: the table holds exactly
// maxLeases, each filing past the bound evicts one lease and counts it, the
// lease filed last is always found, refiling a held key evicts nothing, and
// a gap's clear counts every lease it held once.
func TestLeaseTableBound(t *testing.T) {
	const over = 100
	reg := metrics.NewRegistry()
	lt := newLeaseTable(reg)
	yes := func() bool { return true }
	key := func(i int) string { return fmt.Sprintf("/page/%d", i) }
	for i := range maxLeases + over {
		if !lt.file(key(i), lease{plan: key(i)}, yes) {
			t.Fatalf("filing %d refused", i)
		}
		if l, ok := lt.get(key(i)); !ok || l.plan != key(i) {
			t.Fatalf("the lease filed last, %q, is not found: %q, %v", key(i), l.plan, ok)
		}
	}
	snap := reg.Snapshot()
	if snap["dpc.lease_resident"] != maxLeases || len(lt.leases) != maxLeases {
		t.Fatalf("after %d filings: dpc.lease_resident %d, %d held; want %d",
			maxLeases+over, snap["dpc.lease_resident"], len(lt.leases), maxLeases)
	}
	if snap["dpc.lease_evictions"] != over {
		t.Fatalf("dpc.lease_evictions = %d, want %d", snap["dpc.lease_evictions"], over)
	}

	// A key already held is refiled in place at the bound.
	held := ""
	for k := range lt.leases {
		held = k
		break
	}
	lt.file(held, lease{plan: "again"}, yes)
	if l, _ := lt.get(held); l.plan != "again" || reg.Snapshot()["dpc.lease_evictions"] != over {
		t.Fatalf("refiling a held key at the bound: plan %q, evictions %d; want \"again\", %d",
			l.plan, reg.Snapshot()["dpc.lease_evictions"], over)
	}

	lt.clear(voidGap)
	snap = reg.Snapshot()
	if snap["dpc.lease_resident"] != 0 || len(lt.leases) != 0 {
		t.Fatalf("after clear: dpc.lease_resident %d, %d held; want 0", snap["dpc.lease_resident"], len(lt.leases))
	}
	if snap["dpc.lease_gap_voids"] != maxLeases || snap["dpc.lease_voids"] != maxLeases {
		t.Fatalf("clear counted %d gap voids, %d voids; want %d each",
			snap["dpc.lease_gap_voids"], snap["dpc.lease_voids"], maxLeases)
	}
}
