//go:build !race

package coherency_test

import (
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
)

// noop acknowledges every event and keeps nothing.
type noop struct{}

func (noop) Apply(ev coherency.Event) uint64 { return ev.Seq }

// A broadcast costs the hub no more than its subscriber snapshot, however
// many events came before: the hub keeps no log to grow or recopy. (Without
// the race detector, which changes what allocates.)
func TestAllocBudgetHubBroadcast(t *testing.T) {
	mon, err := bem.New(bem.Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	hub := coherency.NewHub(mon)
	hub.Subscribe(noop{})
	for i := 0; i < 5000; i++ {
		hub.Broadcast("f", uint32(i%4), uint32(i))
	}
	if n := testing.AllocsPerRun(100, func() { hub.Broadcast("f", 1, 1) }); n > 1 {
		t.Fatalf("one broadcast after 5 000 events: %.1f allocations, want ≤ 1 (the subscriber snapshot)", n)
	}
}
