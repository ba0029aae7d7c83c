package coherency

import (
	"net/http/httptest"
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
)

func newStore(t *testing.T, capacity int) *dpc.Store {
	t.Helper()
	s, err := dpc.NewStore(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeBackends enumerates every fragment-store backend the subscriber
// must keep coherent.
func storeBackends(t *testing.T, capacity int) map[string]fragstore.FragmentStore {
	t.Helper()
	slot, err := fragstore.NewSlotStore(capacity)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := fragstore.New(fragstore.Config{Backend: fragstore.BackendSharded, Capacity: capacity, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fragstore.FragmentStore{"slot": slot, "sharded": sharded}
}

func TestBroadcastDropsSlotOnAllSubscribers(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := NewHub(mon)
	s1, s2 := newStore(t, 8), newStore(t, 8)
	_ = s1.Set(3, 1, []byte("frag"))
	_ = s2.Set(3, 1, []byte("frag"))
	hub.Subscribe(NewStoreSubscriber(s1))
	hub.Subscribe(NewStoreSubscriber(s2))

	// Drive a real BEM invalidation: lookup then invalidate.
	d, _ := mon.Lookup("f", 0)
	mon.Invalidate("f")
	if _, ok := s1.Get(d.Key, d.Gen, false); ok {
		t.Fatal("subscriber 1 still holds dropped slot")
	}
	if _, ok := s2.Get(d.Key, d.Gen, false); ok {
		t.Fatal("subscriber 2 still holds dropped slot")
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := NewHub(mon)
	e1 := hub.Broadcast("a", 0, 1)
	e2 := hub.Broadcast("b", 1, 2)
	if e2.Seq != e1.Seq+1 {
		t.Fatalf("seq %d then %d", e1.Seq, e2.Seq)
	}
	if hub.Seq() != e2.Seq {
		t.Fatalf("hub seq = %d", hub.Seq())
	}
}

func TestAckedThrough(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := NewHub(mon)
	s1 := NewStoreSubscriber(newStore(t, 4))
	hub.Subscribe(s1)
	hub.Broadcast("a", 0, 1)
	hub.Broadcast("b", 1, 2)
	if got := hub.AckedThrough(); got != 2 {
		t.Fatalf("AckedThrough = %d, want 2", got)
	}
}

func TestGapForcesFlush(t *testing.T) {
	for name, store := range storeBackends(t, 4) {
		t.Run(name, func(t *testing.T) {
			for k := uint32(0); k < 4; k++ {
				_ = store.Set(k, 1, []byte("x"))
			}
			sub := NewStoreSubscriber(store)
			sub.Apply(Event{Seq: 1, Key: 0})
			if store.Resident() != 3 {
				t.Fatalf("resident = %d after seq 1", store.Resident())
			}
			// Seq 3 arrives, 2 was lost: everything must flush.
			sub.Apply(Event{Seq: 3, Key: 1})
			if store.Resident() != 0 {
				t.Fatalf("resident = %d after gap, want 0", store.Resident())
			}
			if sub.Flushes() != 1 {
				t.Fatalf("flushes = %d", sub.Flushes())
			}
		})
	}
}

// lossySubscriber forwards hub events to an inner subscriber except the
// sequence numbers listed in drop — a lossy delivery channel.
type lossySubscriber struct {
	inner Subscriber
	drop  map[uint64]bool
	acked uint64
}

func (l *lossySubscriber) Apply(ev Event) uint64 {
	if l.drop[ev.Seq] {
		return l.acked
	}
	l.acked = l.inner.Apply(ev)
	return l.acked
}

// TestHubGapFlushEndToEnd drives the full hub → subscriber path over a
// lossy channel for both store backends: a dropped broadcast must surface
// as a sequence gap at the store subscriber and flush every resident
// fragment, after which the store keeps working.
func TestHubGapFlushEndToEnd(t *testing.T) {
	for name, store := range storeBackends(t, 8) {
		t.Run(name, func(t *testing.T) {
			for k := uint32(0); k < 8; k++ {
				_ = store.Set(k, 1, []byte("frag"))
			}
			mon, _ := bem.New(bem.Config{Capacity: 8})
			hub := NewHub(mon)
			sub := NewStoreSubscriber(store)
			hub.Subscribe(&lossySubscriber{inner: sub, drop: map[uint64]bool{2: true}})

			hub.Broadcast("a", 0, 1) // seq 1: applied, drops key 0
			if got := store.Resident(); got != 7 {
				t.Fatalf("resident = %d after seq 1, want 7", got)
			}
			hub.Broadcast("b", 1, 1) // seq 2: lost in transit
			if got := store.Resident(); got != 7 {
				t.Fatalf("resident = %d after lost event, want 7 (nothing delivered)", got)
			}
			hub.Broadcast("c", 2, 1) // seq 3: gap detected → full flush
			if got := store.Resident(); got != 0 {
				t.Fatalf("resident = %d after gap, want 0 (full flush)", got)
			}
			if sub.Flushes() != 1 {
				t.Fatalf("flushes = %d, want 1", sub.Flushes())
			}
			// The subscriber is caught up: in-order events keep applying
			// without another flush.
			_ = store.Set(5, 2, []byte("fresh"))
			hub.Broadcast("d", 5, 2) // seq 4
			if _, ok := store.Get(5, 2, false); ok {
				t.Fatal("post-flush invalidation not applied")
			}
			if sub.Flushes() != 1 {
				t.Fatalf("flushes = %d after in-order resume, want 1", sub.Flushes())
			}
		})
	}
}

func TestDuplicateAndStaleEventsIdempotent(t *testing.T) {
	store := newStore(t, 4)
	sub := NewStoreSubscriber(store)
	sub.Apply(Event{Seq: 1, Key: 0})
	sub.Apply(Event{Seq: 2, Key: 1})
	before := sub.Applied()
	sub.Apply(Event{Seq: 2, Key: 1}) // duplicate
	sub.Apply(Event{Seq: 1, Key: 0}) // stale
	if sub.Applied() != before {
		t.Fatal("duplicate/stale events were applied")
	}
	if sub.Flushes() != 0 {
		t.Fatal("duplicates treated as gaps")
	}
}

func TestSeedSeqSuppressesInitialGap(t *testing.T) {
	store := newStore(t, 4)
	sub := NewStoreSubscriber(store)
	sub.SeedSeq(41)
	sub.Apply(Event{Seq: 42, Key: 0})
	if sub.Flushes() != 0 {
		t.Fatal("seeded subscriber flushed on first event")
	}
}

func TestEventsLog(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := NewHub(mon)
	hub.Broadcast("a", 0, 1)
	hub.Broadcast("b", 1, 2)
	hub.Broadcast("c", 2, 3)
	evs, ok := hub.Events(1)
	if !ok || len(evs) != 2 || evs[0].Seq != 2 {
		t.Fatalf("Events(1) = %v, %v", evs, ok)
	}
	all, ok := hub.Events(0)
	if !ok || len(all) != 3 {
		t.Fatalf("Events(0) = %v, %v", all, ok)
	}
}

func TestEventsLogTrimReportsTooOld(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := NewHub(mon)
	hub.MaxLog = 2
	for i := 0; i < 5; i++ {
		hub.Broadcast("x", uint32(i%4), uint32(i))
	}
	if _, ok := hub.Events(0); ok {
		t.Fatal("trimmed log claimed to reach back to 0")
	}
	evs, ok := hub.Events(3)
	if !ok || len(evs) != 2 {
		t.Fatalf("Events(3) = %v, %v", evs, ok)
	}
}

func TestHTTPBridgeDeliversAndAcks(t *testing.T) {
	store := newStore(t, 8)
	_ = store.Set(5, 9, []byte("stale"))
	edgeSub := NewStoreSubscriber(store)
	edge := httptest.NewServer(Handler(edgeSub))
	defer edge.Close()

	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := NewHub(mon)
	remote := &RemoteSubscriber{URL: edge.URL}
	hub.Subscribe(remote)

	hub.Broadcast("f", 5, 9)
	if _, ok := store.Get(5, 9, false); ok {
		t.Fatal("edge store still holds invalidated slot")
	}
	if hub.AckedThrough() != 1 {
		t.Fatalf("AckedThrough = %d", hub.AckedThrough())
	}
}

func TestHTTPBridgeToleratesDeadEdge(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := NewHub(mon)
	remote := &RemoteSubscriber{URL: "http://127.0.0.1:1/invalidate"}
	hub.Subscribe(remote)
	hub.Broadcast("f", 0, 1) // must not panic or block
	if remote.Errors() != 1 {
		t.Fatalf("errors = %d", remote.Errors())
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	edge := httptest.NewServer(Handler(NewStoreSubscriber(newStore(t, 2))))
	defer edge.Close()
	resp, err := edge.Client().Get(edge.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp, err = edge.Client().Post(edge.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty POST status = %d", resp.StatusCode)
	}
}
