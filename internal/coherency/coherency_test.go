package coherency_test

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
)

// newProxy returns a proxy with no origin behind it, for applying events
// to its tiers directly. A nil store selects the default slot store.
func newProxy(t *testing.T, store fragstore.FragmentStore, mutate ...func(*dpc.Config)) *dpc.Proxy {
	t.Helper()
	cfg := dpc.Config{OriginURL: "http://origin.invalid", Capacity: 8, Store: store, PublishInterval: -1}
	for _, m := range mutate {
		m(&cfg)
	}
	p, err := dpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// counter reads one of the proxy's dpc.* counters.
func counter(p *dpc.Proxy, name string) int64 { return p.Registry().Counter(name).Value() }

// recorder is a subscriber that keeps every event it is delivered and
// acknowledges the last.
type recorder struct {
	mu  sync.Mutex
	evs []coherency.Event
}

func (r *recorder) Apply(ev coherency.Event) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, ev)
	return ev.Seq
}

func (r *recorder) events() []coherency.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]coherency.Event(nil), r.evs...)
}

// storeBackends enumerates every fragment-store backend the fabric must
// keep coherent.
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
	hub := coherency.NewHub(mon)
	p1, p2 := newProxy(t, nil), newProxy(t, nil)
	_ = p1.Store().Set(3, 1, []byte("frag"))
	_ = p2.Store().Set(3, 1, []byte("frag"))
	hub.Subscribe(p1)
	hub.Subscribe(p2)

	// Drive a real BEM invalidation: lookup then invalidate.
	d, _ := mon.Lookup("f", 0)
	mon.Invalidate("f")
	if _, ok := p1.Store().Get(d.Key, d.Gen, false); ok {
		t.Fatal("subscriber 1 still holds dropped slot")
	}
	if _, ok := p2.Store().Get(d.Key, d.Gen, false); ok {
		t.Fatal("subscriber 2 still holds dropped slot")
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := coherency.NewHub(mon)
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
	hub := coherency.NewHub(mon)
	hub.Subscribe(&recorder{})
	hub.Broadcast("a", 0, 1)
	hub.Broadcast("b", 1, 2)
	if got := hub.AckedThrough(); got != 2 {
		t.Fatalf("AckedThrough = %d, want 2", got)
	}
}

// holdingSubscriber stands in front of a proxy and keeps one sequence
// number from it until released; it records what the proxy acknowledged for
// each event it was handed.
type holdingSubscriber struct {
	p                *dpc.Proxy
	hold             uint64
	entered, release chan struct{}

	mu   sync.Mutex
	acks map[uint64]uint64
}

func (s *holdingSubscriber) Apply(ev coherency.Event) uint64 {
	if ev.Seq == s.hold {
		close(s.entered)
		<-s.release
	}
	acked := s.p.Apply(ev)
	s.mu.Lock()
	s.acks[ev.Seq] = acked
	s.mu.Unlock()
	return acked
}

// Two broadcasts at once reach a subscriber in the order the hub numbered
// them: while event 2 is held on its way to the proxy, event 3 waits for it,
// so the proxy applies both and sees no gap. Delivered 3 first, the proxy
// would flush every tier for the skipped number and then ignore 2.
func TestHubDeliversInSequenceOrder(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	p := newProxy(t, nil)
	sub := &holdingSubscriber{p: p, hold: 2, entered: make(chan struct{}), release: make(chan struct{}), acks: map[uint64]uint64{}}
	hub.Subscribe(sub)
	hub.Broadcast("a", 0, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hub.Broadcast("b", 1, 2)
	}()
	<-sub.entered
	third := make(chan coherency.Event)
	go func() { third <- hub.Broadcast("c", 2, 3) }()
	// Give the third broadcast the time to overtake the held one, as it
	// would if the hub delivered outside a lock.
	var ev coherency.Event
	select {
	case ev = <-third:
	case <-time.After(20 * time.Millisecond):
	}
	if ev.Seq == 0 && hub.Seq() != 2 {
		t.Fatalf("hub numbered %d events while the second was in delivery", hub.Seq())
	}
	close(sub.release)
	wg.Wait()
	if ev.Seq == 0 {
		ev = <-third
	}

	if ev.Seq != 3 {
		t.Fatalf("third broadcast numbered %d", ev.Seq)
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for seq := uint64(1); seq <= 3; seq++ {
		if sub.acks[seq] != seq {
			t.Errorf("event %d: the proxy acknowledged %d; want it applied in order", seq, sub.acks[seq])
		}
	}
	if n := counter(p, "dpc.pagecache_gap_flushes"); n != 0 {
		t.Errorf("dpc.pagecache_gap_flushes = %d: the proxy saw a gap", n)
	}
	if got := hub.AckedThrough(); got != 3 {
		t.Errorf("AckedThrough = %d, want 3", got)
	}
}

func TestGapForcesFlush(t *testing.T) {
	for name, store := range storeBackends(t, 4) {
		t.Run(name, func(t *testing.T) {
			for k := uint32(0); k < 4; k++ {
				_ = store.Set(k, 1, []byte("x"))
			}
			p := newProxy(t, store)
			p.Apply(coherency.Event{Seq: 1, Key: 0})
			if store.Resident() != 3 {
				t.Fatalf("resident = %d after seq 1", store.Resident())
			}
			// Seq 3 arrives, 2 was lost: everything must flush.
			p.Apply(coherency.Event{Seq: 3, Key: 1})
			if store.Resident() != 0 {
				t.Fatalf("resident = %d after gap, want 0", store.Resident())
			}
			if n := counter(p, "dpc.pagecache_gap_flushes"); n != 1 {
				t.Fatalf("gap flushes = %d", n)
			}
		})
	}
}

// lossySubscriber forwards hub events to an inner subscriber except the
// sequence numbers listed in drop — a lossy delivery channel.
type lossySubscriber struct {
	inner coherency.Subscriber
	drop  map[uint64]bool
	acked uint64
}

func (l *lossySubscriber) Apply(ev coherency.Event) uint64 {
	if l.drop[ev.Seq] {
		return l.acked
	}
	l.acked = l.inner.Apply(ev)
	return l.acked
}

// TestHubGapFlushEndToEnd drives the full hub → proxy path over a lossy
// channel for both store backends: a dropped broadcast must surface as a
// sequence gap at the proxy and flush every resident fragment, after
// which the store keeps working.
func TestHubGapFlushEndToEnd(t *testing.T) {
	for name, store := range storeBackends(t, 8) {
		t.Run(name, func(t *testing.T) {
			for k := uint32(0); k < 8; k++ {
				_ = store.Set(k, 1, []byte("frag"))
			}
			mon, _ := bem.New(bem.Config{Capacity: 8})
			hub := coherency.NewHub(mon)
			p := newProxy(t, store)
			hub.Subscribe(&lossySubscriber{inner: p, drop: map[uint64]bool{2: true}})

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
			if n := counter(p, "dpc.pagecache_gap_flushes"); n != 1 {
				t.Fatalf("gap flushes = %d, want 1", n)
			}
			// The proxy is caught up: in-order events keep applying
			// without another flush.
			_ = store.Set(5, 2, []byte("fresh"))
			hub.Broadcast("d", 5, 2) // seq 4
			if _, ok := store.Get(5, 2, false); ok {
				t.Fatal("post-flush invalidation not applied")
			}
			if n := counter(p, "dpc.pagecache_flushes"); n != 1 {
				t.Fatalf("flushes = %d after in-order resume, want 1", n)
			}
		})
	}
}

func TestDuplicateAndStaleEventsIdempotent(t *testing.T) {
	p := newProxy(t, nil)
	p.Apply(coherency.Event{Seq: 1, Key: 0})
	p.Apply(coherency.Event{Seq: 2, Key: 1})
	_ = p.Store().Set(0, 1, []byte("refilled"))
	_ = p.Store().Set(1, 1, []byte("refilled"))
	for _, ev := range []coherency.Event{{Seq: 2, Key: 1}, {Seq: 1, Key: 0}} { // duplicate, stale
		if acked := p.Apply(ev); acked != 2 {
			t.Fatalf("seq %d acked %d, want 2", ev.Seq, acked)
		}
	}
	if p.Store().Resident() != 2 {
		t.Fatal("duplicate/stale events were applied")
	}
	if n := counter(p, "dpc.pagecache_flushes"); n != 0 {
		t.Fatal("duplicates treated as gaps")
	}
}

// A proxy subscribed mid-stream meets the hub at its current sequence:
// its first event is not a gap.
func TestSeedSeqSuppressesInitialGap(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	for i := uint32(0); i < 6; i++ {
		hub.Broadcast("before", i, 1)
	}
	p := newProxy(t, nil)
	_ = p.Store().Set(2, 1, []byte("frag"))
	hub.Subscribe(p)
	if ev := hub.Broadcast("first", 0, 1); ev.Seq != 7 {
		t.Fatalf("first event seq = %d, want 7", ev.Seq)
	}
	if n := counter(p, "dpc.pagecache_flushes"); n != 0 || p.Store().Resident() != 1 {
		t.Fatalf("proxy subscribed mid-stream flushed on its first event (flushes %d)", n)
	}
	if hub.AckedThrough() != 7 {
		t.Fatalf("AckedThrough = %d, want 7", hub.AckedThrough())
	}
}

func TestHTTPBridgeDeliversAndAcks(t *testing.T) {
	p := newProxy(t, nil)
	_ = p.Store().Set(5, 9, []byte("stale"))
	edge := httptest.NewServer(coherency.Handler(p))
	defer edge.Close()

	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	remote := &coherency.RemoteSubscriber{URL: edge.URL}
	hub.Subscribe(remote)

	hub.Broadcast("f", 5, 9)
	if _, ok := p.Store().Get(5, 9, false); ok {
		t.Fatal("edge store still holds invalidated slot")
	}
	if hub.AckedThrough() != 1 {
		t.Fatalf("AckedThrough = %d", hub.AckedThrough())
	}
}

func TestHTTPBridgeToleratesDeadEdge(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	remote := &coherency.RemoteSubscriber{URL: "http://127.0.0.1:1/invalidate"}
	hub.Subscribe(remote)
	hub.Broadcast("f", 0, 1) // must not panic or block
	if remote.Errors() != 1 {
		t.Fatalf("errors = %d", remote.Errors())
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	edge := httptest.NewServer(coherency.Handler(&recorder{}))
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
