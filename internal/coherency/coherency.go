// Package coherency is the invalidation fabric's sender side: it numbers
// each event of the BEM's invalidation stream, delivers it to every
// subscriber, and reports the lowest sequence number every subscriber has
// acknowledged. A subscriber is pushed to (Subscribe; over HTTP,
// RemoteSubscriber and Handler) or pulls the events from the stream the hub
// serves (pull.go). What an event means to a cache — which slot, page or
// plan it empties — is the subscriber's business; a proxy subscribes itself
// (dpc.Proxy.Apply) and applies each event to all of its tiers.
//
// It began (paper Section 7) as the answer to multi-edge fragment
// coherency: the reverse-proxy design needs no invalidation channel at
// all — the BEM simply stops referencing a slot until a SET reuses it —
// but a forward-deployed DPC that cached a fragment keeps serving it
// until its own slot is overwritten, which may never happen. The same
// silence problem reappears inside a single proxy once whole pages are
// cached: a whole-response entry is an opaque blob the BEM's slot
// discipline cannot reach, so without the fabric only its TTL bounds
// staleness.
//
// Events are typed: fragment invalidations (the BEM's stream), URI
// purges, and scoped flushes. There is no resync: a subscriber that
// observes a sequence gap (a lost event) conservatively flushes, trading a
// burst of misses for guaranteed freshness. AckedThrough is the property
// the stale-read tests assert on.
package coherency

import (
	"math/rand/v2"
	"sync"
	"time"

	"dpcache/internal/bem"
)

// Kind discriminates event payloads.
type Kind uint8

// Event kinds.
const (
	// KindFragment invalidates one fragment (slot key + generation).
	KindFragment Kind = iota
	// KindPurge drops every whole-response entry for one request URI (all
	// variants) — an explicit, surgical purge.
	KindPurge
	// KindFlush empties the tiers matching Scope.
	KindFlush
)

// Event is one broadcast invalidation.
type Event struct {
	// Seq is the hub-assigned sequence number, starting at 1.
	Seq uint64
	// Kind selects which payload fields below are meaningful.
	Kind Kind
	// FragmentID names the invalidated fragment (KindFragment).
	FragmentID string
	// Key is the DPC slot the fragment occupied (KindFragment).
	Key uint32
	// Gen is the generation that became invalid (KindFragment).
	Gen uint32
	// Reason says why the fragment died (KindFragment; bem reason string).
	Reason string
	// URI is the request URI whose entries are purged (KindPurge).
	URI string
	// Scope targets KindFlush: "page" or "static" (both name the
	// whole-response tier), "store", "plan", or "" for every tier.
	Scope string
}

// Subscriber consumes invalidation events. Apply must be idempotent: a
// duplicate or older event is acknowledged and ignored.
type Subscriber interface {
	// Apply processes one event and returns the highest sequence number
	// the subscriber has applied.
	Apply(ev Event) uint64
}

// Hub fans invalidation events out to subscribers.
type Hub struct {
	// deliver is held while one event is numbered and delivered, so that
	// every subscriber applies events in sequence order. It is not mu:
	// Subscribe, Seq and AckedThrough never wait on a delivery.
	deliver sync.Mutex

	mu   sync.Mutex
	seq  uint64
	subs []Subscriber
	acks []uint64

	// The pull side (pull.go): the incarnation, the drop bound, the last
	// events by sequence number modulo retain, the pullers by id, and a
	// channel closed and replaced whenever the sequence moves or a puller
	// joins, acks or is dropped.
	inc, lastSub       uint64
	bound              time.Duration
	ring               []Event
	pullers            map[uint64]*puller
	changed            chan struct{}
	polls, gaps, drops uint64
}

// NewHub returns a hub wired to the monitor's invalidation stream.
func NewHub(mon *bem.Monitor) *Hub {
	h := &Hub{
		inc:     rand.Uint64() | 1,
		bound:   DropAfter,
		ring:    make([]Event, retain),
		pullers: make(map[uint64]*puller),
		changed: make(chan struct{}),
	}
	mon.OnInvalidate(func(fragID string, key, gen uint32, reason bem.InvalidationReason) {
		h.BroadcastEvent(Event{
			Kind: KindFragment, FragmentID: fragID, Key: key, Gen: gen,
			Reason: string(reason),
		})
	})
	return h
}

// Subscribe adds a subscriber; events broadcast before subscription are
// not replayed (the subscriber starts empty, so it holds nothing stale).
func (h *Hub) Subscribe(s Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = append(h.subs, s)
	h.acks = append(h.acks, h.seq) // nothing older can be stale in it
}

// Broadcast delivers a fragment invalidation (compatibility helper; the
// generalized entry point is BroadcastEvent).
func (h *Hub) Broadcast(fragID string, key, gen uint32) Event {
	return h.BroadcastEvent(Event{Kind: KindFragment, FragmentID: fragID, Key: key, Gen: gen})
}

// BroadcastPurge drops every whole-response tier entry (either admission
// rule, all variants) for one request URI on every subscriber.
func (h *Hub) BroadcastPurge(uri string) Event {
	return h.BroadcastEvent(Event{Kind: KindPurge, URI: uri})
}

// BroadcastFlush empties the tiers matching scope ("page", "static",
// "store", "plan", or "" for all) on every subscriber.
func (h *Hub) BroadcastFlush(scope string) Event {
	return h.BroadcastEvent(Event{Kind: KindFlush, Scope: scope})
}

// BroadcastEvent assigns the next sequence number, delivers the event to
// every subscriber synchronously, and returns once every puller has acked
// it or been dropped, within twice DropAfter (pull.go). Concurrent calls deliver one at a time, in
// the order they were numbered: a subscriber never sees n+1 before n.
func (h *Hub) BroadcastEvent(ev Event) Event {
	ev, pulled := h.number(ev)
	if pulled {
		h.awaitPullers(ev.Seq)
	}
	return ev
}

// number assigns ev the next sequence number, keeps it for pullers, wakes
// their polls and delivers it to the push subscribers under the delivery
// lock. It reports whether any puller must ack it; one that joins later
// starts past it.
func (h *Hub) number(ev Event) (Event, bool) {
	h.deliver.Lock()
	defer h.deliver.Unlock()
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	h.ring[ev.Seq%retain] = ev
	pulled := len(h.pullers) > 0
	if pulled {
		h.notifyLocked()
	}
	subs := append([]Subscriber(nil), h.subs...)
	h.mu.Unlock()
	h.push(subs, ev)
	return ev, pulled
}

// push delivers ev to the push subscribers subs, in order, recording each
// one's ack; the caller holds h.deliver.
func (h *Hub) push(subs []Subscriber, ev Event) {
	for i, s := range subs {
		acked := s.Apply(ev)
		h.mu.Lock()
		if i < len(h.acks) && acked > h.acks[i] {
			h.acks[i] = acked
		}
		h.mu.Unlock()
	}
}

// Seq returns the last assigned sequence number.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// AckedThrough returns the highest sequence number acknowledged by every
// subscriber, pushed or pulling (the last assigned one when there are none).
func (h *Hub) AckedThrough() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := h.seq
	for _, a := range h.acks {
		lo = min(lo, a)
	}
	for _, p := range h.pullers {
		lo = min(lo, p.acked)
	}
	return lo
}

// Fanout combines subscribers into one: Apply delivers the event to each
// and acknowledges the minimum, so the hub's gap semantics hold for the
// slowest member.
func Fanout(subs ...Subscriber) Subscriber { return fanout(subs) }

type fanout []Subscriber

func (f fanout) Apply(ev Event) uint64 {
	var min uint64
	for i, s := range f {
		acked := s.Apply(ev)
		if i == 0 || acked < min {
			min = acked
		}
	}
	return min
}
