// Package coherency is the invalidation fabric: it turns the BEM's
// invalidation stream into a sequenced broadcast that *every* cache tier
// subscribes to — fragment stores on edge DPCs, and the keyed
// whole-response and plan tiers on any proxy.
//
// It began (paper Section 7) as the answer to multi-edge fragment
// coherency: the reverse-proxy design needs no invalidation channel at
// all — the BEM simply stops referencing a slot until a SET reuses it —
// but a forward-deployed DPC that cached a fragment keeps serving it
// until its own slot is overwritten, which may never happen. The same
// silence problem reappears inside a single proxy once whole pages are
// cached: a page-tier entry is an opaque blob the BEM's slot discipline
// cannot reach, so without the fabric only its TTL bounds staleness.
//
// The Hub assigns each event a monotonically increasing sequence number;
// a subscriber that observes a gap (lost event) conservatively flushes
// its whole store and resynchronizes, trading a burst of misses for
// guaranteed freshness. Events are typed: fragment invalidations (the
// BEM's stream), scoped URI purges, and whole-tier flushes. Subscribers
// acknowledge events, and AckedThrough reports the sequence number every
// subscriber has durably applied — the property the stale-read tests
// assert on.
//
// Two subscriber families cover the tiers:
//
//   - StoreSubscriber drops fragment-store slots (any fragstore backend).
//   - TierSubscriber keeps a keyed tier coherent. The page subscriber
//     (one per proxy, for the whole-response tier under both of its
//     admission rules) consults the proxy's dependency index
//     (internal/depindex) to surgically drop only the entries composed
//     from the invalidated fragment, falling back to a tier flush when the
//     index has evicted the edge and cannot answer authoritatively. The
//     plan subscriber only flushes.
package coherency

import (
	"slices"
	"sync"

	"dpcache/internal/bem"
	"dpcache/internal/depindex"
	"dpcache/internal/fragstore"
)

// Kind discriminates event payloads.
type Kind uint8

// Event kinds.
const (
	// KindFragment invalidates one fragment (slot key + generation).
	KindFragment Kind = iota
	// KindPurge drops every keyed-tier entry for one request URI (all
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

// Subscriber consumes invalidation events. Apply must be idempotent; the
// hub may redeliver during resync.
type Subscriber interface {
	// Apply processes one event and returns the highest sequence number
	// the subscriber has applied.
	Apply(ev Event) uint64
}

// Hub fans invalidation events out to subscribers.
type Hub struct {
	mu   sync.Mutex
	seq  uint64
	subs []Subscriber
	acks []uint64
	log  []Event // retained for resync; bounded by Trim
	// MaxLog bounds the retained event log (default 4096).
	MaxLog int
}

// NewHub returns a hub wired to the monitor's invalidation stream.
func NewHub(mon *bem.Monitor) *Hub {
	h := &Hub{MaxLog: 4096}
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
// "store", or "" for all) on every subscriber.
func (h *Hub) BroadcastFlush(scope string) Event {
	return h.BroadcastEvent(Event{Kind: KindFlush, Scope: scope})
}

// BroadcastEvent assigns the next sequence number and delivers the event
// to every subscriber synchronously.
func (h *Hub) BroadcastEvent(ev Event) Event {
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	h.log = append(h.log, ev)
	if max := h.MaxLog; max > 0 && len(h.log) > max {
		h.log = append([]Event(nil), h.log[len(h.log)-max:]...)
	}
	subs := append([]Subscriber(nil), h.subs...)
	h.mu.Unlock()

	for i, s := range subs {
		acked := s.Apply(ev)
		h.mu.Lock()
		if i < len(h.acks) && acked > h.acks[i] {
			h.acks[i] = acked
		}
		h.mu.Unlock()
	}
	return ev
}

// Seq returns the last assigned sequence number.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// AckedThrough returns the highest sequence number acknowledged by every
// subscriber (0 when there are none yet).
func (h *Hub) AckedThrough() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.acks) == 0 {
		return h.seq
	}
	min := h.acks[0]
	for _, a := range h.acks[1:] {
		if a < min {
			min = a
		}
	}
	return min
}

// Events returns the retained event log from seq (exclusive) onward; ok is
// false when the log no longer reaches back that far (subscriber must
// flush).
func (h *Hub) Events(after uint64) (evs []Event, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.log) == 0 {
		return nil, after >= h.seq
	}
	oldest := h.log[0].Seq
	if after+1 < oldest {
		return nil, false
	}
	for _, ev := range h.log {
		if ev.Seq > after {
			evs = append(evs, ev)
		}
	}
	return evs, true
}

// Fanout combines subscribers into one: Apply delivers the event to each
// and acknowledges the minimum — the hub's at-least-once/gap semantics
// then hold for the slowest member. The HTTP bridge uses it to drive
// every tier of an edge proxy from one invalidation endpoint.
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

// StoreSubscriber applies invalidations to a DPC's fragment store (any
// fragstore backend): the slot is dropped so the next GET misses and
// triggers the strict-mode refetch. A sequence gap flushes every slot.
type StoreSubscriber struct {
	mu      sync.Mutex
	store   fragstore.FragmentStore
	lastSeq uint64
	flushes int
	applied int
}

// NewStoreSubscriber wraps a store.
func NewStoreSubscriber(store fragstore.FragmentStore) *StoreSubscriber {
	return &StoreSubscriber{store: store}
}

// Apply implements Subscriber.
func (s *StoreSubscriber) Apply(ev Event) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastSeq != 0 && ev.Seq != s.lastSeq+1 && ev.Seq > s.lastSeq {
		// Gap: events were lost. Flush everything.
		s.store.DropAll()
		s.flushes++
	}
	if ev.Seq > s.lastSeq {
		switch ev.Kind {
		case KindFragment:
			s.store.Drop(ev.Key)
		case KindFlush:
			if ev.Scope == "" || ev.Scope == "store" {
				s.store.DropAll()
				s.flushes++
			}
		case KindPurge:
			// Keyed-tier payload; nothing for a slot store to do, but the
			// sequence cursor still advances so no false gap follows.
		}
		s.lastSeq = ev.Seq
		s.applied++
	}
	return s.lastSeq
}

// Flushes reports how many full flushes were applied (gap detection or
// flush-scope events).
func (s *StoreSubscriber) Flushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// Applied reports how many events were applied.
func (s *StoreSubscriber) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// SeedSeq initializes the subscriber's sequence cursor (used when
// attaching to a hub mid-stream after an explicit flush).
func (s *StoreSubscriber) SeedSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeq = seq
}

// KeyedTier is the string-keyed cache surface a TierSubscriber drives —
// implemented by pagecache.Cache and therefore by the DPC's
// whole-response tier.
type KeyedTier interface {
	// Delete removes one entry, reporting whether it was resident.
	Delete(key string) bool
	// DeleteFunc removes entries by predicate, returning the count.
	DeleteFunc(pred func(key string) bool) int
	// Flush empties the tier.
	Flush()
}

// TierSubscriber keeps one keyed cache tier coherent with the BEM's
// fragment stream. On a fragment invalidation it asks the
// dependency index which keys were composed from the dead fragment and
// drops exactly those; when the index cannot answer authoritatively (the
// edge was evicted recently) it falls back to flushing the tier. It
// always tombstones the invalidated ref first, so in-flight response
// captures that read the fragment before it died refuse to file.
type TierSubscriber struct {
	mu   sync.Mutex
	tier KeyedTier
	ix   *depindex.Index
	// scopes are the flush-scope names that address the tier.
	scopes []string
	// fragmentEvents marks the tier as able to hold fragment-composed
	// entries. When false (the plan tier: compiled programs are keyed by
	// template content hash and retain no fragment bytes), fragment
	// invalidations are skipped outright — consulting the shared index
	// would double-count lookups and, under index eviction pressure,
	// needlessly flush the tier per event.
	fragmentEvents bool

	lastSeq   uint64
	applied   int
	dropped   int64
	flushes   int
	fallbacks int

	// KeyPrefix maps a purge URI to the tier's key-prefix for that URI
	// (every variant shares it). Set by the wiring layer, which knows the
	// tier's key schema; nil disables KindPurge handling.
	KeyPrefix func(uri string) string
	// OnDrop, when set, observes every batch of surgically dropped
	// entries (the wiring layer bumps a metrics counter here).
	OnDrop func(n int)
	// OnFlush, when set, observes every tier flush with its cause (one of
	// the Flush* constants; the wiring layer counts them).
	OnFlush func(cause string)
}

// Why a TierSubscriber flushed its tier. The cause reaches OnFlush and, as
// the dependency index's epoch-bump cause, the trace of every in-flight
// fill the flush refused.
const (
	// FlushGap: a sequence gap — events were lost, and any of them could
	// have named an entry of this tier.
	FlushGap = "gap"
	// FlushEvent: a flush event scoped to this tier (or to all).
	FlushEvent = "event"
	// FlushFallback: a fragment event the dependency index could not answer
	// authoritatively (or there is no index to ask).
	FlushFallback = "index-inexact"
)

// NewPageSubscriber returns a subscriber keeping a whole-response tier
// coherent: the entries of both its admission rules — pages, and the
// responses the origin opted in (plain assets, and assembled template
// pages whose edges are in the index like any page's). A flush scoped
// "page" or "static" empties it. ix is the owning proxy's dependency
// index; nil is allowed and makes every fragment event a conservative
// tier flush.
func NewPageSubscriber(tier KeyedTier, ix *depindex.Index) *TierSubscriber {
	return &TierSubscriber{tier: tier, ix: ix, scopes: []string{"page", "static"}, fragmentEvents: true}
}

// NewPlanSubscriber returns a subscriber keeping a compiled-template
// plan cache coherent. Plans are keyed by a content hash of the template
// bytes and retain no fragment content — a changed fragment changes what
// an execution resolves, never the compiled program — so fragment
// invalidations and URI purges are no-ops here. The subscriber exists
// for "plan"-scoped (and global) flushes and for gap recovery: a lost
// event could have been such a flush, so the tier conservatively empties
// and recompiles on demand.
func NewPlanSubscriber(tier KeyedTier) *TierSubscriber {
	return &TierSubscriber{tier: tier, scopes: []string{"plan"}}
}

// Apply implements Subscriber.
func (s *TierSubscriber) Apply(ev Event) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastSeq != 0 && ev.Seq != s.lastSeq+1 && ev.Seq > s.lastSeq {
		s.flushLocked(FlushGap) // events were lost
	}
	if ev.Seq <= s.lastSeq {
		return s.lastSeq // duplicate or stale redelivery
	}
	s.lastSeq = ev.Seq
	s.applied++
	switch ev.Kind {
	case KindFragment:
		if s.fragmentEvents {
			s.applyFragmentLocked(ev)
		}
	case KindPurge:
		if s.KeyPrefix != nil {
			prefix := s.KeyPrefix(ev.URI)
			n := s.tier.DeleteFunc(func(key string) bool {
				return len(key) >= len(prefix) && key[:len(prefix)] == prefix
			})
			s.noteDropsLocked(n)
		}
	case KindFlush:
		if ev.Scope == "" || slices.Contains(s.scopes, ev.Scope) {
			s.flushLocked(FlushEvent)
		}
	}
	return s.lastSeq
}

func (s *TierSubscriber) applyFragmentLocked(ev Event) {
	if s.ix == nil {
		// No index to consult: the only sound answer is a flush.
		s.fallbacks++
		s.flushLocked(FlushFallback)
		return
	}
	ref := depindex.MakeID(ev.Key, ev.Gen)
	// Tombstone first: an in-flight capture that read this fragment's
	// bytes before the drop either filed before the marker, edges and
	// all, for the Delete below to find, or sees the marker and does not
	// file.
	s.ix.MarkInvalid(ref)
	keys, exact := s.ix.Lookup(ref)
	if !exact {
		// The index evicted edges recently; this fragment's may be among
		// them. Trade a burst of misses for guaranteed freshness.
		s.fallbacks++
		s.flushLocked(FlushFallback)
		return
	}
	n := 0
	for _, k := range keys {
		if s.tier.Delete(k) {
			n++
		}
	}
	s.noteDropsLocked(n)
}

func (s *TierSubscriber) flushLocked(cause string) {
	if s.ix != nil {
		// Kill in-flight fills first: a capture filed after this flush
		// would resurrect an entry the flush was meant to remove, and one
		// filed before the bump is there for the flush to remove.
		s.ix.BumpEpoch(cause)
	}
	s.tier.Flush()
	s.flushes++
	if s.OnFlush != nil {
		s.OnFlush(cause)
	}
}

func (s *TierSubscriber) noteDropsLocked(n int) {
	if n <= 0 {
		return
	}
	s.dropped += int64(n)
	if s.OnDrop != nil {
		s.OnDrop(n)
	}
}

// Applied reports how many events were applied.
func (s *TierSubscriber) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Dropped reports how many entries were surgically dropped.
func (s *TierSubscriber) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Flushes reports tier flushes (gaps, flush events, index fallbacks).
func (s *TierSubscriber) Flushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// Fallbacks reports fragment events the index could not answer
// authoritatively, each of which forced a tier flush.
func (s *TierSubscriber) Fallbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallbacks
}

// SeedSeq initializes the sequence cursor (attach mid-stream after an
// explicit flush).
func (s *TierSubscriber) SeedSeq(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSeq = seq
}
