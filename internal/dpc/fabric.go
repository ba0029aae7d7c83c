package dpc

import (
	"strings"
	"sync"
	"sync/atomic"

	"dpcache/internal/coherency"
	"dpcache/internal/depindex"
	"dpcache/internal/metrics"
)

// This file is the proxy's end of the invalidation fabric
// (internal/coherency). The hub numbers and delivers events; Apply is the
// one place a proxy applies them, to all three of its tiers — the fragment
// store, the whole-response tier and the plan tier — and to its template
// leases (lease.go), under one sequence cursor.

// Why the fabric flushed the whole-response tier. Each cause has its
// counter and, as the dependency index's epoch-bump cause, reaches the
// trace of every in-flight fill the flush refused.
const (
	// FlushGap: a sequence gap — events were lost, and any of them could
	// have named an entry of any tier.
	FlushGap = "gap"
	// FlushEvent: a flush event scoped to the tier (or to every tier).
	FlushEvent = "event"
)

// fabric is the proxy's position in the hub's event stream and the
// counters Apply moves.
type fabric struct {
	mu      sync.Mutex
	lastSeq uint64
	// attached flips when the first event applies: from then on the proxy
	// hears the BEM's invalidations, and asks for leases.
	attached atomic.Bool

	dropped *metrics.Counter            // dpc.pagecache_invalidations
	shed    *metrics.Counter            // dpc.pagecache_shed_drops
	flushes *metrics.Counter            // dpc.pagecache_flushes
	byCause map[string]*metrics.Counter // dpc.pagecache_{gap,event}_flushes
}

// register looks the counters up once, so they read 0 before the first
// event.
func (f *fabric) register(reg *metrics.Registry) {
	f.dropped = reg.Counter("dpc.pagecache_invalidations")
	f.shed = reg.Counter("dpc.pagecache_shed_drops")
	f.flushes = reg.Counter("dpc.pagecache_flushes")
	f.byCause = map[string]*metrics.Counter{
		FlushGap:   reg.Counter("dpc.pagecache_gap_flushes"),
		FlushEvent: reg.Counter("dpc.pagecache_event_flushes"),
	}
}

// Apply implements coherency.Subscriber, so a proxy is what a hub
// subscribes and what coherency.Handler serves. It returns the highest
// sequence number applied.
//
//   - A duplicate or older event is acknowledged and ignored.
//   - A skipped sequence number flushes each tier once, and clears the
//     leases, before the event applies. The first event after subscribing
//     is never a gap: the proxy held nothing the events before it could
//     name.
//   - A fragment event raises the slot's floor past the generation, which
//     voids every lease naming it and refuses any late SET of it and any
//     fill built from it; drops the slot; then drops exactly the
//     whole-response entries the dependency index says were composed from
//     that generation, and the index forgets it. Plans hold no fragment
//     bytes and are left alone.
//   - A purge deletes every whole-response entry for the URI.
//   - A flush scoped "store", "page"/"static" or "plan" empties that tier;
//     "" empties all three.
func (p *Proxy) Apply(ev coherency.Event) uint64 {
	f := &p.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.Seq <= f.lastSeq {
		return f.lastSeq
	}
	if f.lastSeq != 0 && ev.Seq != f.lastSeq+1 {
		p.store.DropAll()
		p.flushPages(FlushGap) // bumps the epoch first: no lease fetched before the gap is filed
		p.plans.Store().Flush()
		p.leases.clear(voidGap)
	}
	f.lastSeq = ev.Seq
	if !f.attached.Load() {
		p.leases.open()
		f.attached.Store(true)
	}
	switch ev.Kind {
	case coherency.KindFragment:
		// The floor is raised before Invalidate takes Filing exclusively:
		// an in-flight capture that read this fragment's bytes either filed
		// before it, edges and all, for the Delete below to find, or sees
		// the floor and does not file — the rule a lease is voided by.
		p.floors.raise(ev.Key, ev.Gen)
		p.store.Drop(ev.Key)
		for _, k := range p.depix.Invalidate(depindex.MakeID(ev.Key, ev.Gen)) {
			if p.pages.Delete(k) {
				f.dropped.Inc()
			}
		}
	case coherency.KindPurge:
		prefix := PageKeyPrefix(ev.URI)
		f.dropped.Add(int64(p.pages.DeleteFunc(func(key string) bool { return strings.HasPrefix(key, prefix) })))
	case coherency.KindFlush:
		all := ev.Scope == ""
		if all || ev.Scope == "store" {
			p.store.DropAll()
		}
		if all || ev.Scope == "page" || ev.Scope == "static" {
			p.flushPages(FlushEvent)
		}
		if all || ev.Scope == "plan" {
			p.plans.Store().Flush()
		}
	}
	return f.lastSeq
}

// dropShed deletes an entry whose dependency record the index shed: with
// the record gone, no fragment event could find the entry any more.
func (p *Proxy) dropShed(key string) {
	if p.pages.Delete(key) {
		p.fabric.shed.Inc()
	}
}

// flushPages empties the whole-response tier and counts the flush by cause.
func (p *Proxy) flushPages(cause string) {
	// Kill in-flight fills first: a capture filed after this flush would
	// resurrect an entry the flush was meant to remove, and one filed
	// before the bump is there for the flush to remove.
	p.depix.BumpEpoch(cause)
	p.pages.Flush()
	p.fabric.flushes.Inc()
	p.fabric.byCause[cause].Inc()
}
