package dpc

import (
	"strings"
	"sync"
	"sync/atomic"

	"dpcache/internal/coherency"
	"dpcache/internal/metrics"
)

// This file is the proxy's end of the invalidation fabric
// (internal/coherency). The hub numbers and delivers events; Apply is the
// one place a proxy applies them, to all three of its tiers — the fragment
// store, the whole-response tier and the plan tier — and to its template
// leases (lease.go), under one sequence cursor.

// Why the fabric flushed the whole-response tier. Each cause has its
// counter and, as the epoch's last cause, reaches the trace of every fill
// and every read the flush voided.
const (
	// FlushGap: a sequence gap — events were lost, and any of them could
	// have named an entry of any tier.
	FlushGap = "gap"
	// FlushEvent: a flush event scoped to the tier (or to every tier).
	FlushEvent = "event"
)

// fabric is the proxy's position in the hub's event stream, the tier's
// flush epoch and the counters Apply moves.
type fabric struct {
	mu      sync.Mutex
	lastSeq uint64
	// attached flips when the first event applies: from then on the proxy
	// hears the BEM's invalidations, and asks for leases.
	attached atomic.Bool
	// epoch counts the whole-response tier's flushes. An entry or a fill
	// whose record carries an older one (voided), and a lease fetched
	// under one (grantLease), is void; cause is why it last moved.
	epoch atomic.Uint64
	cause atomic.Pointer[string]

	dropped *metrics.Counter            // dpc.pagecache_invalidations
	flushes *metrics.Counter            // dpc.pagecache_flushes
	byCause map[string]*metrics.Counter // dpc.pagecache_{gap,event}_flushes
}

// register looks the counters up once, so they read 0 before the first
// event.
func (f *fabric) register(reg *metrics.Registry) {
	f.dropped = reg.Counter("dpc.pagecache_invalidations")
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
//   - A fragment event raises the slot's floor past the generation and
//     drops the slot, and that is all it does. The floor voids every lease
//     naming the generation, refuses any late SET of it, and voids every
//     whole-response entry built from it, where the entry is filed or read
//     (voided). Plans hold no fragment bytes and are left alone.
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
		p.floors.raise(ev.Key, ev.Gen)
		p.store.Drop(ev.Key)
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

// flushPages ends the tier's epoch, then empties the tier to reclaim its
// memory, and counts the flush by cause.
func (p *Proxy) flushPages(cause string) {
	// The bump is what voids: an entry filed under the old epoch, however
	// late its fill lands, is void wherever it is found. The cause is
	// stored first, so a reader that sees the new epoch sees its cause.
	p.fabric.cause.Store(&cause)
	p.fabric.epoch.Add(1)
	p.pages.Flush()
	p.fabric.flushes.Inc()
	p.fabric.byCause[cause].Inc()
}

// flushCause is why the tier's epoch last moved ("" if it never has).
func (f *fabric) flushCause() string {
	if c := f.cause.Load(); c != nil {
		return *c
	}
	return ""
}
