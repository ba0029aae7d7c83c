package dpc

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/metrics"
)

// This file is the proxy's end of the invalidation fabric
// (internal/coherency). The hub numbers and delivers events; Apply is the
// one place a proxy applies them, to all three of its tiers — the fragment
// store, the whole-response tier and the plan tier — and to its template
// leases (lease.go), under one sequence cursor. Events reach Apply in one of
// two ways: a hub pushes them (Hub.Subscribe in process, or
// coherency.RemoteSubscriber posting to coherency.Handler), or the proxy
// pulls them from its origin's stream (Join, Follow).

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
	// attached flips when the first event applies, or the first answer of a
	// pulled stream: from then on the proxy hears the BEM's invalidations,
	// and asks for leases, for as long as it is live.
	attached atomic.Bool
	// cursor is the proxy's place in the stream it pulls, its After unused
	// (lastSeq is the ack); zero while it pulls none. trust is how long the
	// stream's last answer said an answer may be relied on.
	cursor coherency.Cursor
	trust  time.Duration
	// trusted is 0 for a pushed fabric, which is live once attached. On a
	// pulled one it is when, in mono time, the proxy stops relying on
	// having heard every event: the send of the poll last answered plus the
	// answer's Trust, so before the hub can have dropped it.
	trusted atomic.Int64
	// epoch counts the whole-response tier's flushes. An entry or a fill
	// whose record carries an older one (voided), and a lease fetched
	// under one (grantLease), is void; cause is why it last moved.
	epoch atomic.Uint64
	cause atomic.Pointer[string]

	dropped *metrics.Counter            // dpc.pagecache_invalidations
	flushes *metrics.Counter            // dpc.pagecache_flushes
	byCause map[string]*metrics.Counter // dpc.pagecache_{gap,event}_flushes

	polls, pollErrors, gaps *metrics.Counter // dpc.fabric_{polls,poll_errors,gaps}
}

// monoBase anchors mono.
var monoBase = time.Now()

// mono is the process's monotonic time in nanoseconds. A pulled stream's
// trust is wall time whatever Config.Clock is: the stream is a socket.
func mono() int64 { return int64(time.Since(monoBase)) }

// live reports whether the proxy hears every event now: it has attached,
// and a pulled stream's last answer is still trusted.
func (f *fabric) live() bool {
	if !f.attached.Load() {
		return false
	}
	t := f.trusted.Load()
	return t == 0 || mono() < t
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
	f.polls = reg.Counter("dpc.fabric_polls")
	f.pollErrors = reg.Counter("dpc.fabric_poll_errors")
	f.gaps = reg.Counter("dpc.fabric_gaps")
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
		p.flushGap()
	}
	f.lastSeq = ev.Seq
	p.attachLocked()
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

// flushGap empties every tier and clears the leases: events were lost, and
// any of them could have named anything the proxy holds. The caller holds
// the fabric's mutex.
func (p *Proxy) flushGap() {
	p.store.DropAll()
	p.flushPages(FlushGap) // bumps the epoch first: no lease fetched before the gap is filed
	p.plans.Store().Flush()
	p.leases.clear(voidGap)
}

// attachLocked joins the proxy to the fabric, once; the caller holds the
// fabric's mutex.
func (p *Proxy) attachLocked() {
	if !p.fabric.attached.Load() {
		p.leases.open()
		p.fabric.attached.Store(true)
	}
}

// Join polls the event stream of the proxy's origin (coherency.EventsPath)
// once. On an answer the proxy's cursor is the hub's sequence and the proxy
// is attached: it asks for leases from its next request. It returns
// coherency.ErrNoStream when the origin serves no stream — the proxy then
// speaks the paper's protocol, asking the origin on every request — and the
// poll's error when there was no answer.
func (p *Proxy) Join(ctx context.Context) error {
	return p.pull(ctx, &http.Client{Transport: p.client.Transport})
}

// Follow pulls the origin's event stream until ctx ends, joining it first
// if Join has not, and applies every event through Apply. A poll that
// fails is retried after a quarter of the hub's bound; until an answer
// comes the proxy's trust in the last one lapses, and with it its leases
// and the page tier's answers to identified visitors (live), before the hub
// can drop it. A proxy the hub dropped, or whose origin restarted, is
// answered a gap: it flushes every tier, as for lost events, and goes on
// from the hub's sequence. Until the stream has answered once, the retries
// back off (retryAfter), and an answer that says the origin serves no
// stream is final: Follow returns coherency.ErrNoStream. After that, such
// an answer is one more failed poll (an origin restarting behind a
// balancer, say). Follow returns nil when ctx ends. Once it has returned,
// the proxy is no longer live on the fabric.
func (p *Proxy) Follow(ctx context.Context) error {
	// A proxy that no longer follows no longer trusts what it heard.
	defer p.fabric.trusted.Store(1)
	client := &http.Client{Transport: p.client.Transport}
	var wait time.Duration
	for {
		err := p.pull(ctx, client)
		if ctx.Err() != nil {
			return nil
		}
		if err == nil {
			wait = 0
			continue
		}
		c, trust := p.position()
		if c.Sub == 0 && errors.Is(err, coherency.ErrNoStream) {
			return err
		}
		wait = retryAfter(wait, trust, c.Sub != 0)
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
	}
}

// maxRetry caps the back-off of Follow's retries against an origin whose
// stream has never answered.
const maxRetry = 30 * time.Second

// retryAfter is how long Follow waits after a failed poll, the one before
// it (if it failed too) having waited prev: a third of the trust, so a
// stream that has answered is asked again before its trust lapses, and,
// while the stream never has, twice prev up to maxRetry.
func retryAfter(prev, trust time.Duration, answered bool) time.Duration {
	if answered || prev == 0 {
		return trust / 3
	}
	return min(2*prev, maxRetry)
}

// position is the proxy's cursor in the stream, its ack included, and the
// trust the stream's last answer gave (the default hub's before any).
func (p *Proxy) position() (coherency.Cursor, time.Duration) {
	f := &p.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	c, trust := f.cursor, f.trust
	c.After = f.lastSeq
	if trust == 0 {
		trust = coherency.Answer{Bound: coherency.DropAfter}.Trust()
	}
	return c, trust
}

// pull sends one poll from the proxy's cursor, bounded by the stream's
// trust, and follows its answer.
func (p *Proxy) pull(ctx context.Context, client *http.Client) error {
	c, trust := p.position()
	ctx, cancel := context.WithTimeout(ctx, trust)
	defer cancel()
	sent := mono()
	a, err := coherency.Poll(ctx, client, p.cfg.OriginURL+coherency.EventsPath, c)
	p.fabric.polls.Inc()
	if err != nil {
		p.fabric.pollErrors.Inc()
		return err
	}
	p.follow(a, sent)
	return nil
}

// follow applies one answer of the pulled stream, to a poll sent at sent.
// An answer under a new subscription restarts the cursor at the hub's
// sequence, after flushing every tier if it is a gap; its events then
// apply in order. The answer is trusted from the poll's send.
func (p *Proxy) follow(a coherency.Answer, sent int64) {
	f := &p.fabric
	f.mu.Lock()
	if a.Sub != f.cursor.Sub || a.Inc != f.cursor.Inc {
		if a.Gap {
			p.flushGap()
			f.gaps.Inc()
		}
		f.cursor = coherency.Cursor{Inc: a.Inc, Sub: a.Sub}
		f.lastSeq = a.Seq
	}
	f.trust = a.Trust()
	f.mu.Unlock()
	for _, ev := range a.Events {
		p.Apply(ev)
	}
	f.trusted.Store(sent + int64(a.Trust()))
	f.mu.Lock()
	p.attachLocked()
	f.mu.Unlock()
}

// fabricStats is the fabric section of /_dpc/stats.
func (p *Proxy) fabricStats() map[string]any {
	f := &p.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	return map[string]any{
		"cursor":      f.lastSeq,
		"attached":    f.live(),
		"pulled":      f.cursor.Sub != 0,
		"polls":       f.polls.Value(),
		"poll_errors": f.pollErrors.Value(),
		"gaps":        f.gaps.Value(),
	}
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
