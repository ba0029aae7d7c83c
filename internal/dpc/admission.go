package dpc

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/trace"
)

// The admission stage is the proxy's overload valve, mounted between the
// cache-hit tiers and coalesce. Every stage before it can answer from
// memory; everything after it queues work on the origin. Under measured
// pressure — origin in-flight count, origin latency EWMA, per-tenant
// concurrency, coalesce-flight queue depth, or a negative-cache hit from a
// recent origin failure — the stage answers from an expired cache entry
// (stale-while-revalidate, X-Cache: STALE, with one background
// revalidation refreshing the tier) rather than queueing, and sheds with a
// fast 503 + Retry-After when no stale copy exists and the signal is hard.
// The paper's DPC sits on the critical path of every dynamic request;
// without this valve a saturated origin queues every miss and a capture
// storm degrades all users equally. Each signal stays because the overload
// harness (overload_test.go) shows that removing it changes an outcome.

// Defaults when the corresponding Config field is zero.
const (
	// defaultStaleWindow bounds how far past its TTL a cache entry may be
	// served under pressure.
	defaultStaleWindow = 30 * time.Second
	// defaultNegTTL is the negative-cache lifetime of an origin failure.
	defaultNegTTL = time.Second
	// defaultRetryAfter is the Retry-After hint on shed 503s.
	defaultRetryAfter = time.Second
	// maxNegEntries bounds the negative cache; past it, inserts sweep
	// expired entries and are dropped if the map is still full.
	maxNegEntries = 4096
	// maxConcurrentRevals bounds in-flight background revalidations, so a
	// burst of stale serves cannot itself become an origin storm.
	maxConcurrentRevals = 4
	// revalTimeout bounds one background revalidation.
	revalTimeout = 30 * time.Second
	// ewmaWeight is the denominator of the latency EWMA's update step
	// (alpha = 1/ewmaWeight).
	ewmaWeight = 5
)

// admitVerdict is the admission decision for one request.
type admitVerdict int

const (
	// admitOK: no pressure; proceed to the origin path.
	admitOK admitVerdict = iota
	// admitStale: soft pressure (the latency EWMA). Prefer a stale cache
	// entry; admit anyway when none exists — a soft signal degrades
	// quality, it does not refuse work.
	admitStale
	// admitShed: hard pressure (a bound is at its cap, or the origin
	// recently failed this key). Serve stale if a copy exists, else a
	// fast 503 + Retry-After — queueing would only deepen the overload.
	admitShed
)

// pressureSignals is one request's snapshot of every input the admission
// decision consumes. It is plain data so decide stays a pure function
// (table-tested in admission_test.go).
type pressureSignals struct {
	// flightExists reports a coalesce flight already open for this key:
	// the request will ride it as a follower, costing no origin work, so
	// only the queue bound applies.
	flightExists bool
	waiters      int // followers parked on that flight
	maxWaiters   int // Config.MaxFlightWaiters (0 = unbounded)

	negCached bool // the negative cache holds a recent origin failure for this key

	inFlight    int64 // origin requests currently in flight through this proxy
	maxInFlight int   // Config.MaxOriginInFlight (0 = unbounded)

	tenant         string // X-User, "" when anonymous
	tenantInFlight int    // in-flight origin requests for this tenant
	maxTenant      int    // Config.MaxTenantInFlight (0 = unbounded)

	latency     time.Duration // origin latency EWMA
	shedLatency time.Duration // Config.ShedLatency (0 disables the signal)
}

// decide maps a pressure snapshot to a verdict plus the signal that
// tripped ("queue", "negcache", "inflight", "per-tenant", "latency").
// Hard bounds are checked before the soft signal: a capped pipeline must
// shed even when the latency EWMA is calm.
func decide(sig pressureSignals) (admitVerdict, string) {
	if sig.flightExists {
		// A follower joins an existing fetch: the only way it adds load
		// is by deepening the flight's queue.
		if sig.maxWaiters > 0 && sig.waiters >= sig.maxWaiters {
			return admitShed, "queue"
		}
		return admitOK, ""
	}
	switch {
	case sig.negCached:
		return admitShed, "negcache"
	case sig.maxInFlight > 0 && sig.inFlight >= int64(sig.maxInFlight):
		return admitShed, "inflight"
	case sig.maxTenant > 0 && sig.tenant != "" && sig.tenantInFlight >= sig.maxTenant:
		return admitShed, "per-tenant"
	case sig.shedLatency > 0 && sig.latency >= sig.shedLatency:
		return admitStale, "latency"
	}
	return admitOK, ""
}

// admission is the pressure-measuring controller behind the stage. One
// instance per proxy; every field is safe for concurrent use.
type admission struct {
	clk         clock.Clock // the proxy's: negative-cache expiries
	staleWindow time.Duration
	negTTL      time.Duration
	retryAfter  time.Duration
	maxInFlight int
	maxTenant   int
	maxWaiters  int
	shedLatency time.Duration

	inflight atomic.Int64
	ewmaNS   atomic.Int64 // origin latency EWMA, nanoseconds

	mu        sync.Mutex
	perTenant map[string]int
	neg       map[string]time.Time // key → negative-cache expiry
	revals    map[string]struct{}  // keys with a revalidation in flight
	revalN    int
}

func newAdmission(cfg Config, clk clock.Clock) *admission {
	a := &admission{
		clk:         clk,
		staleWindow: cfg.StaleWindow,
		negTTL:      cfg.NegTTL,
		retryAfter:  cfg.RetryAfter,
		maxInFlight: cfg.MaxOriginInFlight,
		maxTenant:   cfg.MaxTenantInFlight,
		maxWaiters:  cfg.MaxFlightWaiters,
		shedLatency: cfg.ShedLatency,
		perTenant:   make(map[string]int),
		neg:         make(map[string]time.Time),
		revals:      make(map[string]struct{}),
	}
	if a.staleWindow <= 0 {
		a.staleWindow = defaultStaleWindow
	}
	if a.negTTL <= 0 {
		a.negTTL = defaultNegTTL
	}
	if a.retryAfter <= 0 {
		a.retryAfter = defaultRetryAfter
	}
	return a
}

// observe folds one origin round-trip into the latency EWMA.
func (a *admission) observe(d time.Duration) {
	for {
		old := a.ewmaNS.Load()
		nw := int64(d)
		if old != 0 {
			nw = old + (int64(d)-old)/ewmaWeight
		}
		if a.ewmaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// latency returns the current origin latency EWMA.
func (a *admission) latency() time.Duration {
	return time.Duration(a.ewmaNS.Load())
}

// acquire charges one origin-bound request against the global and
// per-tenant in-flight counts, returning an idempotent release.
func (a *admission) acquire(tenant string) func() {
	a.inflight.Add(1)
	if tenant != "" {
		a.mu.Lock()
		a.perTenant[tenant]++
		a.mu.Unlock()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			a.inflight.Add(-1)
			if tenant == "" {
				return
			}
			a.mu.Lock()
			if a.perTenant[tenant] <= 1 {
				delete(a.perTenant, tenant)
			} else {
				a.perTenant[tenant]--
			}
			a.mu.Unlock()
		})
	}
}

// negLookup reports whether key has an unexpired negative-cache entry.
func (a *admission) negLookup(key string) bool {
	now := a.clk.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	exp, ok := a.neg[key]
	if !ok {
		return false
	}
	if now.After(exp) {
		delete(a.neg, key)
		return false
	}
	return true
}

// negFill records an origin failure for key. Bounded: at the cap an
// insert sweeps expired entries first and is dropped if the map is still
// full — losing a negative entry only costs one extra origin attempt.
func (a *admission) negFill(key string) bool {
	now := a.clk.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.neg[key]; !ok && len(a.neg) >= maxNegEntries {
		for k, exp := range a.neg {
			if now.After(exp) {
				delete(a.neg, k)
			}
		}
		if len(a.neg) >= maxNegEntries {
			return false
		}
	}
	a.neg[key] = now.Add(a.negTTL)
	return true
}

// revalTryStart claims the single revalidation slot for key, bounded
// globally by maxConcurrentRevals. revalDone releases it.
func (a *admission) revalTryStart(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.revalN >= maxConcurrentRevals {
		return false
	}
	if _, ok := a.revals[key]; ok {
		return false
	}
	a.revals[key] = struct{}{}
	a.revalN++
	return true
}

func (a *admission) revalDone(key string) {
	a.mu.Lock()
	delete(a.revals, key)
	a.revalN--
	a.mu.Unlock()
}

// revalCtxKey marks a background revalidation request's context, so the
// admission stage waves it through (its concurrency is bounded by
// maxConcurrentRevals, not the shed thresholds) and the cache-hit stages
// skip their lookups (the point is to refresh the entry, and a lazy-expiry
// Get would delete the stale copy other requests are still serving).
type revalCtxKey struct{}

func isReval(ctx context.Context) bool {
	v, _ := ctx.Value(revalCtxKey{}).(bool)
	return v
}

// --- admission ---

func (p *Proxy) stageAdmission(rs *reqState) (stageOutcome, error) {
	a := p.admit
	r := rs.r
	if a == nil || (r.Method != http.MethodGet && r.Method != http.MethodHead) {
		return stageNext, nil
	}
	if isReval(r.Context()) {
		return stageNext, nil
	}
	return p.admitRequest(rs, p.flights != nil && coalescable(r))
}

// admitRequest decides one request's admission. With mayFollow, a flight
// already open for its key admits it as that flight's follower, taking no
// token (rs.admitFollower); the coalesce stage admits it again, as the
// origin fetch it then is, if it does not get to follow after all.
func (p *Proxy) admitRequest(rs *reqState, mayFollow bool) (stageOutcome, error) {
	a := p.admit
	key := rs.flightKey()
	// X-User feeds per-tenant concurrency accounting only; it never
	// selects a cached response (and it is part of the coalesce key
	// already), so it is safe to read outside the key-building path.
	tenant := rs.r.Header.Get("X-User")
	sig := pressureSignals{
		maxWaiters:  a.maxWaiters,
		maxInFlight: a.maxInFlight,
		maxTenant:   a.maxTenant,
		tenant:      tenant,
		shedLatency: a.shedLatency,
	}
	if mayFollow {
		sig.flightExists, sig.waiters = p.flights.depth(key)
	}
	if !sig.flightExists {
		sig.negCached = a.negLookup(key)
		sig.inFlight = a.inflight.Load()
		sig.latency = a.latency()
		a.mu.Lock()
		sig.tenantInFlight = a.perTenant[tenant]
		a.mu.Unlock()
	}
	verdict, reason := decide(sig)
	if verdict == admitOK {
		if sig.flightExists {
			// Followers take no token: they add no origin work.
			rs.admitFollower = true
		} else {
			// The leader-to-be is charged until respond/fail releases it.
			rs.admitRelease = a.acquire(tenant)
		}
		return stageNext, nil
	}
	if reason == "negcache" {
		p.reg.Counter("dpc.negcache_hits").Inc()
	}
	if out, ok := p.serveStale(rs, key, reason); ok {
		return out, nil
	}
	if verdict == admitStale {
		// Soft signal with no stale copy: degrade nothing, admit.
		rs.admitRelease = a.acquire(tenant)
		return stageNext, nil
	}
	return p.shed(rs, reason)
}

// serveStale answers a GET from an expired tier entry within the stale
// window, kicking one background revalidation to refresh it. The tier is
// probed as its stage probes it: the origin's opt-in key, then the page key
// under the page rule's predicate (anonymous bodyless GET). An entry that
// has not lapsed was filed after the pagecache stage missed — most often by
// the very revalidation a stale serve kicked — and is served as the tier
// hit it is, with nothing to revalidate.
func (p *Proxy) serveStale(rs *reqState, key, reason string) (stageOutcome, bool) {
	r := rs.r
	if r.Method != http.MethodGet {
		return stageNext, false
	}
	var pkey string
	if page, _ := p.pageRule(r); page {
		pkey = pageKey(r)
	}
	hit, ok := p.probe(rs, pkey, p.admit.staleWindow)
	if !ok {
		return stageNext, false
	}
	if hit.Age < 0 {
		p.serveHit(rs, hit, "")
		return stageRespond, true
	}
	p.reg.Counter("dpc.stale_served_page").Inc()
	servePage(rs, &hit.Page, "STALE")
	rs.span.Event(trace.KindStaleServe, hit.rule, reason, hit.Age.Milliseconds())
	p.kickRevalidate(rs, key, pkey)
	return stageRespond, true
}

// kickRevalidate starts at most one background revalidation for key: the
// request is cloned onto a detached context marked as a revalidation and
// driven through the full pipeline against a discarding writer, so the
// refresh reuses the one fill path — the tier's capture and, crucially,
// the record fillTier files it with, which voids the entry if the fabric
// invalidates a source fragment while the revalidation is in flight. pkey
// is the page rule's key, "" when it does not admit the request, for probing
// the tier as serveStale did.
func (p *Proxy) kickRevalidate(rs *reqState, key, pkey string) {
	a := p.admit
	if a.negLookup(key) {
		// The origin just failed this key; revalidating now would hammer
		// it inside the negative-cache window.
		return
	}
	if !a.revalTryStart(key) {
		return
	}
	if hit, ok := p.probe(rs, pkey, a.staleWindow); ok && hit.Age < 0 {
		// The previous revalidation refilled the entry after it was found
		// lapsed, and released the slot before this claim: a revalidation
		// fills before it releases, so nothing is left to refresh.
		a.revalDone(key)
		return
	}
	p.reg.Counter("dpc.stale_revalidations").Inc()
	req := rs.r.Clone(context.WithValue(
		context.WithoutCancel(rs.r.Context()), revalCtxKey{}, true))
	go func() {
		defer a.revalDone(key)
		ctx, cancel := context.WithTimeout(req.Context(), revalTimeout)
		defer cancel()
		p.ServeHTTP(&discardResponseWriter{h: make(http.Header)}, req.WithContext(ctx))
	}()
}

// shed refuses a request with a fast 503 + Retry-After: under a hard
// bound, queueing on the origin would deepen the overload for everyone.
func (p *Proxy) shed(rs *reqState, reason string) (stageOutcome, error) {
	p.reg.Counter("dpc.shed_503s").Inc()
	switch reason {
	case "inflight":
		p.reg.Counter("dpc.shed_inflight").Inc()
	case "queue":
		p.reg.Counter("dpc.shed_queue").Inc()
	case "per-tenant":
		p.reg.Counter("dpc.shed_per_tenant").Inc()
	}
	rs.span.Event(trace.KindShed, "", reason, 0)
	h := rs.w.Header()
	h.Set("Retry-After", strconv.Itoa(int((p.admit.retryAfter+time.Second-1)/time.Second)))
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Via", "dpcache-dpc/1.0")
	h.Set("X-Cache", "SHED")
	rs.w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = rs.w.Write([]byte("dpc: origin overloaded, retry later\n"))
	rs.streamed = true // response fully written; respond must not write a body
	rs.cacheState = "SHED"
	return stageRespond, nil
}

// negEligible reports whether an origin failure should be negative-cached:
// a cancelled fetch is the client's doing (or the shutdown path), not
// origin health.
func negEligible(r *http.Request, err error) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return false
	}
	return !errors.Is(err, context.Canceled)
}

// discardResponseWriter swallows a background revalidation's response;
// the fill side effects are the point.
type discardResponseWriter struct {
	h http.Header
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(int)             {}
func (w *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
