package dpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/depindex"
	"dpcache/internal/fragstore"
	"dpcache/internal/metrics"
	"dpcache/internal/pagecache"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// Headers shared with the origin (duplicated here to avoid an import cycle
// with package origin; the contract is defined in that package's docs).
const (
	headerCapable  = "X-DPC-Capable"
	headerBypass   = "X-DPC-Bypass"
	headerTemplate = "X-DPC-Template"
	headerStale    = "X-DPC-Stale"
	headerHave     = "X-DPC-Have"
	headerSame     = "X-DPC-Same"
)

// Config parameterizes a Proxy.
type Config struct {
	// OriginURL is the base URL of the origin site, e.g.
	// "http://127.0.0.1:8080". Required.
	OriginURL string
	// Capacity is the slot count; it must match (or exceed) the BEM's
	// configured capacity. Required unless Store is provided.
	Capacity int
	// Store overrides the fragment-store backend. When nil a
	// paper-faithful slot store of Capacity slots is created; pass the
	// sharded or tiered backend from fragstore.New (or any other
	// FragmentStore) to change the concurrency and capacity model without
	// touching the proxy.
	Store fragstore.FragmentStore
	// Codec must match the origin's template codec; defaults to binary.
	Codec tmpl.Codec
	// Strict enables generation checking on GETs plus transparent
	// re-fetch on staleness (design decision 4 in DESIGN.md).
	Strict bool
	// Coalesce collapses concurrent identical in-flight origin fetches
	// (same method, URL, and session identity) into a single fetch whose
	// page is broadcast, chunk by chunk, to every parked request as the
	// leader's assembly proceeds.
	Coalesce bool
	// CoalesceBufferBytes bounds each flight's broadcast buffer (0 selects
	// 4 MiB). Once a leader has produced more than this, the flight seals:
	// followers already attached keep streaming, late arrivals degrade to
	// their own origin fetch instead of replaying the oversized page, and
	// followers lagging more than the cap behind the leader are shed (a
	// stalled client cannot pin the page in memory).
	CoalesceBufferBytes int
	// Stream selects no code: false means exactly StreamSpoolBytes < 0,
	// so the zero-value Config serves whole pages with a Content-Length.
	// The field remains only because the benchmark harness names it.
	Stream bool
	// StreamSpoolBytes bounds the look-ahead spool an assembled page is
	// held in before its headers are committed (0 selects 64 KiB;
	// negative holds the whole page). Staleness detected while the head
	// of the page still fits in the spool aborts cleanly to a bypass
	// fetch; past it, the response is torn, the connection is aborted,
	// and the stale slots are reported to the BEM out of band. A page
	// that fits is sent complete, with its Content-Length. See stream.go
	// for when the bound lifts by itself.
	StreamSpoolBytes int
	// PublishInterval is the period of the background ticker that
	// refreshes the dpc.store.* gauges via fragstore.Publish (0 selects
	// 10s; negative disables the ticker). Stop it with Close.
	PublishInterval time.Duration
	// Transport overrides the HTTP transport used to reach the origin
	// (tests inject metered or in-memory transports).
	Transport http.RoundTripper
	// Registry receives dpc.* metrics; optional.
	Registry *metrics.Registry
	// StaticClock overrides the expiry clock of the static cache (tests).
	// The static cache — URL-keyed, for explicitly cacheable non-template
	// responses — is always mounted, as in the paper's ISA-server setup.
	StaticClock clock.Clock
	// PageCache mounts the whole-page cache stage ahead of coalesce:
	// complete responses to anonymous-session GETs (no Cookie,
	// Authorization, or X-User) are cached for PageCacheTTL — keyed like
	// a coalesced flight (method, URI, forwarded variant headers) — and
	// served with X-Cache: PAGE. Identity-bearing requests bypass the
	// stage. Off by default — a page cache cannot see fragment
	// invalidations, so enabling it trades bounded staleness for burst
	// absorption. Like Coalesce, the key excludes the per-client
	// X-Forwarded-For: origins that vary responses on client IP
	// (geo-targeting) must not enable PageCache.
	PageCache bool
	// PageCacheTTL bounds page-cache staleness (0 selects the 2s
	// micro-caching default).
	PageCacheTTL time.Duration
	// PageCacheEntries bounds resident pages (0 selects 1024).
	PageCacheEntries int
	// PageCacheBudget bounds resident page bytes across the tier (0 =
	// unbounded); enforced by the keyed store's global ledger.
	PageCacheBudget int64
	// PageCacheStore overrides the page cache's keyed backend (the
	// disk-backed tiered store, or a test double). When non-nil,
	// PageCacheEntries, PageCacheBudget, and PageClock stop applying —
	// the caller owns the store's sizing and lifecycle. Ignored unless
	// PageCache is set.
	PageCacheStore fragstore.Keyed
	// PageClock overrides the page cache's expiry clock (tests).
	PageClock clock.Clock
	// PlanCache is ignored: every distinct template body is compiled
	// into an immutable operator program cached by content hash (see
	// planpath.go). Content hashing makes origin redeploys miss
	// naturally, and the coherency fabric's "plan" scope flushes the tier
	// explicitly. The field remains only because the benchmark harness
	// names it.
	PlanCache bool
	// PlanParallelism bounds the worker fan-out resolving a plan's
	// independent fragment GETs (0 selects 1, which resolves everything
	// sequentially in walk order; more pays only where a fragment read
	// waits on a device slow enough to overlap).
	PlanParallelism int
	// DepIndexBudget bounds the dependency index's retained edge bytes
	// (0 selects 1 MiB). The index records which fragments flowed into
	// which page-tier entries so the coherency fabric can invalidate
	// them surgically; over budget it evicts edges and the fabric falls
	// back to scoped flushes (see internal/depindex).
	DepIndexBudget int64
	// Trace enables request-scoped tracing (internal/trace): a span tree
	// per request with per-stage and per-fragment child spans, sampled
	// into a bounded ring served at /_dpc/trace. Off by default; the
	// disabled path adds zero allocations per request.
	Trace bool
	// TraceSampleEvery admits 1 in N finished traces to the ring by rate
	// (0 selects 64; 1 samples everything). Slow requests are always
	// admitted regardless of the rate.
	TraceSampleEvery int
	// TraceSlow is the always-capture slow threshold (0 selects 250ms;
	// negative disables slow capture and the slow-request log).
	TraceSlow time.Duration
	// TraceRingSize bounds retained traces (0 selects 256).
	TraceRingSize int
	// Tracer overrides the proxy's tracer with a shared one (core wires
	// one tracer across the interior proxy and its edges so a cluster
	// request lands in one ring). Non-nil implies Trace.
	Tracer *trace.Tracer
	// Pprof mounts net/http/pprof under /_dpc/pprof/ on the admin mux.
	// Off by default: profiles expose internals and cost CPU on demand.
	Pprof bool
	// Admission mounts the admission-control stage between the cache-hit
	// tiers and coalesce (see admission.go): under measured pressure the
	// proxy serves stale-while-revalidate from the page or static tier
	// instead of queueing on the origin, negative-caches origin failures,
	// and sheds with a fast 503 + Retry-After when a hard bound is hit
	// and no stale copy exists. Off by default. When on, the cache-hit
	// stages stop lazily removing expired entries (GetKeep), so the stale
	// copies the stage serves stay resident until refreshed or evicted.
	Admission bool
	// MaxOriginInFlight bounds concurrent origin-bound requests through
	// this proxy (0 = unbounded). At the bound, new origin work is shed.
	MaxOriginInFlight int
	// MaxKeyInFlight bounds concurrent origin-bound requests per coalesce
	// key (0 = unbounded). Mostly relevant with coalescing off.
	MaxKeyInFlight int
	// MaxTenantInFlight bounds concurrent origin-bound requests per
	// tenant, identified by the X-User header (0 = unbounded). Anonymous
	// requests are never tenant-bounded.
	MaxTenantInFlight int
	// MaxFlightWaiters bounds followers parked on one coalesce flight
	// (0 = unbounded). Past the bound, further arrivals for the key are
	// shed rather than queued.
	MaxFlightWaiters int
	// ShedLatency is the origin-latency EWMA threshold past which the
	// stage prefers serving stale over queueing new origin work (0
	// disables the signal). A soft signal: with no stale copy the request
	// is admitted anyway.
	ShedLatency time.Duration
	// StaleWindow bounds how far past its TTL a cache entry may be served
	// under pressure (0 selects 30s).
	StaleWindow time.Duration
	// NegTTL is the negative-cache lifetime of an origin failure (0
	// selects 1s): requests for a key that just failed are shed (or
	// served stale) for this long instead of re-queueing on a sick origin.
	NegTTL time.Duration
	// RetryAfter is the Retry-After hint stamped on shed 503s (0 selects
	// 1s; rounded up to whole seconds).
	RetryAfter time.Duration
}

// Proxy is the Dynamic Proxy Cache in reverse-proxy mode: it fronts the
// origin, stores fragments, and assembles pages. Requests flow through an
// explicit stage pipeline (see pipeline.go).
type Proxy struct {
	cfg     Config
	store   fragstore.FragmentStore
	codec   tmpl.Codec
	plans   *tmplplan.Cache
	hints   *hintTable
	exec    *tmplplan.Exec
	static  *StaticCache
	pages   *pagecache.Cache // nil when disabled
	depix   *depindex.Index
	pageTTL time.Duration
	client  *http.Client
	reg     *metrics.Registry

	stages     []*Stage
	respondIdx int
	flights    *flightGroup  // nil when coalescing disabled
	admit      *admission    // nil when admission control disabled
	tracer     *trace.Tracer // nil when tracing disabled
	spool      int           // assembled pages' look-ahead bound; negative = whole page

	adminOnce sync.Once
	admin     *http.ServeMux

	closeOnce sync.Once
	stopPub   chan struct{}
}

// New returns a Proxy with an empty store.
func New(cfg Config) (*Proxy, error) {
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("dpc: OriginURL is required")
	}
	store := cfg.Store
	if store == nil {
		var err error
		store, err = NewStore(cfg.Capacity)
		if err != nil {
			return nil, err
		}
	}
	codec := cfg.Codec
	if codec == nil {
		codec = tmpl.Binary{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 64}
	}
	spool := cfg.StreamSpoolBytes
	if !cfg.Stream {
		spool = wholePage
	}
	if spool == 0 {
		spool = defaultSpoolBytes
	}
	var pages *pagecache.Cache
	pageTTL := cfg.PageCacheTTL
	if pageTTL <= 0 {
		pageTTL = defaultPageTTL
	}
	switch {
	case !cfg.PageCache:
	case cfg.PageCacheStore != nil:
		pages = pagecache.Over(cfg.PageCacheStore)
	default:
		var err error
		pages, err = pagecache.NewCache(fragstore.KeyedConfig{
			MaxEntries: cfg.PageCacheEntries,
			ByteBudget: cfg.PageCacheBudget,
			Clock:      cfg.PageClock,
		})
		if err != nil {
			return nil, err
		}
	}
	plans, err := tmplplan.NewCache(codec, tmplplan.CacheConfig{ByteBudget: planCacheBudget})
	if err != nil {
		return nil, err
	}
	par := cfg.PlanParallelism
	if par <= 0 {
		par = defaultPlanParallelism
	}
	p := &Proxy{
		cfg:   cfg,
		store: store,
		codec: codec,
		plans: plans,
		hints: newHintTable(),
		exec: &tmplplan.Exec{
			Store:       store,
			Strict:      cfg.Strict,
			Codec:       codec,
			Plans:       plans,
			Parallelism: par,
		},
		static:  NewStaticCache(0, cfg.StaticClock),
		pages:   pages,
		depix:   depindex.New(depindex.Config{ByteBudget: cfg.DepIndexBudget, Clock: cfg.PageClock}),
		pageTTL: pageTTL,
		client:  &http.Client{Transport: transport, Timeout: 30 * time.Second},
		reg:     reg,
		spool:   spool,
	}
	if cfg.Coalesce {
		p.flights = newFlightGroup(cfg.CoalesceBufferBytes)
	}
	if cfg.Admission {
		p.admit = newAdmission(cfg)
	}
	switch {
	case cfg.Tracer != nil:
		p.tracer = cfg.Tracer
	case cfg.Trace:
		p.tracer = NewTracer(reg, cfg.TraceSampleEvery, cfg.TraceSlow, cfg.TraceRingSize)
	}
	p.stages = []*Stage{
		p.newStage("admin", p.stageAdmin),
		p.newStage("static-cache", p.stageStaticCache),
		p.newStage("pagecache", p.stagePageCache),
		p.newStage("admission", p.stageAdmission),
		p.newStage("coalesce", p.stageCoalesce),
		p.newStage("origin-fetch", p.stageOriginFetch),
		p.newStage("assemble", p.stageAssemble),
		p.newStage("stale-fallback", p.stageStaleFallback),
		p.newStage("respond", p.stageRespond),
	}
	p.respondIdx = len(p.stages) - 1
	if interval := cfg.PublishInterval; interval >= 0 {
		if interval == 0 {
			interval = 10 * time.Second
		}
		p.stopPub = make(chan struct{})
		go p.publishLoop(interval)
	}
	return p, nil
}

// publishLoop refreshes the dpc.store.* gauges until Close.
func (p *Proxy) publishLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.publishStore()
			p.publishDepIndex()
		case <-p.stopPub:
			return
		}
	}
}

// publishStore refreshes the dpc.store.* gauges, including the
// dpc.store.disk_* tier gauges when the fragment store is disk-backed.
func (p *Proxy) publishStore() {
	fragstore.Publish(p.reg, "dpc.store", p.store.Stats())
	if ts, ok := fragstore.DiskStats(p.store); ok {
		fragstore.PublishDisk(p.reg, "dpc.store", ts)
	}
}

// publishDepIndex refreshes the dpc.depindex_* gauges from the dependency
// index's stats snapshot.
func (p *Proxy) publishDepIndex() {
	st := p.depix.Stats()
	p.reg.Gauge("dpc.depindex_fragments").Set(int64(st.Fragments))
	p.reg.Gauge("dpc.depindex_edges").Set(int64(st.Edges))
	p.reg.Gauge("dpc.depindex_bytes").Set(st.Bytes)
	p.reg.Gauge("dpc.depindex_evictions").Set(st.Evictions)
	p.reg.Gauge("dpc.depindex_lookups").Set(st.Lookups)
	p.reg.Gauge("dpc.depindex_inexact").Set(st.Inexact)
}

// Close stops the proxy's background work (the store-stats publisher). The
// proxy itself remains usable; Close is idempotent.
func (p *Proxy) Close() error {
	p.closeOnce.Do(func() {
		if p.stopPub != nil {
			close(p.stopPub)
		}
	})
	return nil
}

// Plans exposes the compiled-template plan cache. The coherency fabric's
// plan subscriber drives its backing KeyedStore to flush plans on
// "plan"-scoped events.
func (p *Proxy) Plans() *tmplplan.Cache { return p.plans }

// Static exposes the URL-keyed static-content cache.
func (p *Proxy) Static() *StaticCache { return p.static }

// Pages exposes the whole-page cache tier (nil unless Config.PageCache).
func (p *Proxy) Pages() *pagecache.Cache { return p.pages }

// DepIndex exposes the fragment→page dependency index. The coherency
// fabric's tier subscribers consult it to invalidate page- and static-tier
// entries surgically.
func (p *Proxy) DepIndex() *depindex.Index { return p.depix }

// Store exposes the fragment store (the coherency extension drops slots
// through it).
func (p *Proxy) Store() fragstore.FragmentStore { return p.store }

// Registry returns the proxy's metrics registry.
func (p *Proxy) Registry() *metrics.Registry { return p.reg }

// Tracer returns the proxy's request tracer (nil when tracing is
// disabled; the nil tracer is valid and fully no-op).
func (p *Proxy) Tracer() *trace.Tracer { return p.tracer }

// Stages lists the pipeline stages in execution order.
func (p *Proxy) Stages() []*Stage { return p.stages }

// AdminPrefix routes requests handled by the proxy itself rather than
// forwarded: /_dpc/stats, plus anything mounted via HandleAdmin (e.g. the
// coherency invalidation endpoint).
const AdminPrefix = "/_dpc/"

// HandleAdmin mounts an extra handler under the admin prefix (path must
// include the prefix, e.g. "/_dpc/invalidate").
func (p *Proxy) HandleAdmin(path string, h http.Handler) {
	p.adminOnce.Do(p.initAdmin)
	p.admin.Handle(path, h)
}

// getOnly restricts a read-only admin endpoint to GET and HEAD; every
// other method is answered 405 with an Allow header.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (p *Proxy) initAdmin() {
	p.admin = http.NewServeMux()
	p.admin.HandleFunc("/_dpc/trace", getOnly(func(w http.ResponseWriter, r *http.Request) {
		traces := p.tracer.Traces(trace.ParseMinMS(r.URL.Query().Get("min_ms")))
		if traces == nil {
			traces = []trace.TraceJSON{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"enabled": p.tracer.Enabled(),
			"traces":  traces, // newest first
		})
	}))
	p.admin.HandleFunc("/_dpc/metrics", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		// Refresh the pull-model gauges first, as /_dpc/stats does, so a
		// scrape observes current occupancy rather than the last tick's.
		p.publishStore()
		p.publishDepIndex()
		w.Header().Set("Content-Type", metrics.PromContentType)
		_ = metrics.WritePrometheus(w, p.reg, expositionMetrics())
	}))
	if p.cfg.Pprof {
		p.admin.HandleFunc("/_dpc/pprof/", func(w http.ResponseWriter, r *http.Request) {
			switch name := strings.TrimPrefix(r.URL.Path, "/_dpc/pprof/"); name {
			case "":
				pprof.Index(w, r)
			case "cmdline":
				pprof.Cmdline(w, r)
			case "profile":
				pprof.Profile(w, r)
			case "symbol":
				pprof.Symbol(w, r)
			case "trace":
				pprof.Trace(w, r)
			default:
				pprof.Handler(name).ServeHTTP(w, r)
			}
		})
	}
	p.admin.HandleFunc("/_dpc/stats", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		st := p.store.Stats()
		p.publishStore()
		p.publishDepIndex() // before the snapshot below, so gauges are current
		stages := make(map[string]any, len(p.stages))
		for _, s := range p.stages {
			stages[s.Name] = map[string]int64{
				"count":   s.hist.Count(),
				"mean_ns": int64(s.hist.Mean()),
				"p50_ns":  int64(s.hist.Quantile(0.50)),
				"p99_ns":  int64(s.hist.Quantile(0.99)),
			}
		}
		out := map[string]any{
			"metrics":        p.reg.Snapshot(),
			"store":          st,
			"stages":         stages,
			"slots_resident": st.Resident,
			"slots_capacity": st.Capacity,
			"fragment_bytes": st.Bytes,
		}
		if ts, ok := fragstore.DiskStats(p.store); ok {
			out["disk"] = ts
		}
		ss := p.static.Store().Stats()
		out["static"] = map[string]any{
			"entries": ss.Resident, "bytes": ss.Bytes,
			"hits": ss.Hits, "misses": ss.Misses,
			"evictions": ss.Evictions, "expired": ss.Expired,
		}
		if p.pages != nil {
			ps := p.pages.Stats()
			out["pagecache"] = map[string]any{
				"entries": ps.Resident, "bytes": ps.Bytes,
				"hits": ps.Hits, "misses": ps.Misses,
				"evictions": ps.Evictions, "expired": ps.Expired,
			}
		}
		out["plancache"] = p.plans.Stats()
		out["depindex"] = p.depix.Stats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	}))
}

// ServeHTTP implements http.Handler: it drives the request through the
// stage pipeline, timing each stage. When tracing is enabled (and the
// request is not an admin request) a root span wraps the whole pipeline,
// each stage runs under a child span, and response bytes/TTFB are
// attributed through a wrapping writer; the nil-tracer path adds zero
// allocations.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rs := &reqState{w: w, r: r, start: time.Now()}
	if p.tracer.Enabled() && !strings.HasPrefix(r.URL.Path, AdminPrefix) {
		root := p.tracer.StartRequest(r.Method+" "+r.URL.RequestURI(), r.Header.Get(trace.Header))
		rs.trace = root
		rs.r = r.WithContext(trace.NewContext(r.Context(), root))
		rs.w = &traceWriter{ResponseWriter: w, sp: root}
		if root.Sampled() {
			// Known at request start (rate- or remote-sampled), so a
			// single curl can be correlated with its /_dpc/trace entry.
			w.Header().Set(trace.ResponseHeader, root.TraceID())
		}
		defer root.Finish()
	}
	for i := 0; i < len(p.stages); {
		st := p.stages[i]
		t0 := time.Now()
		sp := rs.trace.Child(st.Name)
		rs.span = sp
		out, err := st.run(rs)
		sp.Finish()
		st.hist.Observe(time.Since(t0))
		if err != nil {
			p.fail(rs, err)
			return
		}
		switch out {
		case stageNext:
			i++
		case stageRespond:
			i = p.respondIdx
		case stageDone:
			return
		}
	}
}

// fail terminates a request that errored mid-pipeline. When part of the
// body already reached the client the only honest signal left is an
// aborted response; otherwise a 502 is returned.
func (p *Proxy) fail(rs *reqState, err error) {
	p.finishFlight(rs, err)
	if rs.originCancel != nil {
		rs.originCancel()
		rs.originCancel = nil
	}
	if rs.admitRelease != nil {
		rs.admitRelease()
		rs.admitRelease = nil
	}
	if rs.pageCapture != nil {
		rs.pageCapture.settle() // release the capture's ledger reservation
	}
	if rs.trace != nil {
		rs.trace.Event(trace.KindError, "", err.Error(), 0)
	}
	p.reg.Counter("dpc.errors").Inc()
	if rs.streamed {
		panic(http.ErrAbortHandler)
	}
	http.Error(rs.w, fmt.Sprintf("dpc: %v", err), http.StatusBadGateway)
}

func (p *Proxy) writePage(w http.ResponseWriter, body []byte, ctype, cacheState string) {
	if ctype == "" {
		ctype = "text/html; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Via", "dpcache-dpc/1.0")
	w.Header().Set("X-Cache", cacheState)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// FormatStaleRefs encodes stale references for the X-DPC-Stale header:
// "key:gen,key:gen".
func FormatStaleRefs(refs []StaleRef) string {
	var b strings.Builder
	for i, ref := range refs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", ref.Key, ref.Gen)
	}
	return b.String()
}
