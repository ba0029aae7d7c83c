// Package core assembles the full dynamic proxy caching system of the
// paper's Figure 4: content repository, origin application server, Back
// End Monitor, and the Dynamic Proxy Cache fronting it all, with the
// origin↔DPC link metered the way the Sniffer measured it.
//
// A System runs in one of two modes:
//
//   - ModeNoCache: the origin serves full pages; the proxy is a pure
//     pass-through (as ISA Server is for dynamic content when the DPC
//     filter is off). This is the B_NC configuration.
//   - ModeCached: the origin runs the BEM and serves templates; the proxy
//     assembles pages from its fragment store. This is the B_C
//     configuration.
//
// Both modes keep the same component topology and connection patterns, so
// measured byte differences are attributable to the caching technique, not
// the plumbing.
package core

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/firewall"
	"dpcache/internal/fragstore"
	"dpcache/internal/metrics"
	"dpcache/internal/netsim"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

// storeConfig maps the config's Store* selection onto fragstore's config
// for one named store instance. NewSystem has already defaulted Capacity
// by the time this is called. Each proxy's tiered heap file is keyed by
// the instance name ("front", "edge-<name>") so a restarted proxy reopens
// its own file — the warm-restart path — while co-located proxies never
// share one.
func (c Config) storeConfig(instance string) fragstore.Config {
	cfg := fragstore.Config{
		Backend:    c.StoreBackend,
		Capacity:   c.Capacity,
		Shards:     c.StoreShards,
		ByteBudget: c.StoreByteBudget,
		Eviction:   c.StoreEviction,
	}
	if c.StoreBackend == fragstore.BackendTiered {
		cfg.DiskPath = filepath.Join(c.StoreDiskDir, instance+".heap")
		cfg.DiskBudget = c.StoreDiskBudget
		cfg.DiskPageBytes = c.StoreDiskPageBytes
	}
	return cfg
}

// newStore builds one fragment store per proxy.
func (c Config) newStore(instance string) (fragstore.FragmentStore, error) {
	return fragstore.New(c.storeConfig(instance))
}

// Mode selects the system configuration under test.
type Mode int

// System modes.
const (
	// ModeNoCache serves full pages through a pass-through proxy.
	ModeNoCache Mode = iota
	// ModeCached serves templates assembled by the DPC.
	ModeCached
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeCached {
		return "cached"
	}
	return "no-cache"
}

// Config parameterizes a System.
type Config struct {
	// Capacity is the fragment-slot count shared by BEM and DPC.
	// Defaults to 4096.
	Capacity int
	// Codec is the template wire format; defaults to binary.
	Codec tmpl.Codec
	// Strict enables generation-checked assembly with bypass recovery.
	Strict bool
	// ForcedMissProb pins the BEM hit ratio for experiments (Figure 5).
	ForcedMissProb float64
	// StoreBackend selects each proxy's fragment store: "slot" (default,
	// the paper's single-lock array), "sharded" (the keyed engine:
	// per-shard locks, byte budget, eviction) or "tiered" (the engine over
	// a heap file). Every proxy — the reverse proxy and each edge — gets
	// its own store instance.
	StoreBackend string
	// StoreShards is the engine's shard count under the sharded and
	// tiered backends, rounded up to a power of two (0 selects the
	// fragstore default).
	StoreShards int
	// StoreByteBudget bounds resident fragment bytes in RAM per sharded
	// or tiered store (0 = unbounded). The sharded backend requires
	// StoreEviction with it.
	StoreByteBudget int64
	// StoreEviction is the engine's policy: "none", "lru", or "gdsf".
	StoreEviction string
	// StoreDiskDir is the tiered backend's heap-file directory: each
	// proxy gets its own file there ("front.heap", "edge-<name>.heap"),
	// replayed on restart so a bounced proxy serves warm. Required for
	// (and only meaningful with) StoreBackend "tiered".
	StoreDiskDir string
	// StoreDiskBudget bounds each tiered store's disk-resident bytes
	// (0 = unbounded); over budget the disk tier drops its LRU victims.
	StoreDiskBudget int64
	// StoreDiskPageBytes is the heap file's page size (0 selects the
	// diskstore default, 32 KiB).
	StoreDiskPageBytes int
	// Coalesce collapses concurrent identical in-flight origin fetches at
	// each proxy into a single origin request (single-flight, keyed by
	// method, URL, and session identity) whose output is broadcast chunk
	// by chunk to every parked request as the leader's fetch proceeds.
	Coalesce bool
	// CoalesceBufferBytes bounds each flight's broadcast buffer (0 selects
	// the dpc default, 4 MiB); past it, late joiners degrade to their own
	// origin fetch instead of replaying the oversized page.
	CoalesceBufferBytes int
	// PageCache mounts each proxy's whole-page cache stage (ahead of
	// coalesce): complete responses to anonymous-session GETs are cached
	// by URL for PageCacheTTL and served with X-Cache: PAGE;
	// identity-bearing requests bypass the stage.
	PageCache bool
	// PageCacheTTL bounds page-cache staleness (0 selects the dpc
	// default, 2s).
	PageCacheTTL time.Duration
	// PageCacheEntries bounds each proxy's resident pages (0 selects the
	// dpc default, 1024).
	PageCacheEntries int
	// PageCacheBudget bounds each proxy's resident page bytes (0 =
	// unbounded).
	PageCacheBudget int64
	// DepIndexBudget bounds each proxy's dependency index — the
	// fragment→page edge set the fabric consults for surgical page
	// invalidation (0 selects the dpc default, 1 MiB).
	DepIndexBudget int64
	// PlanParallelism bounds the plan executor's prefetch fan-out (0
	// selects the dpc default, 1, which resolves GETs sequentially).
	PlanParallelism int
	// Fabric wires the coherency invalidation fabric (ModeCached only):
	// a hub is attached to the BEM's invalidation stream and every cache
	// tier of every proxy — fragment store, whole-page tier, static
	// tier — subscribes. Fragment invalidations then drop dependent
	// page-tier entries the moment they happen (via each proxy's
	// dependency index) instead of waiting out PageCacheTTL, which is
	// what makes realistic page TTLs safe. Edges started with StartEdge
	// subscribe automatically too.
	Fabric bool
	// StreamSpoolBytes bounds the look-ahead spool each proxy holds an
	// assembled page in before committing its headers (0 selects the dpc
	// default, 64 KiB; negative holds the whole page). A page that fits
	// is sent complete, with its Content-Length.
	StreamSpoolBytes int
	// PublishInterval is each proxy's background store-stats publish
	// period (0 selects the dpc default of 10s; negative disables).
	PublishInterval time.Duration
	// Seed drives all deterministic randomness.
	Seed int64
	// Latency is the repository's simulated query/update delay.
	Latency repository.LatencyModel
	// ExtraHeaderBytes pads origin response headers (Table 2's f).
	ExtraHeaderBytes int
	// Firewall, when non-nil, scans all origin-link traffic and
	// accumulates scan-cost accounting (Figure 3(a)).
	Firewall *firewall.Firewall
	// Registry receives all component metrics; a fresh one is created
	// when nil.
	Registry *metrics.Registry
	// Trace enables request-scoped tracing: one tracer is shared by the
	// front proxy and every edge, so a request that hops edge → interior
	// proxy (the trace id riding the X-DPC-Trace header) lands as one
	// stitched tree in each node's capture ring at /_dpc/trace.
	Trace bool
	// TraceSampleEvery admits every Nth finished trace to the capture
	// ring (0 selects the trace default, 64; slow requests are always
	// admitted regardless).
	TraceSampleEvery int
	// TraceSlow is the always-capture slow threshold (0 selects the
	// trace default, 250ms; negative disables slow capture).
	TraceSlow time.Duration
	// TraceRing bounds the shared capture ring (0 selects the trace
	// default, 256).
	TraceRing int
	// Pprof mounts net/http/pprof under /_dpc/pprof/ on each proxy's
	// admin surface.
	Pprof bool
	// Admission mounts each proxy's admission-control stage: under
	// measured pressure (origin in-flight, latency EWMA, queue depth,
	// ledger bytes, negative-cached failures) requests are served stale
	// from the cache tiers or shed with a fast 503 + Retry-After instead
	// of queueing on the origin (see dpc.Config.Admission).
	Admission bool
	// AdmissionMaxInFlight bounds concurrent origin-bound requests per
	// proxy (0 = unbounded).
	AdmissionMaxInFlight int
	// AdmissionMaxKeyInFlight bounds them per coalesce key (0 =
	// unbounded).
	AdmissionMaxKeyInFlight int
	// AdmissionMaxTenantInFlight bounds them per X-User tenant (0 =
	// unbounded).
	AdmissionMaxTenantInFlight int
	// AdmissionMaxFlightWaiters bounds followers parked on one coalesce
	// flight (0 = unbounded).
	AdmissionMaxFlightWaiters int
	// AdmissionShedLatency is the origin-latency EWMA threshold past
	// which stale serving is preferred (0 disables the signal).
	AdmissionShedLatency time.Duration
	// AdmissionStaleWindow bounds how far past TTL a cache entry may be
	// served under pressure (0 selects the dpc default, 30s).
	AdmissionStaleWindow time.Duration
	// AdmissionNegTTL is the negative-cache lifetime of origin failures
	// (0 selects the dpc default, 1s).
	AdmissionNegTTL time.Duration
	// AdmissionRetryAfter is the Retry-After hint on shed 503s (0 selects
	// the dpc default, 1s).
	AdmissionRetryAfter time.Duration
	// OriginFaults injects configured misbehavior (latency, errors,
	// hangs, mid-body aborts, a bounded worker pool) in front of the
	// origin's page/static handlers — the saturation experiment's load
	// model. Nil serves faithfully.
	OriginFaults *origin.FaultConfig
}

// System is a fully wired origin + proxy deployment.
type System struct {
	Mode Mode
	// Repo is the content repository; sites are built against it.
	Repo *repository.Repo
	// Monitor is the BEM (nil in ModeNoCache).
	Monitor *bem.Monitor
	// Origin is the application server.
	Origin *origin.Server
	// Proxy is the front end clients talk to.
	Proxy *dpc.Proxy
	// Meter measures the origin↔proxy link.
	Meter *netsim.Meter
	// Hub is the coherency invalidation fabric (nil unless Config.Fabric
	// and ModeCached). Every proxy's tiers are subscribed to it.
	Hub *coherency.Hub
	// Registry aggregates metrics across components.
	Registry *metrics.Registry
	// Tracer is the request tracer shared by the front proxy and every
	// edge (nil unless Config.Trace). Sharing one tracer means an
	// edge-originated trace id resolves in the interior proxy's ring
	// too, and dpc.trace.* counters aggregate cluster-wide.
	Tracer *trace.Tracer

	cfg         Config
	originLn    net.Listener
	proxyLn     net.Listener
	originSrv   *http.Server
	proxySrv    *http.Server
	edges       []*http.Server
	edgeProxies []*dpc.Proxy
	frontStore  io.Closer   // tiered stores hold an open heap file; closing any other is a no-op
	edgeStores  []io.Closer // likewise, one per edge
	started     bool
}

// proxyConfig translates the system config into one proxy's config.
// tracer may be nil (tracing off); when set it is shared across proxies
// so edge→interior hops stitch into one trace id space.
func (c Config) proxyConfig(originURL string, store fragstore.FragmentStore, reg *metrics.Registry, tracer *trace.Tracer) dpc.Config {
	return dpc.Config{
		OriginURL:           originURL,
		Capacity:            c.Capacity,
		Store:               store,
		Codec:               c.Codec,
		Strict:              c.Strict,
		Coalesce:            c.Coalesce,
		CoalesceBufferBytes: c.CoalesceBufferBytes,
		Stream:              true, // dpc.Config.Stream: false would mean StreamSpoolBytes < 0
		StreamSpoolBytes:    c.StreamSpoolBytes,
		PageCache:           c.PageCache,
		PageCacheTTL:        c.PageCacheTTL,
		PageCacheEntries:    c.PageCacheEntries,
		PageCacheBudget:     c.PageCacheBudget,
		DepIndexBudget:      c.DepIndexBudget,
		PlanParallelism:     c.PlanParallelism,
		PublishInterval:     c.PublishInterval,
		Registry:            reg,
		Tracer:              tracer,
		Pprof:               c.Pprof,
		Admission:           c.Admission,
		MaxOriginInFlight:   c.AdmissionMaxInFlight,
		MaxKeyInFlight:      c.AdmissionMaxKeyInFlight,
		MaxTenantInFlight:   c.AdmissionMaxTenantInFlight,
		MaxFlightWaiters:    c.AdmissionMaxFlightWaiters,
		ShedLatency:         c.AdmissionShedLatency,
		StaleWindow:         c.AdmissionStaleWindow,
		NegTTL:              c.AdmissionNegTTL,
		RetryAfter:          c.AdmissionRetryAfter,
	}
}

// ProxySubscribers returns one coherency subscriber per cache tier of a
// proxy: the fragment store (slot drops), the whole-page tier, and the
// static tier. The keyed-tier subscribers carry the dpc key schema
// (purge prefixes) and the proxy's dependency index, so fragment
// invalidations drop only the pages composed from the dead fragment;
// surgical drops are reported on reg's dpc.pagecache_invalidations and
// dpc.static_invalidations counters, and whole-tier flushes, by cause, on
// dpc.pagecache_*flushes and dpc.static_*flushes (reg may be nil). The
// compiled-plan tier subscribes for plan-scoped flushes and gap recovery.
// It is the single wiring point shared by System.subscribeTiers, dpcd's
// /_dpc/invalidate endpoint, and the facade.
func ProxySubscribers(p *dpc.Proxy, reg *metrics.Registry) []coherency.Subscriber {
	subs := []coherency.Subscriber{coherency.NewStoreSubscriber(p.Store())}
	if pages := p.Pages(); pages != nil {
		sub := coherency.NewPageSubscriber(pages, p.DepIndex())
		sub.KeyPrefix = dpc.PageKeyPrefix
		if reg != nil {
			dropped := reg.Counter("dpc.pagecache_invalidations")
			sub.OnDrop = func(n int) { dropped.Add(int64(n)) }
			sub.OnFlush = countFlushes(reg.Counter("dpc.pagecache_flushes"), map[string]*metrics.Counter{
				coherency.FlushGap:      reg.Counter("dpc.pagecache_gap_flushes"),
				coherency.FlushEvent:    reg.Counter("dpc.pagecache_event_flushes"),
				coherency.FlushFallback: reg.Counter("dpc.pagecache_fallback_flushes"),
			})
		}
		subs = append(subs, sub)
	}
	if static := p.Static(); static != nil {
		sub := coherency.NewStaticSubscriber(static.Cache, p.DepIndex())
		sub.KeyPrefix = dpc.StaticKeyPrefix
		if reg != nil {
			dropped := reg.Counter("dpc.static_invalidations")
			sub.OnDrop = func(n int) { dropped.Add(int64(n)) }
			sub.OnFlush = countFlushes(reg.Counter("dpc.static_flushes"), map[string]*metrics.Counter{
				coherency.FlushGap:      reg.Counter("dpc.static_gap_flushes"),
				coherency.FlushEvent:    reg.Counter("dpc.static_event_flushes"),
				coherency.FlushFallback: reg.Counter("dpc.static_fallback_flushes"),
			})
		}
		subs = append(subs, sub)
	}
	// The plan tier ignores fragment events and purges (plans are
	// content-hash keyed and hold no fragment bytes); it subscribes for
	// "plan"-scoped flushes and gap recovery.
	return append(subs, coherency.NewPlanSubscriber(p.Plans().Store()))
}

// countFlushes returns a TierSubscriber.OnFlush hook counting every flush
// on total and on its cause's counter.
func countFlushes(total *metrics.Counter, byCause map[string]*metrics.Counter) func(cause string) {
	return func(cause string) {
		total.Inc()
		if c := byCause[cause]; c != nil {
			c.Inc()
		}
	}
}

// subscribeTiers attaches every cache tier of one proxy to the hub.
func (s *System) subscribeTiers(p *dpc.Proxy) {
	for _, sub := range ProxySubscribers(p, s.Registry) {
		s.Hub.Subscribe(sub)
	}
}

// Edge is an additional forward-deployed DPC created by StartEdge.
type Edge struct {
	// Name identifies the edge (for routers).
	Name string
	// Proxy is the edge's Dynamic Proxy Cache.
	Proxy *dpc.Proxy
	// URL is the edge's client-facing address.
	URL string

	srv   *http.Server
	store io.Closer // nil for stores with nothing to close (the slot array)
}

// Close shuts this one edge down — server, proxy background work, and
// (for a tiered store) the heap file, which a later StartEdge of the
// same name reopens warm. The rest of the system keeps running.
// Idempotent; System.Close also closes any edges still up.
func (e Edge) Close() error {
	var first error
	if e.srv != nil {
		e.srv.SetKeepAlivesEnabled(false)
		if err := e.srv.Close(); err != nil {
			first = err
		}
	}
	if e.Proxy != nil {
		_ = e.Proxy.Close()
	}
	if e.store != nil {
		if err := e.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewSystem builds (but does not start) a system. Register scripts, then
// call Start.
func NewSystem(cfg Config, mode Mode) (*System, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = 4096
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("core: negative capacity")
	}
	// Fail fast on a bad store selection instead of at Start.
	if err := cfg.storeConfig("front").Validate(); err != nil {
		return nil, err
	}
	if cfg.Codec == nil {
		cfg.Codec = tmpl.Binary{}
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	repo := repository.New(cfg.Latency)
	var mon *bem.Monitor
	if mode == ModeCached {
		var err error
		mon, err = bem.New(bem.Config{
			Capacity:       cfg.Capacity,
			ForcedMissProb: cfg.ForcedMissProb,
			Seed:           cfg.Seed,
			Registry:       cfg.Registry,
		})
		if err != nil {
			return nil, err
		}
		mon.BindRepo(repo)
	}
	var faults *origin.FaultInjector
	if cfg.OriginFaults != nil {
		faults = origin.NewFaultInjector(*cfg.OriginFaults)
	}
	org, err := origin.New(origin.Config{
		Repo:             repo,
		Monitor:          mon,
		Codec:            cfg.Codec,
		ExtraHeaderBytes: cfg.ExtraHeaderBytes,
		Registry:         cfg.Registry,
		Faults:           faults,
	})
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if cfg.Trace {
		tracer = dpc.NewTracer(cfg.Registry, cfg.TraceSampleEvery, cfg.TraceSlow, cfg.TraceRing)
	}
	return &System{
		Mode:     mode,
		Repo:     repo,
		Monitor:  mon,
		Origin:   org,
		Meter:    netsim.NewMeter(0),
		Registry: cfg.Registry,
		Tracer:   tracer,
		cfg:      cfg,
	}, nil
}

// Register adds scripts to the origin; call before Start.
func (s *System) Register(scripts ...*script.Script) error {
	if s.started {
		return fmt.Errorf("core: register before Start")
	}
	for _, sc := range scripts {
		if err := s.Origin.Register(sc); err != nil {
			return err
		}
	}
	return nil
}

// Start opens the metered origin listener and the proxy front end.
func (s *System) Start() error {
	if s.started {
		return fmt.Errorf("core: already started")
	}
	originLn, err := netsim.ListenLoopback(s.Meter)
	if err != nil {
		return err
	}
	if s.cfg.Firewall != nil {
		originLn = s.cfg.Firewall.Listener(originLn)
	}
	s.originLn = originLn
	s.originSrv = &http.Server{Handler: s.Origin}
	go func() { _ = s.originSrv.Serve(originLn) }()

	store, err := s.cfg.newStore("front")
	if err != nil {
		_ = originLn.Close()
		return err
	}
	if c, ok := store.(io.Closer); ok {
		s.frontStore = c
	}
	proxy, err := dpc.New(s.cfg.proxyConfig("http://"+originLn.Addr().String(), store, s.Registry, s.Tracer))
	if err != nil {
		if s.frontStore != nil {
			_ = s.frontStore.Close()
		}
		_ = originLn.Close()
		return err
	}
	s.Proxy = proxy
	if s.cfg.Fabric && s.Monitor != nil {
		s.Hub = coherency.NewHub(s.Monitor)
		s.subscribeTiers(proxy)
	}
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = proxy.Close()
		_ = originLn.Close()
		return err
	}
	s.proxyLn = proxyLn
	s.proxySrv = &http.Server{Handler: proxy}
	go func() { _ = s.proxySrv.Serve(proxyLn) }()
	s.started = true
	return nil
}

// FrontURL is what clients request against (the proxy).
func (s *System) FrontURL() string {
	if s.proxyLn == nil {
		return ""
	}
	return "http://" + s.proxyLn.Addr().String()
}

// OriginURL is the origin's direct address (bypassing the proxy).
func (s *System) OriginURL() string {
	if s.originLn == nil {
		return ""
	}
	return "http://" + s.originLn.Addr().String()
}

// StartEdge launches an additional DPC against this system's origin — a
// forward-proxy node in the Section 7 deployment. Edge proxies share the
// BEM's key space; pair them with routing.Router for request routing and
// coherency.Hub (subscribing each edge's Store) for invalidation
// propagation. The system must be started first.
func (s *System) StartEdge(name string) (Edge, error) {
	if !s.started {
		return Edge{}, fmt.Errorf("core: start the system before adding edges")
	}
	store, err := s.cfg.newStore("edge-" + name)
	if err != nil {
		return Edge{}, err
	}
	storeCloser, _ := store.(io.Closer)
	proxy, err := dpc.New(s.cfg.proxyConfig(s.OriginURL(), store, s.Registry, s.Tracer))
	if err != nil {
		if storeCloser != nil {
			_ = storeCloser.Close()
		}
		return Edge{}, err
	}
	if s.Hub != nil {
		s.subscribeTiers(proxy)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = proxy.Close()
		if storeCloser != nil {
			_ = storeCloser.Close()
		}
		return Edge{}, err
	}
	srv := &http.Server{Handler: proxy}
	s.edges = append(s.edges, srv)
	s.edgeProxies = append(s.edgeProxies, proxy)
	if storeCloser != nil {
		s.edgeStores = append(s.edgeStores, storeCloser)
	}
	go func() { _ = srv.Serve(ln) }()
	return Edge{Name: name, Proxy: proxy, URL: "http://" + ln.Addr().String(), srv: srv, store: storeCloser}, nil
}

// Close shuts both servers down, stopping each proxy's background work.
func (s *System) Close() error {
	var first error
	srvs := append([]*http.Server{s.proxySrv, s.originSrv}, s.edges...)
	for _, srv := range srvs {
		if srv != nil {
			srv.SetKeepAlivesEnabled(false)
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, p := range append([]*dpc.Proxy{s.Proxy}, s.edgeProxies...) {
		if p != nil {
			_ = p.Close()
		}
	}
	// Close the heap files last, after their proxies have stopped; a
	// clean diskstore close writes back every dirty page so the next
	// open replays the full resident set. Close is idempotent, so edges
	// already bounced individually are fine.
	for _, c := range s.edgeStores {
		_ = c.Close()
	}
	if s.frontStore != nil {
		if err := s.frontStore.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Give in-flight handlers a beat to unwind before listeners vanish
	// from under metered accept loops.
	time.Sleep(time.Millisecond)
	return first
}
