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

// Config parameterizes a System: what belongs to the deployment as a whole,
// and by value the two module configs every proxy in it is built from. A
// knob of the proxy or of its store is declared once, in its own package,
// and set here as cfg.Proxy.PageCacheTTL or cfg.Store.Backend.
type Config struct {
	// Capacity is the fragment-slot count shared by the BEM and every
	// proxy's store. Defaults to 4096.
	Capacity int
	// Codec is the template wire format the origin writes and every proxy
	// reads; defaults to binary.
	Codec tmpl.Codec
	// ForcedMissProb pins the BEM hit ratio for experiments (Figure 5).
	ForcedMissProb float64
	// Fabric wires the coherency invalidation fabric (ModeCached only):
	// every proxy subscribes to the origin's hub (origin.Server.Hub), in
	// process, applying each event to all of its tiers — fragment store,
	// whole-response tier and plan tier. A fragment invalidation raises the
	// slot's floor, and a whole-response entry built from it is then void
	// wherever it is read instead of living out Proxy.PageCacheTTL, which
	// is what makes realistic page TTLs safe. Edges started with StartEdge
	// subscribe automatically too. The origin serves the same hub's stream
	// whatever Fabric says; only a proxy that follows it (dpc.Proxy.Follow)
	// pulls from it.
	Fabric bool
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
	// OriginFaults injects configured misbehavior (latency, errors,
	// hangs, mid-body aborts, a bounded worker pool) in front of the
	// origin's page/static handlers — the saturation experiment's load
	// model. Nil serves faithfully.
	OriginFaults *origin.FaultConfig
	// Proxy is the template every proxy — the front one and each edge —
	// is built from; see dpc.Config for the knobs. The system fills
	// OriginURL, Store, Capacity, Codec, Registry and Tracer per proxy,
	// so setting any of them here is an error. Proxy.Trace builds one
	// tracer shared by the front proxy and every edge, so a request that
	// hops edge → interior proxy (the trace id riding the X-DPC-Trace
	// header) lands as one stitched tree in each node's ring.
	Proxy dpc.Config
	// Store is the template of each proxy's own fragment store; see
	// fragstore.Config. The system fills Capacity and DiskPath per store,
	// so setting either here is an error.
	Store fragstore.Config
	// DiskDir is the tiered backend's heap-file directory: each proxy
	// gets its own file there ("front.heap", "edge-<name>.heap"), keyed
	// by instance so a restarted proxy reopens its own file — the
	// warm-restart path — while co-located proxies never share one.
	// Required for (and only valid with) Store.Backend "tiered".
	DiskDir string
}

// storeConfig is the fragment-store config of one named proxy instance.
func (c Config) storeConfig(instance string) fragstore.Config {
	sc := c.Store
	sc.Capacity = c.Capacity
	if c.DiskDir != "" {
		sc.DiskPath = filepath.Join(c.DiskDir, instance+".heap")
	}
	return sc
}

// proxyConfig is the config of one proxy over its store. tracer may be nil
// (tracing off).
func (c Config) proxyConfig(originURL string, store fragstore.FragmentStore, tracer *trace.Tracer) dpc.Config {
	pc := c.Proxy
	pc.OriginURL, pc.Store, pc.Tracer = originURL, store, tracer
	pc.Capacity, pc.Codec, pc.Registry = c.Capacity, c.Codec, c.Registry
	pc.Stream = true // dpc.Config.Stream: false would mean StreamSpoolBytes < 0
	return pc
}

// checkTemplates refuses a value in a field the system fills per proxy,
// which would otherwise be silently replaced.
func (c Config) checkTemplates() error {
	p, s := c.Proxy, c.Store
	if p.OriginURL != "" || p.Store != nil || p.Capacity != 0 || p.Codec != nil || p.Registry != nil || p.Tracer != nil {
		return fmt.Errorf("core: Proxy.OriginURL, Store, Capacity, Codec, Registry and Tracer are filled per proxy" +
			" (set Config.Capacity, Codec and Registry, and Proxy.Trace)")
	}
	if s.Capacity != 0 || s.DiskPath != "" {
		return fmt.Errorf("core: Store.Capacity and Store.DiskPath are filled per proxy (set Config.Capacity and DiskDir)")
	}
	return nil
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
	// Hub is the coherency invalidation fabric: the origin's own hub
	// (origin.Server.Hub), set when Config.Fabric and ModeCached, nil
	// otherwise. Every proxy is subscribed to it.
	Hub *coherency.Hub
	// Registry aggregates metrics across components.
	Registry *metrics.Registry
	// Tracer is the request tracer shared by the front proxy and every
	// edge (nil unless Config.Proxy.Trace). Sharing one tracer means an
	// edge-originated trace id resolves in the interior proxy's ring
	// too, and dpc.trace.* counters aggregate cluster-wide.
	Tracer *trace.Tracer

	cfg       Config
	originLn  net.Listener
	originSrv *http.Server
	front     Edge
	edges     []Edge
	started   bool
}

// ProxySubscribers returns the subscribers that keep a proxy's tiers
// coherent: the proxy itself (dpc.Proxy.Apply), which counts on its own
// registry, so reg is ignored. It survives only because the benchmark
// names it.
func ProxySubscribers(p *dpc.Proxy, reg *metrics.Registry) []coherency.Subscriber {
	return []coherency.Subscriber{p}
}

// Edge is one running proxy of the system: the front one, or an
// additional forward-deployed DPC created by StartEdge.
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
// same name reopens warm. The heap file goes last, after its proxy has
// stopped: a clean diskstore close writes back every dirty page so the
// next open replays the full resident set. The rest of the system keeps
// running. Idempotent; System.Close also closes any edges still up.
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
	if err := cfg.checkTemplates(); err != nil {
		return nil, err
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
	if pc := cfg.Proxy; pc.Trace {
		tracer = dpc.NewTracer(cfg.Registry, pc.TraceSampleEvery, pc.TraceSlow, pc.TraceRingSize)
	}
	var hub *coherency.Hub
	if cfg.Fabric {
		hub = org.Hub()
	}
	return &System{
		Mode:     mode,
		Repo:     repo,
		Monitor:  mon,
		Origin:   org,
		Hub:      hub,
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

// Start opens the metered origin listener and the proxy front end. On
// error nothing is left running or open, and Start may be called again.
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
	originSrv := &http.Server{Handler: s.Origin}
	go func() { _ = originSrv.Serve(originLn) }()
	front, err := s.startProxy("front", "http://"+originLn.Addr().String())
	if err != nil {
		_ = originSrv.Close()
		_ = originLn.Close() // Serve may not have taken it yet
		return err
	}
	s.originLn, s.originSrv = originLn, originSrv
	s.front, s.Proxy = front, front.Proxy
	s.started = true
	return nil
}

// startProxy brings up one proxy of the system against originURL: its own
// store (instance names the tiered heap file), the proxy, its
// subscription to the fabric, and a loopback listener serving it. On
// error everything it opened is closed again.
func (s *System) startProxy(instance, originURL string) (e Edge, err error) {
	defer func() {
		if err != nil {
			_ = e.Close()
			e = Edge{}
		}
	}()
	store, err := fragstore.New(s.cfg.storeConfig(instance))
	if err != nil {
		return e, err
	}
	e.store, _ = store.(io.Closer)
	if e.Proxy, err = dpc.New(s.cfg.proxyConfig(originURL, store, s.Tracer)); err != nil {
		return e, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.URL = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: e.Proxy}
	if s.Hub != nil {
		s.Hub.Subscribe(e.Proxy)
	}
	go func() { _ = e.srv.Serve(ln) }()
	return e, nil
}

// FrontURL is what clients request against (the proxy).
func (s *System) FrontURL() string { return s.front.URL }

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
// coherency.Hub (subscribing each edge's Proxy) for invalidation
// propagation. The system must be started first.
func (s *System) StartEdge(name string) (Edge, error) {
	if !s.started {
		return Edge{}, fmt.Errorf("core: start the system before adding edges")
	}
	e, err := s.startProxy("edge-"+name, s.OriginURL())
	if err != nil {
		return Edge{}, err
	}
	e.Name = name
	s.edges = append(s.edges, e)
	return e, nil
}

// Close shuts the origin and every proxy down, stopping each proxy's
// background work and closing its store. Edges already bounced
// individually are fine: Edge.Close is idempotent.
func (s *System) Close() error {
	first := s.front.Close()
	for _, e := range s.edges {
		_ = e.Close()
	}
	if s.originSrv != nil {
		s.originSrv.SetKeepAlivesEnabled(false)
		if err := s.originSrv.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Give in-flight handlers a beat to unwind before listeners vanish
	// from under metered accept loops.
	time.Sleep(time.Millisecond)
	return first
}
