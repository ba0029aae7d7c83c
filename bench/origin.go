package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/metrics"
	"dpcache/internal/netsim"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

// originHost is the origin side of the topology — content repository,
// Back End Monitor, invalidation hub and application server, built with
// the constructors cmd/origind uses — on a metered loopback listener.
// The benchmark hosts it itself, rather than launching origind, so that
// the link can be metered, the registry and monitor read, and write_mix's
// writes applied to the repository.
type originHost struct {
	repo    *repository.Repo
	mon     *bem.Monitor
	hub     *coherency.Hub
	reg     *metrics.Registry
	meter   *netsim.Meter
	deliver atomic.Pointer[timedSubscriber] // nil until a proxy subscribes
	url     string

	srv  *http.Server
	done chan struct{}
}

// taggedFragments reports, per fragment of the site, whether it is
// rendered under a BEM tag.
var taggedFragments = sync.OnceValue(func() []bool {
	_, man, err := site.BuildSynthetic(siteConfig, repository.New(repository.LatencyModel{}))
	if err != nil {
		panic(err) // siteConfig is a valid constant
	}
	return man.Cacheable
})

// startOrigin serves the benchmark site on addr. wrap, when non-nil,
// decorates the origin handler (the traced run's span recorder).
func startOrigin(addr string, wrap func(http.Handler) http.Handler) (*originHost, error) {
	reg := metrics.NewRegistry()
	repo := repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: slotCapacity, Registry: reg})
	if err != nil {
		return nil, err
	}
	mon.BindRepo(repo)
	srv, err := origin.New(origin.Config{Repo: repo, Monitor: mon, Registry: reg})
	if err != nil {
		return nil, err
	}
	sc, _, err := site.BuildSynthetic(siteConfig, repo)
	if err != nil {
		return nil, err
	}
	if err := srv.Register(sc); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	meter := netsim.NewMeter(0)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	o := &originHost{
		repo:  repo,
		mon:   mon,
		hub:   coherency.NewHub(mon),
		reg:   reg,
		meter: meter,
		url:   "http://" + ln.Addr().String(),
		srv:   &http.Server{Handler: h},
		done:  make(chan struct{}),
	}
	go func() {
		defer close(o.done)
		_ = o.srv.Serve(netsim.Listener(ln, meter)) // returns ErrServerClosed from stop
	}()
	return o, nil
}

// stop closes the listener and every connection and waits for the serve
// loop to return.
func (o *originHost) stop() {
	_ = o.srv.Close()
	<-o.done
}

// originCounters is a snapshot of what the origin has done and carried.
type originCounters struct {
	Fetches    int64     `json:"fetches"`     // page requests generated (templates and plain pages)
	Bytes      int64     `json:"bytes"`       // application bytes on the origin listener, both directions
	GenerateNs int64     `json:"generate_ns"` // summed script run time
	BEM        bem.Stats `json:"bem"`
	// Invalidation deliveries to the subscribed proxy, timed around
	// RemoteSubscriber.Apply; zero before a proxy subscribes.
	Delivered     int64 `json:"delivered"`
	DeliverNs     int64 `json:"deliver_ns"`
	DeliverErrors int64 `json:"deliver_errors"`
}

func (o *originHost) counters() originCounters {
	snap := o.reg.Snapshot()
	c := originCounters{
		Fetches:    snap["origin.requests"],
		Bytes:      o.meter.Bytes(),
		GenerateNs: snap["origin.generate.count"] * snap["origin.generate.mean_ns"],
		BEM:        o.mon.Stats(),
	}
	if d := o.deliver.Load(); d != nil {
		c.Delivered, c.DeliverNs = d.events.Load(), d.ns.Load()
		c.DeliverErrors = int64(d.remote.Errors())
	}
	return c
}

// timedSubscriber times deliveries to the proxy's invalidation endpoint.
type timedSubscriber struct {
	remote *coherency.RemoteSubscriber
	events atomic.Int64
	ns     atomic.Int64
}

func (t *timedSubscriber) Apply(ev coherency.Event) uint64 {
	t0 := time.Now()
	acked := t.remote.Apply(ev)
	t.ns.Add(int64(time.Since(t0)))
	t.events.Add(1)
	return acked
}

// subscribeProxy delivers the hub's invalidation stream to the proxy at
// proxyURL, as a hub-side deployment would.
func (o *originHost) subscribeProxy(proxyURL string) {
	sub := &timedSubscriber{remote: &coherency.RemoteSubscriber{
		URL:    proxyURL + "/_dpc/invalidate",
		Client: &http.Client{Timeout: 2 * time.Second},
	}}
	o.deliver.Store(sub)
	o.hub.Subscribe(sub)
}

// touch rewrites fragment j's source row to version and returns once the
// invalidation has been delivered to every hub subscriber.
func (o *originHost) touch(j int, version int64) {
	site.TouchFragment(o.repo, j, fmt.Sprint(version))
}

// The measured topology runs the origin in a process of its own — this
// same binary started with -serve-origin — so that the harness process
// holds nothing but the clients: its CPU time per request is then a
// reference that moves with the host's speed and with nothing in the
// repository (see README.md, "Host speed"). The child serves the site on
// one port and, on a second, unmetered one, the three things the harness
// needs from it.

// serveOrigin is the child's main: it serves until the process is
// signalled.
func serveOrigin(originAddr, controlAddr string) error {
	// The control port is bound first, so that it accepts connections
	// from the moment the site answers the harness's readiness probe.
	control, err := net.Listen("tcp", controlAddr)
	if err != nil {
		return err
	}
	o, err := startOrigin(originAddr, nil)
	if err != nil {
		return err
	}
	defer o.stop()
	mux := http.NewServeMux()
	mux.HandleFunc("/counters", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(o.counters())
	})
	mux.HandleFunc("/subscribe", func(w http.ResponseWriter, r *http.Request) {
		o.subscribeProxy(r.URL.Query().Get("proxy"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/touch", func(w http.ResponseWriter, r *http.Request) {
		j, err1 := strconv.Atoi(r.URL.Query().Get("j"))
		v, err2 := strconv.ParseInt(r.URL.Query().Get("v"), 10, 64)
		if err1 != nil || err2 != nil || j < 0 || j >= len(taggedFragments()) {
			http.Error(w, "bad fragment or version", http.StatusBadRequest)
			return
		}
		o.touch(j, v)
		w.WriteHeader(http.StatusNoContent)
	})
	return http.Serve(control, mux)
}

// originProc is the harness's handle on the origin child.
type originProc struct {
	proc    *child
	control string // base URL of the control port
	hc      *http.Client
}

// startOriginProc launches this binary as the origin and waits for the
// site to answer.
func startOriginProc() (*originProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	o := &originProc{hc: &http.Client{Timeout: 5 * time.Second}}
	o.proc, err = spawn("origin", self, "/healthz", func(addr string) ([]string, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		control := "127.0.0.1:" + strconv.Itoa(port)
		o.control = "http://" + control
		return []string{"-serve-origin", addr, "-control", control}, nil
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func (o *originProc) stop() { o.proc.stop() }

func (o *originProc) counters() (originCounters, error) {
	var c originCounters
	resp, err := o.hc.Get(o.control + "/counters")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("origin /counters: status %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

func (o *originProc) post(path string, q url.Values) error {
	resp, err := o.hc.Post(o.control+path+"?"+q.Encode(), "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("origin %s: status %d", path, resp.StatusCode)
	}
	return nil
}

func (o *originProc) subscribeProxy(proxyURL string) error {
	return o.post("/subscribe", url.Values{"proxy": {proxyURL}})
}

// touch returns once the write's invalidation has been delivered.
func (o *originProc) touch(j int, version int64) error {
	return o.post("/touch", url.Values{"j": {strconv.Itoa(j)}, "v": {strconv.FormatInt(version, 10)}})
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before the caller binds; callers retry.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
