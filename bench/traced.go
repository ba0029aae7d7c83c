package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
)

// The traced run records a span around every call into a layer. Spans may
// come only from the benchmark's own files, so the proxy here is an
// in-process dpc.New with a recording decorator on each public seam:
// Proxy.ServeHTTP, Config.Transport, Config.Store, Config.PageCacheStore,
// Config.Codec, and the origin's http.Handler. The decorators pass
// straight through while the recorder is off, which is how the untraced
// twin of the same requests is run to price the tracing itself.

// Span names. Each is the layer whose self time it carries.
const (
	spanProxy     = "dpc"
	spanRoundTrip = "origin.rtt"
	spanOrigin    = "origin"
	spanStoreGet  = "fragstore.get"
	spanStoreSet  = "fragstore.set"
	spanPageGet   = "pagecache.get"
	spanPagePut   = "pagecache.put"
	spanDecode    = "tmpl.decode"
)

func tracedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		o := rec.begin()
		h.ServeHTTP(w, r)
		rec.end(name, o)
	})
}

type tracedTransport struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(r)
	}
	o := t.rec.begin()
	resp, err := t.inner.RoundTrip(r)
	t.rec.end(spanRoundTrip, o)
	return resp, err
}

// tracedStore times Get and Set; the rest of the contract passes through.
type tracedStore struct {
	fragstore.FragmentStore
	rec *recorder
}

func (s tracedStore) Get(key, gen uint32, strict bool) ([]byte, bool) {
	if !s.rec.on.Load() {
		return s.FragmentStore.Get(key, gen, strict)
	}
	o := s.rec.begin()
	b, ok := s.FragmentStore.Get(key, gen, strict)
	s.rec.end(spanStoreGet, o)
	return b, ok
}

func (s tracedStore) Set(key, gen uint32, content []byte) error {
	if !s.rec.on.Load() {
		return s.FragmentStore.Set(key, gen, content)
	}
	o := s.rec.begin()
	err := s.FragmentStore.Set(key, gen, content)
	s.rec.end(spanStoreSet, o)
	return err
}

// tracedKeyed times the page tier's reads and fills.
type tracedKeyed struct {
	fragstore.Keyed
	rec *recorder
}

func (k tracedKeyed) Get(key string) (fragstore.KeyedEntry, bool) {
	if !k.rec.on.Load() {
		return k.Keyed.Get(key)
	}
	o := k.rec.begin()
	e, ok := k.Keyed.Get(key)
	k.rec.end(spanPageGet, o)
	return e, ok
}

func (k tracedKeyed) GetKeep(key string) (fragstore.KeyedEntry, bool) {
	if !k.rec.on.Load() {
		return k.Keyed.GetKeep(key)
	}
	o := k.rec.begin()
	e, ok := k.Keyed.GetKeep(key)
	k.rec.end(spanPageGet, o)
	return e, ok
}

func (k tracedKeyed) Put(key string, entry fragstore.KeyedEntry, ttl time.Duration) {
	if !k.rec.on.Load() {
		k.Keyed.Put(key, entry, ttl)
		return
	}
	o := k.rec.begin()
	k.Keyed.Put(key, entry, ttl)
	k.rec.end(spanPagePut, o)
}

// tracedCodec times every Decoder.Next.
type tracedCodec struct {
	tmpl.Codec
	rec *recorder
}

func (c tracedCodec) NewDecoder(r io.Reader) tmpl.Decoder {
	return tracedDecoder{inner: c.Codec.NewDecoder(r), rec: c.rec}
}

type tracedDecoder struct {
	inner tmpl.Decoder
	rec   *recorder
}

func (d tracedDecoder) Next() (tmpl.Instruction, error) {
	if !d.rec.on.Load() {
		return d.inner.Next()
	}
	o := d.rec.begin()
	in, err := d.inner.Next()
	d.rec.end(spanDecode, o)
	return in, err
}

// tracedTopology is the in-process stand-in for the measured one.
type tracedTopology struct {
	rec    *recorder
	origin *originHost
	store  fragstore.FragmentStore
	proxy  *dpc.Proxy
	srv    *http.Server
	done   chan struct{}
	url    string
	dir    string
}

// startTraced builds the workload's proxy the way cmd/dpcd does with the
// workload's flags — same store configuration, same defaults for strict
// mode, coalescing, streaming and the plan cache — with the decorators
// in place.
func startTraced(cfg runConfig, w workloadSpec) (*tracedTopology, error) {
	t := &tracedTopology{rec: newRecorder(), done: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	var err error
	if t.dir, err = tempDir(cfg.workDir, "traced-"); err != nil {
		return nil, err
	}
	t.origin, err = startOrigin("127.0.0.1:0", func(h http.Handler) http.Handler { return tracedHandler(t.rec, spanOrigin, h) })
	if err != nil {
		return nil, err
	}
	if t.store, err = fragstore.New(w.storeConfig(t.dir)); err != nil {
		return nil, err
	}
	pc := dpc.Config{
		OriginURL: t.origin.url,
		Capacity:  slotCapacity,
		Store:     tracedStore{FragmentStore: t.store, rec: t.rec},
		Codec:     tracedCodec{Codec: tmpl.Binary{}, rec: t.rec},
		Strict:    true,
		Coalesce:  true,
		Stream:    true,
		PlanCache: true,
		Transport: tracedTransport{rec: t.rec, inner: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	if w.pageCache {
		// pagecache.NewCache's own default sizing, which stops applying
		// once a store is passed in.
		pages, err := fragstore.NewKeyed(fragstore.KeyedConfig{MaxEntries: 1024})
		if err != nil {
			return nil, err
		}
		pc.PageCache = true
		pc.PageCacheTTL = pageTTL
		pc.PageCacheStore = tracedKeyed{Keyed: pages, rec: t.rec}
	}
	if t.proxy, err = dpc.New(pc); err != nil {
		return nil, err
	}
	if w.writes {
		fan := coherency.Fanout(core.ProxySubscribers(t.proxy, t.proxy.Registry())...)
		t.proxy.HandleAdmin("/_dpc/invalidate", coherency.Handler(fan))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: tracedHandler(t.rec, spanProxy, t.proxy)}
	go func() {
		defer close(t.done)
		_ = t.srv.Serve(ln) // returns ErrServerClosed from stop
	}()
	ok = true
	return t, nil
}

func (t *tracedTopology) stop() {
	if t.srv != nil {
		_ = t.srv.Close()
		<-t.done
	}
	if t.proxy != nil {
		_ = t.proxy.Close()
	}
	if c, ok := t.store.(io.Closer); ok {
		_ = c.Close() // the heap file is deleted next
	}
	if t.origin != nil {
		t.origin.stop()
	}
	if t.dir != "" {
		removeTempDir(t.dir)
	}
}

// tracedReport is what the traced run and the probes add to a result.
type tracedReport struct {
	attempted, failed int64
	firstErr          error
	metrics           map[string]float64
}

// tracedWriteEvery spaces write_mix's writes in the traced run: one per
// this many requests, which at the measured request rate is about
// writeRate a second. They are made between requests, by the one
// sequential client, so every span still has a single running parent.
const tracedWriteEvery = 200

// tracedRun warms the in-process topology, sends the same requests once
// with the recorder off and once with it on, turns the spans into
// per-layer self times, writes them to trace_<workload>.json, and runs
// the probes on templates captured from this workload.
func tracedRun(cfg runConfig, w workloadSpec) (*tracedReport, error) {
	t, err := startTraced(cfg, w)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	or := newOracle(freshGrace)
	c := newLoadClient(t.url, newStream(w, cfg.seed, 0), or, nil)
	defer c.close()
	if w.writes {
		t.origin.subscribeProxy(t.url)
	}
	c.sequentialPass()
	c.run(cfg.warmup / clients)

	reqs := make([]request, cfg.tracedRequests)
	for i := range reqs {
		reqs[i] = c.stream.next()
	}
	sched := newWriteSchedule(cfg.seed, taggedFragments())
	version := int64(initialVersion)
	pass := func(from, to int) time.Duration {
		t0 := time.Now()
		for i := from; i < to; i++ {
			if w.writes && i%tracedWriteEvery == tracedWriteEvery-1 {
				version++
				j := sched.next()
				or.issue(j, version)
				t.origin.touch(j, version)
				or.acknowledge(j, time.Now())
			}
			t.rec.req.Store(int64(i))
			o := t.rec.begin()
			c.do(reqs[i])
			if t.rec.on.Load() {
				t.rec.end(rootSpan, o)
			}
		}
		return time.Since(t0)
	}
	// The untraced twin is the same requests with the recorder off: the
	// first half before the traced pass and the second half after it, so
	// a drift across the passes (caches still settling) is not mistaken
	// for tracing overhead.
	half := len(reqs) / 2
	untraced := pass(0, half)
	t.rec.on.Store(true)
	traced := pass(0, len(reqs))
	t.rec.on.Store(false)
	untraced += pass(half, len(reqs))

	rep := &tracedReport{attempted: c.attempted, failed: c.failed, firstErr: c.firstErr, metrics: map[string]float64{}}
	spans := t.rec.spans
	sr := analyze(spans)
	n := float64(len(reqs))
	perReq := func(name string) float64 { return float64(sr.selfNs[name]) / 1e3 / n }
	rep.metrics["workload.client_self_us_per_req"] = perReq(rootSpan)
	rep.metrics["dpc.self_us_per_req"] = perReq(spanProxy)
	rep.metrics["origin.rtt_us_per_req"] = perReq(spanRoundTrip)
	rep.metrics["origin.self_us_per_req"] = perReq(spanOrigin)
	rep.metrics["fragstore.get_us_per_req"] = perReq(spanStoreGet)
	rep.metrics["fragstore.set_us_per_req"] = perReq(spanStoreSet)
	rep.metrics["fragstore.get_ns_per_call"] = ratio(float64(sr.totalNs[spanStoreGet]), float64(sr.calls[spanStoreGet]))
	rep.metrics["pagecache.get_us_per_req"] = perReq(spanPageGet)
	rep.metrics["pagecache.put_us_per_req"] = perReq(spanPagePut)
	rep.metrics["tmpl.decode_us_per_req"] = perReq(spanDecode)
	// What no span covers: the harness between one response and the
	// next request (stream, oracle, span bookkeeping, inline writes).
	rep.metrics["trace.unattributed_share"] = float64(int64(traced)-sr.rootNs) / float64(traced)
	rep.metrics["trace.overhead_share"] = float64(traced-untraced) / float64(untraced)
	rep.metrics["trace.orphan_spans"] = float64(sr.orphans)

	var selfSum int64
	for _, ns := range sr.selfNs {
		selfSum += ns
	}
	cfg.logf("traced run: %d requests, %d spans, wall %.3fs traced / %.3fs untraced; self times %.3fs + unattributed %.3fs = %.3fs",
		len(reqs), len(spans), traced.Seconds(), untraced.Seconds(),
		float64(selfSum)/1e9, float64(int64(traced)-sr.rootNs)/1e9, float64(selfSum+int64(traced)-sr.rootNs)/1e9)

	path := filepath.Join(cfg.workDir, "trace_"+w.Name+".json")
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	cfg.logf("spans written to %s", path)

	templates, err := captureTemplates(t.origin.url, 32)
	if err != nil {
		return nil, fmt.Errorf("capture templates: %w", err)
	}
	if err := runProbes(cfg, templates, rep.metrics); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return rep, nil
}
