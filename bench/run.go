package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpcache/internal/depindex"
	"dpcache/internal/fragstore"
	"dpcache/internal/tmplplan"
)

// runConfig is one invocation's sizing. The defaults are the ledger's;
// -short shrinks them for the smoke test.
type runConfig struct {
	root    string // repository root, where cmd/dpcd is built from
	workDir string // scratch directory for the dpcd binary, heap files and traces
	seed    int64
	window  time.Duration
	trace   bool
	// setups is how many times the topology is brought up and warmed;
	// setup_s is the median and the window runs on the last one.
	setups int
	// warmup is the number of stream requests sent, across all clients,
	// between the sequential pass and the window.
	warmup int
	// subWindows splits the window; rps, the latency percentiles and the
	// proxy's CPU per request are medians over them, so a few seconds of
	// interference from the host do not move the result.
	subWindows int
	// tracedRequests sizes the traced run and its untraced twin.
	tracedRequests int
	// probeScale multiplies the probes' fixed operation counts.
	probeScale int
	logf       func(format string, args ...any)
}

func defaultRunConfig() runConfig {
	return runConfig{
		setups: 3, warmup: 5000, subWindows: 5,
		tracedRequests: 5000, probeScale: 10,
	}
}

func shortRunConfig() runConfig {
	return runConfig{
		setups: 1, warmup: 500, subWindows: 2,
		tracedRequests: 500, probeScale: 1,
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Samples   int              `json:"samples"` // latencies behind p50_ms and p99_ms
	StreamSHA string           `json:"stream_sha"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	FirstErr  string           `json:"first_error,omitempty"`
}

// absorb adds one phase's operation counts to the result.
func (r *result) absorb(attempted, failed int64, first error) {
	r.Attempted += attempted
	r.Failed += failed
	if first != nil && r.FirstErr == "" {
		r.FirstErr = first.Error()
	}
}

// live tracks what must not outlive the harness — the dpcd processes
// running right now and the temporary directories in use — so the
// watchdog and the signal handler can clear them from outside the run.
var live = struct {
	sync.Mutex
	procs map[*child]struct{}
	dirs  map[string]struct{}
}{procs: map[*child]struct{}{}, dirs: map[string]struct{}{}}

func trackChild(c *child) {
	live.Lock()
	defer live.Unlock()
	live.procs[c] = struct{}{}
}

func untrackChild(c *child) {
	live.Lock()
	defer live.Unlock()
	delete(live.procs, c)
}

// tempDir creates a directory under parent that removeTempDir, or
// failing that killChildren, deletes.
func tempDir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	live.Lock()
	defer live.Unlock()
	live.dirs[dir] = struct{}{}
	return dir, nil
}

func removeTempDir(dir string) {
	_ = os.RemoveAll(dir) // a leftover is under the ignored scratch directory
	live.Lock()
	defer live.Unlock()
	delete(live.dirs, dir)
}

// killChildren kills every live child process, removes every temporary
// directory, and returns what the processes had written.
func killChildren() string {
	live.Lock()
	defer live.Unlock()
	out := ""
	for c := range live.procs {
		c.kill()
		out += fmt.Sprintf("--- %s pid %d output ---\n%s", c.name, c.pid(), c.output)
	}
	for dir := range live.dirs {
		_ = os.RemoveAll(dir)
	}
	clear(live.procs)
	clear(live.dirs)
	return out
}

// instance is one warmed topology: the origin and dpcd as child
// processes, the closed-loop clients in the harness, and — for write_mix —
// the writer.
type instance struct {
	origin  *originProc
	proxy   *child
	dir     string // holds the heap file; removed on tearDown
	oracle  *oracle
	clients []*loadClient
	link    *linkMeter
	writer  *writer // nil unless the workload writes
}

// linkMeter counts application bytes on the client↔proxy connections.
type linkMeter struct{ bytes atomic.Int64 }

type meteredConn struct {
	net.Conn
	m *linkMeter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.bytes.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.bytes.Add(int64(n))
	return n, err
}

func (m *linkMeter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: m}, nil
}

// writer applies write_mix's schedule: writeRate times a second it bumps
// one tagged fragment's source row, which the BEM turns into an
// invalidation the hub delivers to the proxy before touch returns.
type writer struct {
	stop   chan struct{}
	done   chan struct{}
	writes atomic.Int64
	err    error // the first failed touch; read after close
}

func startWriter(touch func(j int, version int64) error, or *oracle, sched *writeSchedule) *writer {
	w := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Second / writeRate)
		defer tick.Stop()
		version := int64(initialVersion)
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			version++
			j := sched.next()
			or.issue(j, version)
			if err := touch(j, version); err != nil {
				// The write may or may not have happened; without an
				// acknowledgement the oracle demands nothing of it.
				w.err = err
				return
			}
			or.acknowledge(j, time.Now())
			w.writes.Add(1)
		}
	}()
	return w
}

// close stops the writer and reports whether every write went through.
func (w *writer) close() error {
	close(w.stop)
	<-w.done
	return w.err
}

// setupTiming is what one set-up cost: the wall time from starting the
// origin to the last warm-up response, and the harness's CPU time over
// the requests, from which the host's speed during it is judged.
type setupTiming struct {
	took      time.Duration
	clientCPU time.Duration
	requests  int
}

// setUp brings up a fresh origin and proxy pair and warms it: one pass
// over every page, then cfg.warmup requests of the workload's own
// stream. The time it reports excludes building dpcd.
func setUp(cfg runConfig, w workloadSpec, bin string) (*instance, setupTiming, error) {
	t0 := time.Now()
	var none setupTiming
	in := &instance{}
	ok := false
	defer func() {
		if !ok {
			in.tearDown()
		}
	}()
	var err error
	if in.dir, err = tempDir(cfg.workDir, "run-"); err != nil {
		return nil, none, err
	}
	if in.origin, err = startOriginProc(); err != nil {
		return nil, none, err
	}
	if in.proxy, err = startDpcd(bin, in.origin.proc.url, w.dpcdFlags(in.dir)); err != nil {
		return nil, none, err
	}
	in.oracle = newOracle(freshGrace)
	in.link = &linkMeter{}
	for c := 0; c < clients; c++ {
		in.clients = append(in.clients, newLoadClient(in.proxy.url, newStream(w, cfg.seed, c), in.oracle, in.link.dial))
	}
	cpu0 := selfCPU()
	in.clients[0].sequentialPass()
	if w.writes {
		if err = in.origin.subscribeProxy(in.proxy.url); err != nil {
			return nil, none, err
		}
		in.writer = startWriter(in.origin.touch, in.oracle, newWriteSchedule(cfg.seed, taggedFragments()))
	}
	runClients(in.clients, func(_ int, c *loadClient) { c.run(cfg.warmup / clients) })
	ok = true
	return in, setupTiming{
		took:      time.Since(t0),
		clientCPU: selfCPU() - cpu0,
		requests:  siteConfig.Pages + cfg.warmup/clients*clients,
	}, nil
}

// tearDown stops everything setUp started, in reverse order, and waits
// for each to end. A second call does nothing.
func (in *instance) tearDown() {
	in.stopWriter()
	for _, c := range in.clients {
		c.close()
	}
	if in.proxy != nil {
		in.proxy.stop()
		in.proxy = nil
	}
	if in.origin != nil {
		in.origin.stop()
		in.origin = nil
	}
	if in.dir != "" {
		removeTempDir(in.dir)
		in.dir = ""
	}
}

// stopWriter ends the writes and reports whether all of them went through.
func (in *instance) stopWriter() error {
	if in.writer == nil {
		return nil
	}
	err := in.writer.close()
	in.writer = nil
	return err
}

// tally sums the clients' operation counts.
func (in *instance) tally() (attempted, failed int64, first error) {
	for _, c := range in.clients {
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return
}

// proxyStats is the part of dpcd's /_dpc/stats the ledger reads.
type proxyStats struct {
	Metrics   map[string]int64       `json:"metrics"`
	Store     fragstore.Stats        `json:"store"`
	Disk      *fragstore.TieredStats `json:"disk"`
	PlanCache *tmplplan.CacheStats   `json:"plancache"`
	DepIndex  *depindex.Stats        `json:"depindex"`
	PageCache *struct{ Bytes int64 } `json:"pagecache"`
}

func scrapeStats(url string) (proxyStats, error) {
	var st proxyStats
	resp, err := http.Get(url + "/_dpc/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/_dpc/stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is every counter source read at one moment.
type snapshot struct {
	proxy  proxyStats
	origin originCounters
	link   int64 // bytes on the client↔proxy connections
	writes int64 // zero unless the workload writes
}

func (in *instance) snapshot() (snapshot, error) {
	s := snapshot{link: in.link.bytes.Load()}
	if in.writer != nil {
		s.writes = in.writer.writes.Load()
	}
	var err error
	if s.origin, err = in.origin.counters(); err != nil {
		return s, err
	}
	s.proxy, err = scrapeStats(in.proxy.url)
	return s, err
}

// usage is the CPU time of the three processes, and the proxy's peak
// memory, at one moment.
type usage struct {
	proxy  procUsage
	origin procUsage
	self   time.Duration // the harness: clients, oracle, writer
}

func (in *instance) usage() (usage, error) {
	u := usage{self: selfCPU()}
	var err error
	if u.proxy, err = readUsage(in.proxy.pid()); err != nil {
		return u, err
	}
	u.origin, err = readUsage(in.origin.proc.pid())
	return u, err
}

// windowReport is everything observed around one measured window.
type windowReport struct {
	samples       []windowSamples // per client
	window        time.Duration
	before, after snapshot
	// usage is taken at the start of the window and at the end of each
	// sub-window.
	usage     []usage
	heapBytes int64 // heap-file size at window end; 0 without a disk tier
}

// measureWindow drives the clients for cfg.window and snapshots every
// counter source on both sides of it. The scrapes of dpcd and the origin
// are outside the window; inside it run the clients, the writer, and a
// sampler that reads the processes' CPU times once per sub-window.
func (in *instance) measureWindow(cfg runConfig, w workloadSpec) (windowReport, error) {
	rep := windowReport{window: cfg.window, samples: make([]windowSamples, len(in.clients))}
	var err error
	if rep.before, err = in.snapshot(); err != nil {
		return rep, err
	}
	u0, err := in.usage()
	if err != nil {
		return rep, err
	}
	rep.usage = append(rep.usage, u0)

	start := time.Now()
	sampled := make(chan error, 1)
	go func() {
		subLen := cfg.window / time.Duration(cfg.subWindows)
		for k := 1; k <= cfg.subWindows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * subLen)))
			u, err := in.usage()
			if err != nil {
				sampled <- err
				return
			}
			rep.usage = append(rep.usage, u)
		}
		sampled <- nil
	}()
	runClients(in.clients, func(i int, c *loadClient) {
		rep.samples[i] = c.measure(start, cfg.window, cfg.subWindows)
	})
	if err := <-sampled; err != nil {
		return rep, err
	}
	if rep.after, err = in.snapshot(); err != nil {
		return rep, err
	}
	if path := w.storeConfig(in.dir).DiskPath; path != "" {
		fi, err := os.Stat(path)
		if err != nil {
			return rep, err
		}
		rep.heapBytes = fi.Size()
	}
	return rep, nil
}

// runWorkload is one invocation: build dpcd, set up cfg.setups times,
// measure one window on the last instance and — with cfg.trace — follow
// it with the traced run and the probes.
func runWorkload(ctx context.Context, cfg runConfig, w workloadSpec) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDpcd(ctx, cfg.root, cfg.workDir)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		EndToEnd: map[string]value{}, PerLayer: map[string]value{},
	}

	if cfg.trace {
		// A traced invocation reports no setup_s; its time goes to the
		// traced run instead.
		cfg.setups = 1
	}
	var in *instance
	var setups []setupTiming
	for i := 1; i <= cfg.setups; i++ {
		var st setupTiming
		if in, st, err = setUp(cfg, w, bin); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		cfg.logf("set-up %d/%d took %.3fs, %.1f us of harness CPU per request", i, cfg.setups, st.took.Seconds(), us(st.clientCPU)/float64(st.requests))
		setups = append(setups, st)
		if i < cfg.setups {
			res.absorb(in.tally())
			in.tearDown()
		}
	}
	defer in.tearDown()
	res.StreamSHA = streamSHA(w, cfg.seed, taggedFragments(), 4096)

	rep, err := in.measureWindow(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("measured window: %w\n--- dpcd output ---\n%s", err, in.proxy.output)
	}
	if err := in.stopWriter(); err != nil {
		return nil, fmt.Errorf("writer: %w", err)
	}
	res.absorb(in.tally())
	res.Samples = endToEndMetrics(res, rep, w, setups)
	layerCounters(res.PerLayer, rep, in.oracle.raced.Load())

	if cfg.trace {
		// The measured topology is done with; free its cores and memory
		// before the traced one starts.
		in.tearDown()
		tr, err := tracedRun(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.absorb(tr.attempted, tr.failed, tr.firstErr)
		for name, v := range tr.metrics {
			set(res.PerLayer, name, v)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
