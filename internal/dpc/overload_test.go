package dpc

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/clock"
	"dpcache/internal/metrics"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/workload"
)

// The overload harness: the proxy in front of a real origin whose fault
// injector (the worker pool and error draws origind -fault-* uses) runs on
// a fake clock, reached through an in-process transport, driven by a
// seeded Poisson trace straight into ServeHTTP. Time moves only when the
// system has settled — every request that has not finished is parked on a
// fake timer, in the injector's worker queue, on an open flight, or at the
// harness's re-admission turnstile — so a seed gives the same table on
// every run, and a run costs CPU, not wall time.

var overloadTableOut = flag.String("overload-table", "", "write TestOverloadSignals' table to this file")

// The operating point the wall-clock saturation experiment uses: capacity
// is overloadWorkers / overloadService, and page-tier refresh demand (one
// origin fetch per distinct lapsed page) outruns it at overload.
const (
	overloadWorkers  = 2
	overloadService  = 120 * time.Millisecond
	overloadPages    = 48
	overloadTTL      = 150 * time.Millisecond
	overloadClients  = 48 // the client farm's in-flight bound; arrivals past it are dropped
	overloadWindow   = 4  // seconds of arrivals
	overloadSeed     = 2002
	overloadStepSize = 10 * time.Millisecond // drain step; timers fire at their own deadlines
)

func overloadCapacity() float64 { return overloadWorkers / overloadService.Seconds() }

// overloadShape is one kind of overload.
type overloadShape struct {
	name   string
	load   float64 // offered rate, in multiples of the nominal capacity
	alpha  float64 // Zipf exponent over the pages
	tenant float64 // share of arrivals that carry X-User: t0
	faults origin.FaultConfig
}

// overloadVariant sets up one proxy: its config, then in-package changes.
type overloadVariant struct {
	name   string
	config func(*Config)
	adjust func(*Proxy)
}

// overloadRow is one run's outcome.
type overloadRow struct {
	goodput              float64 // 200s per second of the run
	p99                  time.Duration
	ok, shed, stale, err int // err counts every non-200 and every dropped arrival
}

func (r overloadRow) cells() []string {
	return []string{fmt.Sprintf("%.1f", r.goodput), fmt.Sprintf("%dms", r.p99.Milliseconds()),
		fmt.Sprint(r.shed), fmt.Sprint(r.stale), fmt.Sprint(r.err)}
}

// settlingClock fires each fake timer, then waits for the system to settle
// before the next one fires, so the requests woken at one instant run
// before any woken later.
type settlingClock struct {
	*clock.Fake
	settle func()
}

func (c settlingClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.Fake.AfterFunc(d, func() { f(); c.settle() })
}

// overloadRig is one proxy, origin and fake clock.
type overloadRig struct {
	t       testing.TB
	clk     settlingClock
	p       *Proxy
	waiting *metrics.Gauge // the injector's queue depth

	issued, finished atomic.Int64

	mu        sync.Mutex
	turnstile map[int64]chan struct{} // followers waiting to be re-admitted, by arrival
	latencies []time.Duration
	row       overloadRow
	last      time.Time // the latest client response
}

func newOverloadRig(t testing.TB, faults origin.FaultConfig, v overloadVariant) *overloadRig {
	g := &overloadRig{t: t, turnstile: make(map[int64]chan struct{})}
	g.clk = settlingClock{Fake: clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC)), settle: g.settle}
	repo := repository.New(repository.LatencyModel{})
	siteCfg := site.DefaultSynthetic()
	siteCfg.Pages = overloadPages
	capacity := 2 * siteCfg.Pages * siteCfg.FragmentsPerPage
	mon, err := bem.New(bem.Config{Capacity: capacity, Clock: g.clk})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	reg := metrics.NewRegistry()
	srv, err := origin.New(origin.Config{Repo: repo, Monitor: mon, Registry: reg, Faults: origin.NewFaultInjector(faults)})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(siteCfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}
	g.waiting = reg.Gauge("origin.fault_waiting")
	cfg := Config{
		OriginURL: "http://origin.invalid", Capacity: capacity, Strict: true, Coalesce: true,
		PageCache: true, PageCacheTTL: overloadTTL, Clock: g.clk, PublishInterval: -1,
		Transport: inProcessLink{srv},
	}
	if v.config != nil {
		v.config(&cfg)
	}
	if g.p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if v.adjust != nil {
		v.adjust(g.p)
	}
	g.p.readmitting = g.readmit
	return g
}

// arrivalKey carries a request's arrival number in its context.
type arrivalKey struct{}

// readmit parks a follower whose flight ended without serving it until
// settle lets it through: the followers one flight releases are re-admitted
// one at a time, earliest arrival first.
func (g *overloadRig) readmit(r *http.Request) {
	ready := make(chan struct{})
	g.mu.Lock()
	g.turnstile[r.Context().Value(arrivalKey{}).(int64)] = ready
	g.mu.Unlock()
	<-ready
}

// inProcessLink is the proxy's origin link, in memory.
type inProcessLink struct{ origin http.Handler }

func (l inProcessLink) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	l.origin.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// statusWriter keeps a response's status and X-Cache and drops its body.
type statusWriter struct {
	h      http.Header
	status int
}

func (w *statusWriter) Header() http.Header { return w.h }
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *statusWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// revals counts the background revalidations still running.
func (g *overloadRig) revals() int64 {
	a := g.p.admit
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.revalN)
}

// followers counts the requests attached to open flights.
func (g *overloadRig) followers() int64 {
	fg := g.p.flights
	if fg == nil {
		return 0
	}
	fg.mu.Lock()
	defer fg.mu.Unlock()
	var n int64
	for _, f := range fg.m {
		n += int64(f.waiterCount())
	}
	return n
}

// census is the number of requests running (issued and not finished, plus
// revalidations) and the number parked where only time, another request or
// the turnstile can move them.
func (g *overloadRig) census() [2]int64 {
	g.mu.Lock()
	turnstile := int64(len(g.turnstile))
	g.mu.Unlock()
	running := g.issued.Load() - g.finished.Load() + g.revals()
	parked := int64(g.clk.Pending()) + g.waiting.Value() + g.followers() + turnstile
	return [2]int64{running, parked}
}

// settle spins until every running request is parked, seen twice in a row,
// then lets the turnstile's earliest arrival through and settles again
// until the turnstile is empty.
func (g *overloadRig) settle() {
	guard := time.Now().Add(time.Minute)
	prev := g.census()
	for {
		runtime.Gosched()
		cur := g.census()
		if cur == prev && cur[0] == cur[1] && !g.admitNext() {
			return
		}
		prev = cur
		if time.Now().After(guard) {
			g.t.Fatalf("overload harness never settled: %d running, %d parked", cur[0], cur[1])
		}
	}
}

// admitNext lets the turnstile's earliest arrival through, reporting
// whether there was one.
func (g *overloadRig) admitNext() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.turnstile) == 0 {
		return false
	}
	first := int64(math.MaxInt64)
	for n := range g.turnstile {
		first = min(first, n)
	}
	close(g.turnstile[first])
	delete(g.turnstile, first)
	return true
}

// issue starts one client request now; counted marks a measured one.
func (g *overloadRig) issue(path, user string, counted bool) {
	n := g.issued.Add(1)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req = req.WithContext(context.WithValue(req.Context(), arrivalKey{}, n))
	if user != "" {
		req.Header.Set("X-User", user)
	}
	began := g.clk.Now()
	go func() {
		defer g.finished.Add(1)
		w := &statusWriter{h: make(http.Header)}
		g.p.ServeHTTP(w, req)
		if !counted {
			return
		}
		now := g.clk.Now()
		g.mu.Lock()
		defer g.mu.Unlock()
		g.latencies = append(g.latencies, now.Sub(began))
		if now.After(g.last) {
			g.last = now
		}
		switch cache := w.h.Get("X-Cache"); {
		case w.status != http.StatusOK:
			g.row.err++
			if cache == "SHED" {
				g.row.shed++
			}
		case cache == "STALE":
			g.row.ok++
			g.row.stale++
		default:
			g.row.ok++
		}
	}()
	g.settle()
}

// drain moves the clock until every request and revalidation is done.
func (g *overloadRig) drain() {
	for g.issued.Load() > g.finished.Load() || g.revals() > 0 {
		if g.clk.Pending() == 0 && g.waiting.Value() == 0 {
			g.t.Fatalf("overload harness wedged: %d requests running with no timer pending", g.issued.Load()-g.finished.Load())
		}
		g.clk.Advance(overloadStepSize)
	}
}

// runOverload warms every page into the page tier one fetch at a time,
// then drives the shape's arrivals at the offered rate.
func runOverload(t testing.TB, sh overloadShape, v overloadVariant) overloadRow {
	faults := sh.faults
	faults.MaxConcurrent = overloadWorkers
	faults.Seed = overloadSeed
	if faults.Latency == 0 {
		faults.Latency = overloadService
	}
	g := newOverloadRig(t, faults, v)
	defer g.p.Close()
	for page := 0; page < overloadPages; page++ {
		g.issue(fmt.Sprintf("/page/synth?page=%d", page), "", false)
		g.drain()
	}

	rate := sh.load * overloadCapacity()
	pois, err := workload.NewPoisson(rate)
	if err != nil {
		t.Fatal(err)
	}
	z, err := workload.NewZipf(overloadPages, sh.alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(overloadSeed))
	arrivals := pois.Trace(rng, int(rate*overloadWindow))
	start := g.clk.Now()
	g.last = start
	for _, at := range arrivals {
		g.clk.Set(start.Add(time.Duration(at * float64(time.Second))))
		path := fmt.Sprintf("/page/synth?page=%d", z.Sample(rng))
		user := ""
		if rng.Float64() < sh.tenant {
			user = "t0"
		}
		if g.issued.Load()-g.finished.Load() >= overloadClients {
			g.mu.Lock()
			g.row.err++ // dropped: the client farm is saturated
			g.mu.Unlock()
			continue
		}
		g.issue(path, user, true)
	}
	g.drain()

	row := g.row
	row.goodput = float64(row.ok) / g.last.Sub(start).Seconds()
	sort.Slice(g.latencies, func(i, j int) bool { return g.latencies[i] < g.latencies[j] })
	if n := len(g.latencies); n > 0 {
		row.p99 = g.latencies[int(math.Ceil(0.99*float64(n)))-1]
	}
	return row
}

// overloadOn is the admission setting the wall-clock saturation experiment
// runs.
func overloadOn(c *Config) {
	c.Admission = true
	c.MaxOriginInFlight = 4
	c.MaxFlightWaiters = 8
	c.StaleWindow = 30 * time.Second
	c.RetryAfter = time.Second
}

// At four times the origin's capacity admission sheds or serves stale, and
// its goodput beats the unprotected pipeline's; off, the stage is absent
// and does neither. The checks the wall-clock saturation experiment made,
// on the same operating point, in virtual time.
func TestOverloadSaturation(t *testing.T) {
	var table []string
	rows := map[string]overloadRow{}
	for _, load := range []float64{0.5, 2, 4} {
		for _, on := range []bool{false, true} {
			v := overloadVariant{name: "off"}
			if on {
				v = overloadVariant{name: "on", config: overloadOn}
			}
			row := runOverload(t, overloadShape{name: "saturation", load: load, alpha: 1}, v)
			rows[fmt.Sprint(load, v.name)] = row
			table = append(table, fmt.Sprintf("%.1f× %-3s %s", load, v.name, strings.Join(row.cells(), " ")))
		}
	}
	t.Logf("load admission goodput p99 shed stale errors\n%s", strings.Join(table, "\n"))
	off, on := rows["4off"], rows["4on"]
	if on.shed+on.stale == 0 {
		t.Errorf("admission on shed and stale-served nothing at 4x capacity")
	}
	if off.shed+off.stale != 0 {
		t.Errorf("admission off recorded %d sheds and %d stale serves; the stage must be absent", off.shed, off.stale)
	}
	if on.goodput <= off.goodput {
		t.Errorf("goodput at 4x capacity: admission on %.1f/s did not beat off %.1f/s", on.goodput, off.goodput)
	}
}

// overloadShapes are the kinds of overload each admission signal is
// judged on.
var overloadShapes = []overloadShape{
	{name: "hot_key", load: 4, alpha: 2},
	{name: "hot_tenant", load: 4, alpha: 1, tenant: 0.5},
	{name: "slow_origin", load: 4, alpha: 1, faults: origin.FaultConfig{Latency: 4 * overloadService, HangRate: 0.1}},
	{name: "failing_origin", load: 2, alpha: 1, faults: origin.FaultConfig{ErrorRate: 0.5}},
}

// overloadAll arms every admission signal.
func overloadAll(c *Config) {
	c.Admission = true
	c.MaxOriginInFlight = 4
	c.MaxFlightWaiters = 8
	c.MaxTenantInFlight = 2
	c.ShedLatency = 2 * overloadService
	c.NegTTL = time.Second
}

// overloadWithout disarms one signal of overloadAll's.
var overloadWithout = []overloadVariant{
	{name: "-queue", adjust: func(p *Proxy) { p.admit.maxWaiters = 0 }},
	// An entry that lapses before it is read is never a hit.
	{name: "-negcache", adjust: func(p *Proxy) { p.admit.negTTL = -time.Nanosecond }},
	{name: "-inflight", adjust: func(p *Proxy) { p.admit.maxInFlight = 0 }},
	{name: "-per-tenant", adjust: func(p *Proxy) { p.admit.maxTenant = 0 }},
	{name: "-latency", adjust: func(p *Proxy) { p.admit.shedLatency = 0 }},
	{name: "-flight", config: func(c *Config) { c.Coalesce = false }},
}

// Each admission signal, and the flight, earns its place by changing a
// row: on some shape, disarming it alone moves goodput, p99, sheds, stale
// serves or errors.
func TestOverloadSignals(t *testing.T) {
	var out strings.Builder
	line := func(cells ...string) {
		fmt.Fprintf(&out, "%-15s %-11s %7s %7s %5s %5s %6s\n", cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6])
	}
	line("shape", "variant", "goodput", "p99", "shed", "stale", "errors")
	changed := map[string][]string{}
	for _, sh := range overloadShapes {
		all := runOverload(t, sh, overloadVariant{config: overloadAll})
		line(append([]string{sh.name, "all"}, all.cells()...)...)
		for _, v := range overloadWithout {
			cfg := v.config
			v.config = func(c *Config) {
				overloadAll(c)
				if cfg != nil {
					cfg(c)
				}
			}
			row := runOverload(t, sh, v)
			line(append([]string{sh.name, v.name}, row.cells()...)...)
			if row != all {
				changed[v.name] = append(changed[v.name], sh.name)
			}
		}
	}
	t.Logf("\n%s", out.String())
	if *overloadTableOut != "" {
		if err := os.WriteFile(*overloadTableOut, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range overloadWithout {
		if len(changed[v.name]) == 0 {
			t.Errorf("%s changes no row on any shape", v.name)
		}
	}
}
