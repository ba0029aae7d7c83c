package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/origin"
	"dpcache/internal/site"
	"dpcache/internal/workload"
)

// Saturation-experiment shape: a fault-injected origin with a fixed
// worker pool (capacity = workers / service time) is driven open-loop at
// offered loads swept past that capacity, with the admission-control
// stage off and on. Off, every page-tier miss queues on the origin:
// queueing delay compounds, the client farm's in-flight bound fills, and
// goodput collapses while p99 explodes. On, the proxy bounds origin
// concurrency and answers the overflow from stale page-tier entries (or
// a fast 503), so goodput tracks offered load and the tail stays
// bounded.
// The operating point is chosen so that page-tier *refresh demand* —
// one coalesced origin fetch per distinct expired page, the floor
// neither the page tier nor single-flight coalescing can absorb —
// decisively exceeds origin capacity at the swept overload rates. The
// page population must be large relative to capacity: coalescing alone
// self-regulates a small hot set (flights lengthen, refreshes per page
// per second fall, the queue stabilizes), so collapse only appears when
// the expired-key working set outruns what the origin can refresh.
//
// This is the wall-clock, over-sockets run of that operating point, for
// the record dpcbench writes. Its checks live in virtual time: the
// overload harness in internal/dpc (TestOverloadSaturation) runs the same
// point on a fake clock, deterministically, in well under a second.
const (
	satOriginWorkers = 2
	satOriginLatency = 120 * time.Millisecond
	satPages         = 48
	satPageTTL       = 150 * time.Millisecond
	// satClientInFlight bounds the open-loop client farm; arrivals past
	// it are dropped and counted as errors (an overloaded farm, not a
	// well-behaved closed loop).
	satClientInFlight = 48
)

// satCapacity is the fault-injected origin's service capacity in
// requests/second.
func satCapacity() float64 {
	return float64(satOriginWorkers) / satOriginLatency.Seconds()
}

// Saturation measures goodput and tail latency at offered loads below and
// past origin capacity, with admission control off and on.
func Saturation(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:    "saturation",
		Title: "Overload resilience: goodput and p99 vs offered load, admission control off/on",
		Columns: []string{
			"admission", "offered rps", "goodput rps", "p99", "shed 503s", "stale served", "errors",
		},
	}
	for _, mult := range []float64{0.5, 2, 4} {
		offered := mult * satCapacity()
		for _, shedding := range []bool{false, true} {
			row, err := runSaturationPoint(opts, offered, shedding)
			if err != nil {
				return t, fmt.Errorf("saturation %.0f rps shedding=%v: %w", offered, shedding, err)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("origin capacity ≈ %.0f req/s (%d workers × %v service time, fault-injected); offered load is an open-loop Poisson trace at 0.5×, 2×, and 4× capacity", satCapacity(), satOriginWorkers, satOriginLatency),
		fmt.Sprintf("both modes run the page tier with a %v TTL over %d pages, so distinct-key refresh demand alone can reach %0.f/s against origin capacity at overload", satPageTTL, satPages, float64(satPages)/satPageTTL.Seconds()),
		"goodput counts 200s only: shed 503s, dropped arrivals (client farm past its in-flight bound), and timeouts are errors",
		"with admission on, overflow is served stale from the page tier (X-Cache: STALE) under a bounded origin concurrency, so goodput tracks offered load where the unprotected pipeline queues and collapses")
	return t, nil
}

// runSaturationPoint stands up one system (admission off or on) behind
// the fault-injected origin, warms the page tier, then drives an
// open-loop Poisson trace at the offered rate.
func runSaturationPoint(opts Options, offered float64, shedding bool) ([]string, error) {
	siteCfg := site.DefaultSynthetic()
	siteCfg.Pages = satPages
	cfg := core.Config{
		Capacity:         2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		Seed:             opts.Seed,
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		OriginFaults: &origin.FaultConfig{
			Latency:       satOriginLatency,
			MaxConcurrent: satOriginWorkers,
			Seed:          opts.Seed,
		},
		Proxy: dpc.Config{Strict: true, Coalesce: true, PageCache: true, PageCacheTTL: satPageTTL},
	}
	if shedding {
		cfg.Proxy.Admission = true
		cfg.Proxy.MaxOriginInFlight = 4
		cfg.Proxy.MaxFlightWaiters = 8
		cfg.Proxy.StaleWindow = 30 * time.Second
		cfg.Proxy.RetryAfter = time.Second
	}
	sys, err := core.NewSystem(cfg, core.ModeCached)
	if err != nil {
		return nil, err
	}
	sc, _, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		return nil, err
	}
	if err := sys.Register(sc); err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	defer sys.Close()

	// Warm every page into the page tier so stale copies exist when
	// pressure hits. Warmers run a few at a time (the fault-injected
	// origin serializes them anyway) but stay under the admission
	// in-flight bound so no warmup fetch is shed in the shedding run.
	warmErr := make(chan error, siteCfg.Pages)
	warmSem := make(chan struct{}, 3)
	for p := 0; p < siteCfg.Pages; p++ {
		warmSem <- struct{}{}
		go func(p int) {
			defer func() { <-warmSem }()
			warmErr <- fetchOnce(fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), p))
		}(p)
	}
	for p := 0; p < siteCfg.Pages; p++ {
		if err := <-warmErr; err != nil {
			return nil, fmt.Errorf("warmup fetch: %w", err)
		}
	}

	z, err := workload.NewZipf(siteCfg.Pages, opts.ZipfAlpha)
	if err != nil {
		return nil, err
	}
	users, err := workload.NewUserPool(0, 0) // anonymous: page-tier eligible
	if err != nil {
		return nil, err
	}
	pois, err := workload.NewPoisson(offered)
	if err != nil {
		return nil, err
	}
	// The measured window scales with opts.Requests (default ≈ 4s) so
	// every offered rate is observed for the same wall-clock span.
	window := float64(opts.Requests) / 100
	n := int(offered * window)
	if n < 20 {
		n = 20
	}
	trace := pois.Trace(rand.New(rand.NewSource(opts.Seed)), n)
	driver := &workload.Driver{
		BaseURL:     sys.FrontURL(),
		Gen:         workload.PageGenerator(z, users, "/page/synth"),
		Concurrency: satClientInFlight,
		Seed:        opts.Seed,
	}
	shed0 := sys.Registry.Counter("dpc.shed_503s").Value()
	stale0 := sys.Registry.Counter("dpc.stale_served_page").Value()
	res, err := driver.RunTrace(trace)
	if err != nil {
		return nil, err
	}

	mode := "off"
	if shedding {
		mode = "on"
	}
	goodput := float64(res.Requests-res.Errors) / res.Elapsed.Seconds()
	shedN := sys.Registry.Counter("dpc.shed_503s").Value() - shed0
	staleN := sys.Registry.Counter("dpc.stale_served_page").Value() - stale0
	return []string{
		mode, f1(offered), f1(goodput),
		res.Latency.Quantile(0.99).Round(time.Millisecond).String(),
		fmt.Sprintf("%d", shedN), fmt.Sprintf("%d", staleN),
		fmt.Sprintf("%d", res.Errors),
	}, nil
}
