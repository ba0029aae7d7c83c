package experiments

import (
	"fmt"
	"os"

	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
	"dpcache/internal/netsim"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/workload"
)

// Memory extends the paper's Figure 5 along the axis it holds fixed:
// cache memory. Figure 5 sweeps the hit ratio h with an unbounded store;
// here the store's byte budget is swept instead — the hit ratio becomes a
// *consequence* of memory pressure and the eviction policy rather than a
// forced parameter. Each point stands up a cached system on the sharded
// backend with a budget set to a fraction of the synthetic site's nominal
// working set and measures the fragment store's GET hit ratio, the
// eviction and stale-bypass activity, and the origin wire bytes — for LRU
// and GDSF side by side.
//
// The mechanism under pressure: an evicted slot makes the next template
// GET stale, the proxy recovers with a bypass fetch (a full page on the
// origin link, the B_NC cost), and the BEM re-learns the slot. Savings
// therefore degrade smoothly from the Figure 5 h→1 operating point toward
// the no-cache baseline as the budget shrinks.
//
// The site is Table 2's structure with *heterogeneous* fragment sizes (a
// heavy-tailed 1×/1×/4×/16× cycle over the 1KB base): with uniform sizes
// every eviction costs the same and GDSF degenerates to LRU-with-extra-
// steps; with a size spread GDSF keeps many small hot fragments where
// LRU holds few large ones, which is the regime the policy exists for.
func Memory(opts Options) (Table, error) {
	opts = opts.withDefaults()
	siteCfg := site.DefaultSynthetic()
	siteCfg.FragmentSizeFactors = []int{1, 1, 4, 16}
	workingSet := siteCfg.TotalFragmentBytes()

	nc, _, err := runPoint(core.ModeNoCache, siteCfg, 0, opts, repository.LatencyModel{})
	if err != nil {
		return Table{}, fmt.Errorf("memory no-cache: %w", err)
	}

	t := Table{
		ID:    "memory",
		Title: "Hit ratio and savings vs store byte budget (Figure 5 extension: LRU vs GDSF)",
		Columns: []string{
			"policy", "budget KB", "of working set", "store hit", "evictions", "stale bypasses", "savings %",
		},
	}

	run := func(policy string, budget int64) (point, error) {
		o := opts
		o.Store = fragstore.Config{Backend: "sharded", ByteBudget: budget, Eviction: policy}
		if budget == 0 {
			o.Store.Eviction = "none"
		}
		ch, _, err := runPoint(core.ModeCached, siteCfg, 0, o, repository.LatencyModel{})
		return ch, err
	}

	// runTiered is run with the disk-backed second tier mounted: the same
	// RAM budget, but eviction demotes to an unbounded heap file instead
	// of dropping, so the hit ratio should hold near the unbounded point
	// at every budget.
	runTiered := func(budget int64) (point, error) {
		dir, err := os.MkdirTemp("", "dpc-memory-disk-*")
		if err != nil {
			return point{}, err
		}
		defer os.RemoveAll(dir)
		o := opts
		o.Store = fragstore.Config{Backend: "tiered", ByteBudget: budget, Eviction: "lru"}
		o.DiskDir = dir
		ch, _, err := runPoint(core.ModeCached, siteCfg, 0, o, repository.LatencyModel{})
		return ch, err
	}

	addRow := func(policy string, budget int64, pt point) {
		frac := "unbounded"
		kb := "∞"
		if budget > 0 {
			frac = f2(float64(budget) / float64(workingSet))
			kb = f1(float64(budget) / 1024)
		}
		savings := (1 - float64(pt.wireOut)/float64(nc.wireOut)) * 100
		t.Rows = append(t.Rows, []string{
			policy, kb, frac, f3(pt.storeHit),
			fmt.Sprint(pt.storeEvictions), fmt.Sprint(pt.staleFallbacks), f1(savings),
		})
	}

	// Unbounded reference: the Figure 5 operating point this table
	// degrades from.
	ref, err := run("none", 0)
	if err != nil {
		return t, fmt.Errorf("memory unbounded: %w", err)
	}
	addRow("none", 0, ref)

	fractions := []float64{1, 0.5, 0.25, 0.125}
	for _, policy := range []string{"lru", "gdsf"} {
		for _, f := range fractions {
			budget := int64(f * float64(workingSet))
			pt, err := run(policy, budget)
			if err != nil {
				return t, fmt.Errorf("memory %s %.3f: %w", policy, f, err)
			}
			addRow(policy, budget, pt)
		}
	}

	// The disk-backed tier at the same RAM budgets: demotion instead of
	// eviction should hold the hit ratio near the unbounded reference
	// even at the tightest budget.
	for _, f := range fractions {
		budget := int64(f * float64(workingSet))
		pt, err := runTiered(budget)
		if err != nil {
			return t, fmt.Errorf("memory lru+disk %.3f: %w", f, err)
		}
		addRow("lru+disk", budget, pt)
	}

	// Restart behavior: a tiered edge bounced mid-run replays its heap
	// file and serves warm on the first pass over the site, where a cold
	// edge starts from nothing.
	steady, warm, cold, err := runRestart(siteCfg, workingSet/8, opts, nc)
	if err != nil {
		return t, fmt.Errorf("memory restart: %w", err)
	}
	t.Rows = append(t.Rows, steady, warm, cold)

	t.Notes = append(t.Notes,
		"budget is the sharded store's global byte ledger (fragstore.Config.ByteBudget); eviction fires on global pressure only",
		"an evicted slot costs a stale-bypass page fetch (full B_NC page) plus BEM re-learning, so savings fall toward the no-cache baseline as memory shrinks",
		"fragment sizes follow a heavy-tailed 1x/1x/4x/16x cycle (site.FragmentSizeFactors): GDSF keeps many small hot fragments where LRU pins few large ones, so the policies separate at tight budgets",
		"lru+disk rows mount the tiered backend (-store=tiered): the same RAM ledger, but victims demote to an unbounded heap file (written once; a victim the file already holds is evicted clean) and disk hits promote a copy back, so the hit ratio holds at the unbounded point at every budget",
		"restart rows measure the first sequential pass over the site at an edge: restart:warm bounces a tiered edge (Edge.Close, then StartEdge with the same name reopens and replays its heap file) and restart:cold starts a fresh edge; restart:steady is the same edge's driven steady-state window for reference",
		"restart-row savings are per-response against the no-cache baseline (the restart windows serve fewer requests than the sweep windows)")
	return t, nil
}

// winStats is one measurement window at an edge proxy.
type winStats struct {
	hit       float64 // store GET hit ratio over the window
	evictions int64
	bypasses  int64
	savings   float64 // per-response wire savings vs the no-cache baseline, %
}

// restartRow formats one restart-phase measurement into the table's
// seven-column schema.
func restartRow(phase, frac string, budget int64, w winStats) []string {
	return []string{
		phase, f1(float64(budget) / 1024), frac, f3(w.hit),
		fmt.Sprint(w.evictions), fmt.Sprint(w.bypasses), f1(w.savings),
	}
}

// runRestart measures warm-restart vs cold-start behavior of the tiered
// backend at an edge proxy: steady-state hit ratio first, then the
// first-pass hit ratio of (a) the same edge bounced and reopened over
// its heap file and (b) a brand-new edge. The interior system (origin,
// BEM, front proxy) stays up throughout, as in a rolling edge restart.
func runRestart(siteCfg site.SyntheticConfig, ramBudget int64, opts Options, nc point) (steady, warm, cold []string, err error) {
	dir, err := os.MkdirTemp("", "dpc-memory-restart-*")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)

	sys, err := core.NewSystem(core.Config{
		Capacity:         2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		Seed:             opts.Seed,
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		DiskDir:          dir,
		// The table's savings column is the paper's metric, measured against
		// runPoint's no-cache bytes: the restart rows speak its protocol too.
		Proxy: dpc.Config{Strict: true, Coalesce: opts.Coalesce, Transport: newPaperProtocol()},
		Store: fragstore.Config{Backend: "tiered", ByteBudget: ramBudget, Eviction: "lru"},
	}, core.ModeCached)
	if err != nil {
		return nil, nil, nil, err
	}
	sc, _, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sys.Register(sc); err != nil {
		return nil, nil, nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, nil, nil, err
	}
	defer sys.Close()

	// One sequential pass over every page of the site — the smallest
	// window in which a cold store has seen everything once.
	pass := func(baseURL string) (int64, error) {
		for p := 0; p < siteCfg.Pages; p++ {
			if err := fetchOnce(fmt.Sprintf("%s/page/synth?page=%d", baseURL, p)); err != nil {
				return 0, err
			}
		}
		return int64(siteCfg.Pages), nil
	}
	// window runs requests against one edge and measures the store-hit
	// ratio, eviction delta, stale-bypass delta, and per-response wire
	// savings over it.
	window := func(e core.Edge, requests func() (int64, error)) (winStats, error) {
		s0 := e.Proxy.Store().Stats()
		b0 := sys.Registry.Counter("dpc.stale_fallbacks").Value()
		sys.Meter.Reset()
		n, err := requests()
		if err != nil {
			return winStats{}, err
		}
		s1 := e.Proxy.Store().Stats()
		w := winStats{
			evictions: s1.Evictions - s0.Evictions,
			bypasses:  sys.Registry.Counter("dpc.stale_fallbacks").Value() - b0,
		}
		if d := (s1.Hits - s0.Hits) + (s1.Misses - s0.Misses); d > 0 {
			w.hit = float64(s1.Hits-s0.Hits) / float64(d)
		}
		wirePerResp := float64(netsim.DefaultOverhead().WireBytesOut(sys.Meter)) / float64(n)
		ncPerResp := float64(nc.wireOut) / float64(nc.responses)
		w.savings = (1 - wirePerResp/ncPerResp) * 100
		return w, nil
	}
	frac := f2(float64(ramBudget) / float64(siteCfg.TotalFragmentBytes()))

	// Steady state: drive the edge the way runPoint drives the front —
	// one full pass, a random warmup batch, then the measured window.
	edge, err := sys.StartEdge("restart")
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := pass(edge.URL); err != nil {
		return nil, nil, nil, fmt.Errorf("steady warmup: %w", err)
	}
	z, err := workload.NewZipf(siteCfg.Pages, opts.ZipfAlpha)
	if err != nil {
		return nil, nil, nil, err
	}
	users, err := workload.NewUserPool(0, 0) // synthetic site is layout-static
	if err != nil {
		return nil, nil, nil, err
	}
	driver := &workload.Driver{
		BaseURL:     edge.URL,
		Gen:         workload.PageGenerator(z, users, "/page/synth"),
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	}
	if opts.Warmup > 0 {
		if _, err := driver.Run(opts.Warmup); err != nil {
			return nil, nil, nil, err
		}
	}
	sw, err := window(edge, func() (int64, error) {
		res, err := driver.Run(opts.Requests)
		if err != nil {
			return 0, err
		}
		if res.Errors > 0 {
			return 0, fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
		}
		return res.Requests, nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("steady window: %w", err)
	}

	// Warm restart: bounce the same edge. Close drains the RAM tier to
	// the heap file; StartEdge with the same name reopens it and replays,
	// so the first pass over the site should hit nearly everywhere.
	if err := edge.Close(); err != nil {
		return nil, nil, nil, fmt.Errorf("edge bounce: %w", err)
	}
	warmEdge, err := sys.StartEdge("restart")
	if err != nil {
		return nil, nil, nil, err
	}
	ww, err := window(warmEdge, func() (int64, error) { return pass(warmEdge.URL) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("warm window: %w", err)
	}

	// Cold start: a brand-new edge with an empty heap file measures the
	// same first pass from nothing.
	coldEdge, err := sys.StartEdge("cold")
	if err != nil {
		return nil, nil, nil, err
	}
	cw, err := window(coldEdge, func() (int64, error) { return pass(coldEdge.URL) })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cold window: %w", err)
	}

	return restartRow("restart:steady", frac, ramBudget, sw),
		restartRow("restart:warm", frac, ramBudget, ww),
		restartRow("restart:cold", frac, ramBudget, cw), nil
}
