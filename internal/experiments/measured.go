package experiments

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"dpcache/internal/analytical"
	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/netsim"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/workload"
)

// effectiveTagBytes is the g the analytical companion curves use: the
// binary codec's GET tag size at representative key/generation magnitudes
// (compare Table 2's g = 10).
func effectiveTagBytes() float64 {
	return float64(tmpl.Binary{}.GetTagSize(1000, 1000))
}

// point is one measured operating point.
type point struct {
	wireOut     int64
	appOut      int64
	responses   int64
	measuredHit float64
	meanLatency time.Duration
	headerBytes float64 // calibrated per-response header overhead

	// Fragment-store activity over the measurement window (the memory
	// experiment reads these; zero in no-cache mode).
	storeHit       float64 // store GET hit ratio
	storeEvictions int64
	staleFallbacks int64
}

// runPoint stands up a system in the given mode running the synthetic
// site, warms it, then measures a steady-state window.
func runPoint(mode core.Mode, siteCfg site.SyntheticConfig, forcedMiss float64,
	opts Options, lat repository.LatencyModel) (point, site.Manifest, error) {

	sys, err := core.NewSystem(core.Config{
		Capacity:         2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		ForcedMissProb:   forcedMiss,
		Seed:             opts.Seed,
		Latency:          lat,
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		DiskDir:          opts.DiskDir,
		Store:            opts.Store,
		Proxy: dpc.Config{Strict: true, Coalesce: opts.Coalesce, PageCache: opts.PageCache,
			Transport: newPaperProtocol()},
	}, mode)
	if err != nil {
		return point{}, site.Manifest{}, err
	}
	sc, man, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		return point{}, site.Manifest{}, err
	}
	if err := sys.Register(sc); err != nil {
		return point{}, site.Manifest{}, err
	}
	if err := sys.Start(); err != nil {
		return point{}, site.Manifest{}, err
	}
	defer sys.Close()

	// Calibrate per-response header overhead with one cold fetch of a
	// known page through the proxy: everything beyond the page content
	// on the origin link is headers (plus, in cached mode, tag bytes —
	// so calibration always uses a bypassing direct-origin request).
	var pageBytes int64 // page 0's exact content size (sizes may be heterogeneous)
	for j := 0; j < siteCfg.FragmentsPerPage; j++ {
		pageBytes += int64(siteCfg.FragmentSize(j))
	}
	before := sys.Meter.BytesOut()
	if err := fetchOnce(sys.OriginURL() + "/page/synth?page=0"); err != nil {
		return point{}, man, fmt.Errorf("calibration fetch: %w", err)
	}
	headerBytes := float64(sys.Meter.BytesOut() - before - pageBytes)
	if headerBytes < 0 {
		headerBytes = 0
	}

	z, err := workload.NewZipf(siteCfg.Pages, opts.ZipfAlpha)
	if err != nil {
		return point{}, man, err
	}
	users, err := workload.NewUserPool(0, 0) // synthetic site is layout-static
	if err != nil {
		return point{}, man, err
	}
	driver := &workload.Driver{
		BaseURL:     sys.FrontURL(),
		Gen:         workload.PageGenerator(z, users, "/page/synth"),
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	}

	// Warmup: touch every page once (fills every slot), then run the
	// random warmup batch so forced-miss churn reaches steady state.
	for p := 0; p < siteCfg.Pages; p++ {
		if err := fetchOnce(fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), p)); err != nil {
			return point{}, man, fmt.Errorf("warmup fetch: %w", err)
		}
	}
	if opts.Warmup > 0 {
		if _, err := driver.Run(opts.Warmup); err != nil {
			return point{}, man, err
		}
	}

	// Measurement window.
	var hits0, lookups0 int64
	if sys.Monitor != nil {
		st := sys.Monitor.Stats()
		hits0, lookups0 = st.Hits, st.Lookups
	}
	store0 := sys.Proxy.Store().Stats()
	stale0 := sys.Registry.Counter("dpc.stale_fallbacks").Value()
	sys.Meter.Reset()
	res, err := driver.Run(opts.Requests)
	if err != nil {
		return point{}, man, err
	}
	if res.Errors > 0 {
		return point{}, man, fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}

	pt := point{
		appOut:      sys.Meter.BytesOut(),
		wireOut:     netsim.DefaultOverhead().WireBytesOut(sys.Meter),
		responses:   res.Requests,
		meanLatency: res.Latency.Mean(),
		headerBytes: headerBytes,
	}
	if sys.Monitor != nil {
		st := sys.Monitor.Stats()
		if d := st.Lookups - lookups0; d > 0 {
			pt.measuredHit = float64(st.Hits-hits0) / float64(d)
		}
	}
	store1 := sys.Proxy.Store().Stats()
	if d := (store1.Hits - store0.Hits) + (store1.Misses - store0.Misses); d > 0 {
		pt.storeHit = float64(store1.Hits-store0.Hits) / float64(d)
	}
	pt.storeEvictions = store1.Evictions - store0.Evictions
	pt.staleFallbacks = sys.Registry.Counter("dpc.stale_fallbacks").Value() - stale0
	return pt, man, nil
}

func fetchOnce(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// analyticalCompanion computes the closed-form expectation for a measured
// configuration: same fragment structure, same Zipf weights, calibrated
// header size, effective binary-codec tag size.
func analyticalCompanion(man site.Manifest, opts Options, headerBytes, hitRatio float64, pages int) analytical.Model {
	return man.Model(headerBytes, effectiveTagBytes(), hitRatio, analytical.ZipfWeights(pages, opts.ZipfAlpha))
}

// Fig3b reproduces Figure 3(b): measured vs analytical B_C/B_NC as the
// fragment size varies, at the Table 2 operating point (h pinned to 0.8
// via the BEM's forced-miss hook).
func Fig3b(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const targetHit = 0.8
	sizes := []int{128, 512, 1024, 2048, 3072, 4096, 5120}
	t := Table{
		ID:      "fig3b",
		Title:   "B_C/B_NC vs fragment size (Figure 3(b): analytical and experimental)",
		Columns: []string{"fragment KB", "analytical", "experimental", "measured h"},
	}
	for _, s := range sizes {
		cfg := site.DefaultSynthetic()
		cfg.FragmentBytes = s
		nc, man, err := runPoint(core.ModeNoCache, cfg, 0, opts, repository.LatencyModel{})
		if err != nil {
			return t, fmt.Errorf("fig3b s=%d no-cache: %w", s, err)
		}
		ch, _, err := runPoint(core.ModeCached, cfg, 1-targetHit, opts, repository.LatencyModel{})
		if err != nil {
			return t, fmt.Errorf("fig3b s=%d cached: %w", s, err)
		}
		exp := float64(ch.wireOut) / float64(nc.wireOut)
		model := analyticalCompanion(man, opts, nc.headerBytes, targetHit, cfg.Pages)
		t.Rows = append(t.Rows, []string{
			f2(float64(s) / 1024), f3(model.Ratio()), f3(exp), f3(ch.measuredHit),
		})
	}
	t.Notes = append(t.Notes,
		"experimental curve sits above analytical: wire measurement includes TCP/IP header overhead, proportionally larger for small responses (paper, Section 6)")
	return t, nil
}

// Fig5 reproduces Figure 5: measured vs analytical savings in bytes
// served as the hit ratio varies, fragment size fixed at 1KB.
func Fig5(opts Options) (Table, error) {
	opts = opts.withDefaults()
	cfg := site.DefaultSynthetic()
	nc, man, err := runPoint(core.ModeNoCache, cfg, 0, opts, repository.LatencyModel{})
	if err != nil {
		return Table{}, fmt.Errorf("fig5 no-cache: %w", err)
	}
	t := Table{
		ID:      "fig5",
		Title:   "Savings in bytes served (%) vs hit ratio (Figure 5: analytical and experimental)",
		Columns: []string{"target h", "measured h", "analytical %", "experimental %"},
	}
	for _, h := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95} {
		ch, _, err := runPoint(core.ModeCached, cfg, 1-h, opts, repository.LatencyModel{})
		if err != nil {
			return t, fmt.Errorf("fig5 h=%.2f: %w", h, err)
		}
		exp := (1 - float64(ch.wireOut)/float64(nc.wireOut)) * 100
		model := analyticalCompanion(man, opts, nc.headerBytes, h, cfg.Pages)
		ana := (1 - model.Ratio()) * 100
		t.Rows = append(t.Rows, []string{f2(h), f3(ch.measuredHit), f1(ana), f1(exp)})
	}
	t.Notes = append(t.Notes,
		"experimental savings sit slightly below analytical and the gap grows with h: constant protocol overhead dilutes savings as responses shrink (paper, Section 6)")
	return t, nil
}

// Fig6 reproduces Figure 6: measured vs analytical network savings as the
// cacheability factor varies, h pinned at 0.8.
func Fig6(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const targetHit = 0.8
	base := site.DefaultSynthetic()
	nc, _, err := runPoint(core.ModeNoCache, base, 0, opts, repository.LatencyModel{})
	if err != nil {
		return Table{}, fmt.Errorf("fig6 no-cache: %w", err)
	}
	t := Table{
		ID:      "fig6",
		Title:   "Network savings (%) vs cacheability (Figure 6: analytical and experimental)",
		Columns: []string{"cacheability %", "analytical %", "experimental %", "measured h"},
	}
	for _, c := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		cfg := base
		cfg.Cacheability = c
		ch, man, err := runPoint(core.ModeCached, cfg, 1-targetHit, opts, repository.LatencyModel{})
		if err != nil {
			return t, fmt.Errorf("fig6 c=%.1f: %w", c, err)
		}
		exp := (1 - float64(ch.wireOut)/float64(nc.wireOut)) * 100
		model := analyticalCompanion(man, opts, nc.headerBytes, targetHit, cfg.Pages)
		ana := (1 - model.Ratio()) * 100
		t.Rows = append(t.Rows, []string{f1(c * 100), f1(ana), f1(exp), f3(ch.measuredHit)})
	}
	t.Notes = append(t.Notes,
		"experimental curve tracks analytical from below, per the paper's protocol-header explanation")
	return t, nil
}

// CaseStudy reproduces the deployment result quoted in Sections 1 and 8:
// order-of-magnitude reductions in origin bandwidth and end-to-end
// response time on a personalized portal whose content generation touches
// a slow back end.
func CaseStudy(opts Options) (Table, error) {
	opts = opts.withDefaults()
	lat := repository.LatencyModel{QueryDelay: 2 * time.Millisecond}
	pcfg := site.DefaultPortal()

	run := func(mode core.Mode) (point, error) {
		sys, err := core.NewSystem(core.Config{
			Capacity:         1024,
			Seed:             opts.Seed,
			Latency:          lat,
			ExtraHeaderBytes: opts.ExtraHeaderBytes,
			Proxy:            dpc.Config{Strict: true, Transport: newPaperProtocol()},
		}, mode)
		if err != nil {
			return point{}, err
		}
		sc, err := site.BuildPortal(pcfg, sys.Repo)
		if err != nil {
			return point{}, err
		}
		if err := sys.Register(sc); err != nil {
			return point{}, err
		}
		if err := sys.Start(); err != nil {
			return point{}, err
		}
		defer sys.Close()

		users, err := workload.NewUserPool(pcfg.Users, 1.0)
		if err != nil {
			return point{}, err
		}
		z, err := workload.NewZipf(1, 0)
		if err != nil {
			return point{}, err
		}
		driver := &workload.Driver{
			BaseURL:     sys.FrontURL(),
			Gen:         workload.PageGenerator(z, users, "/page/portal"),
			Concurrency: opts.Concurrency,
			Seed:        opts.Seed,
		}
		warm := opts.Warmup
		if mode == core.ModeCached && warm < pcfg.Users {
			warm = pcfg.Users // every profile's modules enter cache
		}
		if _, err := driver.Run(warm); err != nil {
			return point{}, err
		}
		sys.Meter.Reset()
		res, err := driver.Run(opts.Requests)
		if err != nil {
			return point{}, err
		}
		if res.Errors > 0 {
			return point{}, fmt.Errorf("%d errors", res.Errors)
		}
		return point{
			appOut:      sys.Meter.BytesOut(),
			wireOut:     netsim.DefaultOverhead().WireBytesOut(sys.Meter),
			responses:   res.Requests,
			meanLatency: res.Latency.Mean(),
		}, nil
	}

	nc, err := run(core.ModeNoCache)
	if err != nil {
		return Table{}, fmt.Errorf("casestudy no-cache: %w", err)
	}
	ch, err := run(core.ModeCached)
	if err != nil {
		return Table{}, fmt.Errorf("casestudy cached: %w", err)
	}

	bwFactor := float64(nc.wireOut) / float64(ch.wireOut)
	rtFactor := float64(nc.meanLatency) / float64(ch.meanLatency)
	t := Table{
		ID:      "casestudy",
		Title:   "Deployment case study: personalized portal, slow content back end",
		Columns: []string{"metric", "no cache", "with DPC", "reduction"},
		Rows: [][]string{
			{"origin wire bytes / request",
				fmt.Sprintf("%d", nc.wireOut/nc.responses),
				fmt.Sprintf("%d", ch.wireOut/ch.responses),
				fmt.Sprintf("%.1fx", bwFactor)},
			{"mean response time",
				nc.meanLatency.Round(10 * time.Microsecond).String(),
				ch.meanLatency.Round(10 * time.Microsecond).String(),
				fmt.Sprintf("%.1fx", rtFactor)},
		},
		Notes: []string{
			"paper claims order-of-magnitude reductions in bandwidth and response time at a major financial institution; shape, not absolute numbers, is the reproduction target",
		},
	}
	return t, nil
}
