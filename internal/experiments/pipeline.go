package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/workload"
)

// Pipeline measures what the request-pipeline knobs (single-flight
// broadcast coalescing, the look-ahead spool bound) buy under the Figure 5
// workload: origin fan-in (origin fetches per served response) and the
// time-to-first-byte a parked follower sees when a burst of identical
// requests lands on one page. With the completed-page handoff the follower
// TTFB equals the leader's full page time; with live attach it tracks the
// leader's first chunk.
//
// Two extensions ride along: a paper-style *concurrency sweep* (fan-in
// and follower TTFB vs offered concurrency — coalescing's win grows with
// load, since every extra concurrent client of a hot page is one more
// collapsed fetch), and an *invalidation* pair measuring the page tier's
// staleness window after a fragment dies — bounded by the TTL alone
// without the coherency fabric, and by one request with it.
func Pipeline(opts Options) (Table, error) {
	opts = opts.withDefaults()
	// spool is dpc.Config.StreamSpoolBytes: -1 holds every page whole (the
	// barrier rows), 0 is the default 64 KiB look-ahead.
	configs := []struct {
		name      string
		coalesce  bool
		spool     int
		pagecache bool
	}{
		{"no coalesce", false, -1, false},
		{"coalesce (barrier)", true, -1, false},
		{"coalesce+stream (live attach)", true, 0, false},
		{"coalesce+stream+pagecache", true, 0, true},
	}
	t := Table{
		ID:    "pipeline",
		Title: "Pipeline knobs under the Figure 5 workload: origin fan-in, follower TTFB, invalidation staleness",
		Columns: []string{
			"config", "origin req/resp", "coalesced %", "mean latency", "burst follower TTFB", "staleness window",
		},
	}
	for _, c := range configs {
		fanIn, coalesced, mean, ttfb, err := runPipelinePoint(opts, c.coalesce, c.spool, c.pagecache)
		if err != nil {
			return t, fmt.Errorf("pipeline %s: %w", c.name, err)
		}
		t.Rows = append(t.Rows, []string{
			c.name, f3(fanIn), f1(coalesced),
			mean.Round(10 * time.Microsecond).String(),
			ttfb.Round(10 * time.Microsecond).String(),
			"-",
		})
	}
	// Concurrency sweep: same knobs (coalesce+stream), rising offered
	// concurrency. Fan-in per response falls as bursts deepen.
	for _, conc := range []int{2, 8, 16} {
		o := opts
		o.Concurrency = conc
		fanIn, coalesced, mean, ttfb, err := runPipelinePoint(o, true, 0, false)
		if err != nil {
			return t, fmt.Errorf("pipeline sweep c=%d: %w", conc, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("coalesce+stream @c=%d", conc), f3(fanIn), f1(coalesced),
			mean.Round(10 * time.Microsecond).String(),
			ttfb.Round(10 * time.Microsecond).String(),
			"-",
		})
	}
	// Assemble stage: per-page assembly cost by fragments-per-page, the
	// engine's streamed driver (decode per request) vs its cached-plan
	// driver (warm), sequential vs parallel fragment resolution.
	// In-process against a resident store, so it isolates the
	// decode-and-dispatch overhead the plan cache removes.
	for _, frags := range []int{4, 16, 64} {
		for _, m := range []struct {
			name        string
			compiled    bool
			parallelism int
		}{
			{"decode-per-request", false, 0},
			{"compiled", true, 1},
			{"compiled par=4", true, 4},
		} {
			mean, err := runAssemblePoint(opts, frags, m.compiled, m.parallelism)
			if err != nil {
				return t, fmt.Errorf("pipeline assemble f=%d %s: %w", frags, m.name, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("assemble f=%d %s", frags, m.name), "-", "-",
				mean.Round(10 * time.Nanosecond).String(),
				"-", "-",
			})
		}
	}
	// Invalidation: how long a dead fragment's bytes keep being served
	// from the page tier, with and without the invalidation fabric.
	for _, inv := range []struct {
		name   string
		fabric bool
	}{
		{"invalidation (ttl only)", false},
		{"invalidation (fabric)", true},
	} {
		window, err := runInvalidationPoint(opts, inv.fabric)
		if err != nil {
			return t, fmt.Errorf("pipeline %s: %w", inv.name, err)
		}
		t.Rows = append(t.Rows, []string{
			inv.name, "-", "-", "-", "-",
			window.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"origin req/resp < 1 means coalescing collapsed concurrent identical fetches (origin fan-in stays 1 per flight)",
		"burst follower TTFB: mean first-byte latency of followers that join while a leader's fetch of the same page is in flight",
		"the pagecache row serves anonymous revisits whole from the page tier, so origin fan-in falls below the coalesce-only rows",
		"@c=N rows sweep offered concurrency with coalesce+stream: deeper bursts collapse more identical fetches per flight",
		fmt.Sprintf("staleness window: elapsed time a %v-TTL page tier kept serving a dead fragment's bytes after a repository write; the fabric drops the page on the invalidation itself, so its window is one in-flight request, not the TTL", invalidationTTL),
		"assemble rows: in-process mean per-page assembly time (512B fragments, resident store), one engine under its two drivers — decode-per-request streams the template through the decoder on every request (what an oversized or corrupt template costs), the compiled rows run a warm plan cache, so the per-request template decode disappears; par=4 adds the bounded prefetch fan-out, which pays only when fragment reads are slower than goroutine handoff (it loses against a resident in-memory store, as here, which is why the proxy resolves GETs in walk order unless -plan-parallelism says otherwise)")
	return t, nil
}

// assembleRunners builds the assemble rows' fixture — a template of frags
// GET instructions over a resident store — and returns one assembly per
// call through each of the engine's drivers: streamed (the template is
// decoded on every call) and cached (a warm plan cache, with the given
// prefetch fan-out).
func assembleRunners(frags, parallelism int) (streamed, cached func() error, err error) {
	store, err := dpc.NewStore(frags + 1)
	if err != nil {
		return nil, nil, err
	}
	codec := tmpl.Binary{}
	content := bytes.Repeat([]byte("f"), 512)
	var ins []tmpl.Instruction
	for k := 0; k < frags; k++ {
		if err := store.Set(uint32(k), 1, content); err != nil {
			return nil, nil, err
		}
		ins = append(ins,
			tmpl.Instruction{Op: tmpl.OpLiteral, Data: []byte("<div>")},
			tmpl.Instruction{Op: tmpl.OpGet, Key: uint32(k), Gen: 1},
			tmpl.Instruction{Op: tmpl.OpLiteral, Data: []byte("</div>")})
	}
	var buf bytes.Buffer
	if err := tmpl.EncodeAll(codec, &buf, ins); err != nil {
		return nil, nil, err
	}
	body := buf.Bytes()
	cache, err := tmplplan.NewCache(codec, tmplplan.CacheConfig{})
	if err != nil {
		return nil, nil, err
	}
	ex := &tmplplan.Exec{
		Store: store, Strict: true, Codec: codec,
		Plans: cache, Parallelism: parallelism,
	}
	if _, _, err := cache.Get(body); err != nil { // warm the plan cache
		return nil, nil, err
	}
	streamed = func() error {
		_, err := ex.RunStream(bytes.NewReader(body), io.Discard, nil)
		return err
	}
	cached = func() error {
		plan, _, err := cache.Get(body)
		if err != nil {
			return err
		}
		_, err = ex.Run(plan, io.Discard, nil)
		return err
	}
	return streamed, cached, nil
}

// runAssemblePoint measures mean per-page assembly time through one of
// assembleRunners' drivers.
func runAssemblePoint(opts Options, frags int, compiled bool, parallelism int) (time.Duration, error) {
	run, cached, err := assembleRunners(frags, parallelism)
	if err != nil {
		return 0, err
	}
	if compiled {
		run = cached
	}
	iters := 5 * opts.Requests
	if iters < 500 {
		iters = 500
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// invalidationTTL is the deliberately long page-tier TTL the invalidation
// rows use: long enough that a TTL-bounded tier visibly serves stale, yet
// short enough that the no-fabric row terminates quickly.
const invalidationTTL = 300 * time.Millisecond

// runInvalidationPoint warms an anonymous page into the page tier,
// invalidates one of its fragments through the repository's update bus
// (the BEM's data-dependency path), and measures how long the front keeps
// serving the dead fragment's bytes.
func runInvalidationPoint(opts Options, fabric bool) (time.Duration, error) {
	siteCfg := site.DefaultSynthetic()
	sys, err := core.NewSystem(core.Config{
		Capacity:         2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		Seed:             opts.Seed,
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		Fabric:           fabric,
		Proxy:            dpc.Config{Strict: true, Coalesce: true, PageCache: true, PageCacheTTL: invalidationTTL},
	}, core.ModeCached)
	if err != nil {
		return 0, err
	}
	sc, _, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		return 0, err
	}
	if err := sys.Register(sc); err != nil {
		return 0, err
	}
	if err := sys.Start(); err != nil {
		return 0, err
	}
	defer sys.Close()

	url := sys.FrontURL() + "/page/synth?page=0"
	fetch := func() (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	// Warm until the page tier serves the entry (fill happens after the
	// first response completes).
	if _, err := fetch(); err != nil {
		return 0, err
	}
	if _, err := fetch(); err != nil {
		return 0, err
	}

	// Kill fragment 0 (cacheable, first fragment of page 0) via a
	// repository write, then measure time-to-freshness at the front.
	site.TouchFragment(sys.Repo, 0, "2")
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		body, err := fetch()
		if err != nil {
			return 0, err
		}
		if strings.Contains(body, "<!--frag 0 v2-->") {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("front never served the fresh fragment within %v", 5*time.Second)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runPipelinePoint stands up a cached system with the given pipeline knobs,
// drives the standard Zipf workload, then probes follower TTFB with a
// burst of identical requests against one page.
func runPipelinePoint(opts Options, coalesce bool, spool int, pagecache bool) (fanIn, coalescedPct float64, mean, ttfb time.Duration, err error) {
	siteCfg := site.DefaultSynthetic()
	sys, err := core.NewSystem(core.Config{
		Capacity:         2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		ForcedMissProb:   0.2, // the Figure 5 h=0.8 operating point
		Seed:             opts.Seed,
		Latency:          repository.LatencyModel{QueryDelay: 200 * time.Microsecond},
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		Proxy:            dpc.Config{Strict: true, Coalesce: coalesce, StreamSpoolBytes: spool, PageCache: pagecache},
	}, core.ModeCached)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sc, _, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := sys.Register(sc); err != nil {
		return 0, 0, 0, 0, err
	}
	if err := sys.Start(); err != nil {
		return 0, 0, 0, 0, err
	}
	defer sys.Close()

	for p := 0; p < siteCfg.Pages; p++ {
		if err := fetchOnce(fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), p)); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("warmup fetch: %w", err)
		}
	}

	z, err := workload.NewZipf(siteCfg.Pages, opts.ZipfAlpha)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	users, err := workload.NewUserPool(0, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	driver := &workload.Driver{
		BaseURL:     sys.FrontURL(),
		Gen:         workload.PageGenerator(z, users, "/page/synth"),
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	}
	origin0 := sys.Registry.Counter("origin.requests").Value()
	coalesced0 := sys.Registry.Counter("dpc.coalesced").Value()
	res, err := driver.Run(opts.Requests)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if res.Errors > 0 {
		return 0, 0, 0, 0, fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	fanIn = float64(sys.Registry.Counter("origin.requests").Value()-origin0) / float64(res.Requests)
	coalescedPct = 100 * float64(sys.Registry.Counter("dpc.coalesced").Value()-coalesced0) / float64(res.Requests)
	mean = res.Latency.Mean()

	ttfb, err = burstFollowerTTFB(sys.FrontURL()+"/page/synth?page=0", 4)
	return fanIn, coalescedPct, mean, ttfb, err
}

// burstFollowerTTFB fires one leader request, then followers while the
// leader is presumed in flight, and returns the followers' mean
// time-to-first-body-byte.
func burstFollowerTTFB(url string, followers int) (time.Duration, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	drain := func() error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- drain() }()

	var mu sync.Mutex
	var total time.Duration
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Get(url)
			if err == nil {
				br := bufio.NewReader(resp.Body)
				_, err = br.ReadByte()
				elapsed := time.Since(start)
				if err == nil {
					mu.Lock()
					total += elapsed
					mu.Unlock()
					_, err = io.Copy(io.Discard, br)
				}
				resp.Body.Close()
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := <-leaderErr; err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return total / time.Duration(followers), nil
}
