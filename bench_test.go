// Benchmarks regenerating every table and figure of the paper (one per
// ID in dpcache.ExperimentIDs), plus an ablation of strict assembly on the
// full request path. Run:
//
//	go test -bench=. -benchmem
package dpcache_test

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"dpcache"
)

// benchOpts keeps the live-system figure benchmarks small enough to run in
// a default -benchtime budget while preserving the measured shapes.
func benchOpts() dpcache.ExperimentOptions {
	return dpcache.ExperimentOptions{Requests: 40, Warmup: 12, Concurrency: 4, Seed: 7, ExtraHeaderBytes: 300, ZipfAlpha: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := dpcache.RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable2Baseline evaluates the closed-form model at Table 2's
// settings.
func BenchmarkTable2Baseline(b *testing.B) {
	p := dpcache.BaselineParams()
	for i := 0; i < b.N; i++ {
		if p.Ratio() <= 0 {
			b.Fatal("ratio")
		}
	}
}

// One benchmark per paper artifact.
func BenchmarkFig2a(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)     { benchExperiment(b, "fig2b") }
func BenchmarkFig3a(b *testing.B)     { benchExperiment(b, "fig3a") }
func BenchmarkResult1(b *testing.B)   { benchExperiment(b, "result1") }
func BenchmarkFig3b(b *testing.B)     { benchExperiment(b, "fig3b") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkCaseStudy(b *testing.B) { benchExperiment(b, "casestudy") }
func BenchmarkBaselines(b *testing.B) { benchExperiment(b, "baselines") }

// startBenchSystem stands up a cached-mode system running the synthetic
// site and returns a warmed fetch function.
func startBenchSystem(b *testing.B, cfg dpcache.SystemConfig) (fetch func(page int), close func()) {
	b.Helper()
	sys, err := dpcache.NewSystem(cfg, dpcache.ModeCached)
	if err != nil {
		b.Fatal(err)
	}
	sc, _, err := dpcache.BuildSynthetic(dpcache.DefaultSynthetic(), sys.Repo)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		b.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		b.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	fetch = func(page int) {
		resp, err := client.Get(fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), page))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	for p := 0; p < 10; p++ { // warm every slot
		fetch(p)
	}
	return fetch, func() { _ = sys.Close() }
}

// Ablation: strict (generation-checked) vs fast assembly on the full
// request path.
func BenchmarkStrictMode(b *testing.B) {
	for _, strict := range []bool{false, true} {
		name := "fast"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			fetch, done := startBenchSystem(b, dpcache.SystemConfig{Capacity: 256, Seed: 1, Proxy: dpcache.ProxyConfig{Strict: strict}})
			defer done()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(i % 10)
			}
		})
	}
}

// BenchmarkWarmRequest measures the steady-state end-to-end request path
// (client → DPC → origin template → assembly) at the Table 2 shape.
func BenchmarkWarmRequest(b *testing.B) {
	fetch, done := startBenchSystem(b, dpcache.SystemConfig{Capacity: 256, Seed: 1, Proxy: dpcache.ProxyConfig{Strict: true}})
	defer done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch(0)
	}
}

// BenchmarkStoreBackendEndToEnd compares the fragment-store backends on
// the full concurrent request path (b.RunParallel drives the proxy from
// many goroutines, so the store's lock discipline is on the critical
// path). Raw store-level comparisons live in internal/fragstore.
func BenchmarkStoreBackendEndToEnd(b *testing.B) {
	cfgs := map[string]dpcache.SystemConfig{
		"slot": {
			Capacity: 256,
			Seed:     1,
			Proxy:    dpcache.ProxyConfig{Strict: true},
			Store:    dpcache.StoreConfig{Backend: dpcache.StoreBackendSlot},
		},
		"sharded": {
			Capacity: 256,
			Seed:     1,
			Proxy:    dpcache.ProxyConfig{Strict: true},
			Store:    dpcache.StoreConfig{Backend: dpcache.StoreBackendSharded},
		},
		"sharded-gdsf": {
			Capacity: 256,
			Seed:     1,
			Proxy:    dpcache.ProxyConfig{Strict: true},
			Store:    dpcache.StoreConfig{Backend: dpcache.StoreBackendSharded, ByteBudget: 64 << 20, Eviction: "gdsf"},
		},
	}
	for _, name := range []string{"slot", "sharded", "sharded-gdsf"} {
		b.Run(name, func(b *testing.B) {
			fetch, done := startBenchSystem(b, cfgs[name])
			defer done()
			var page atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					fetch(int(page.Add(1) % 10))
				}
			})
		})
	}
}

// BenchmarkAssembleStreaming compares whole-page vs streamed responses on
// the full request path: with the default look-ahead spool a page that
// outgrows it is written as its template executes, so per-request memory
// stops scaling with page size; StreamSpoolBytes -1 holds every page whole.
func BenchmarkAssembleStreaming(b *testing.B) {
	for _, mode := range []struct {
		name  string
		spool int
	}{{"buffered", -1}, {"streaming", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := dpcache.SystemConfig{Capacity: 256, Seed: 1, Proxy: dpcache.ProxyConfig{Strict: true, StreamSpoolBytes: mode.spool}}
			fetch, done := startBenchSystem(b, cfg)
			defer done()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(i % 10)
			}
		})
	}
}

// BenchmarkCoalescedStorm drives concurrent identical requests with
// single-flight coalescing on vs off; with -coalesce the origin sees one
// fetch per storm instead of one per client.
func BenchmarkCoalescedStorm(b *testing.B) {
	for _, coalesce := range []bool{false, true} {
		name := "fanout"
		if coalesce {
			name = "coalesced"
		}
		b.Run(name, func(b *testing.B) {
			cfg := dpcache.SystemConfig{Capacity: 256, Seed: 1, Proxy: dpcache.ProxyConfig{Strict: true, Coalesce: coalesce}}
			fetch, done := startBenchSystem(b, cfg)
			defer done()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					fetch(0) // every goroutine hammers the same page
				}
			})
		})
	}
}
