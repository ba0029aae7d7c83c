package experiments

import (
	"fmt"
	"net/http"
	"time"

	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/netsim"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/workload"
)

// The ablations quantify the design decisions DESIGN.md calls out. They
// are not paper artifacts; they justify implementation choices the paper
// leaves open.

// ablationPoint runs the synthetic site at the Table 2 operating point
// under a specific system configuration and reports origin bytes, request
// latency, and fallback counts.
type ablationPoint struct {
	wireOut     int64
	meanLatency time.Duration
	fallbacks   int64
}

// runAblation measures one ablationPoint. link is the proxy's origin
// transport: the paper's protocol, or nil for the proxy's own, which offers
// the origin the plans it holds.
func runAblation(codec tmpl.Codec, strict bool, churnProb float64, link http.RoundTripper, opts Options) (ablationPoint, error) {
	sys, err := core.NewSystem(core.Config{
		Capacity:         256,
		Codec:            codec,
		ForcedMissProb:   churnProb,
		Seed:             opts.Seed,
		ExtraHeaderBytes: opts.ExtraHeaderBytes,
		Proxy:            dpc.Config{Strict: strict, Transport: link},
	}, core.ModeCached)
	if err != nil {
		return ablationPoint{}, err
	}
	sc, _, err := site.BuildSynthetic(site.DefaultSynthetic(), sys.Repo)
	if err != nil {
		return ablationPoint{}, err
	}
	if err := sys.Register(sc); err != nil {
		return ablationPoint{}, err
	}
	if err := sys.Start(); err != nil {
		return ablationPoint{}, err
	}
	defer sys.Close()

	z, err := workload.NewZipf(10, opts.ZipfAlpha)
	if err != nil {
		return ablationPoint{}, err
	}
	users, err := workload.NewUserPool(0, 0)
	if err != nil {
		return ablationPoint{}, err
	}
	d := &workload.Driver{
		BaseURL:     sys.FrontURL(),
		Gen:         workload.PageGenerator(z, users, "/page/synth"),
		Concurrency: opts.Concurrency,
		Seed:        opts.Seed,
	}
	if _, err := d.Run(opts.Warmup + 10); err != nil {
		return ablationPoint{}, err
	}
	sys.Meter.Reset()
	fallbacks0 := sys.Registry.Counter("dpc.stale_fallbacks").Value()
	res, err := d.Run(opts.Requests)
	if err != nil {
		return ablationPoint{}, err
	}
	if res.Errors > 0 {
		return ablationPoint{}, fmt.Errorf("%d errors", res.Errors)
	}
	return ablationPoint{
		wireOut:     netsim.DefaultOverhead().WireBytesOut(sys.Meter),
		meanLatency: res.Latency.Mean(),
		fallbacks:   sys.Registry.Counter("dpc.stale_fallbacks").Value() - fallbacks0,
	}, nil
}

// AblationCodec compares the binary and text template codecs on the full
// request path (DESIGN.md decision 1): same site, same workload, measured
// origin bytes and latency.
func AblationCodec(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:      "ablation-codec",
		Title:   "Ablation: template codec (binary vs text) at the Table 2 operating point",
		Columns: []string{"codec", "origin wire bytes/req", "mean latency"},
	}
	row := func(name string, codec tmpl.Codec, link http.RoundTripper) error {
		// No churn: the codec comparison is about tag encoding on the
		// steady-state hit path, so invalidation noise is excluded.
		pt, err := runAblation(codec, true, 0, link, opts)
		if err != nil {
			return fmt.Errorf("codec %s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(pt.wireOut / int64(opts.Requests)),
			pt.meanLatency.Round(time.Microsecond).String(),
		})
		return nil
	}
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		if err := row(codec.Name(), codec, newPaperProtocol()); err != nil {
			return t, err
		}
	}
	// Beyond the paper: the same point with the proxy offering the plans it
	// holds, so a template that recurs crosses the link as its headers.
	if err := row("binary+refs", tmpl.Binary{}, nil); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes, "binary tags are ~2-3x smaller; at 1KB fragments the wire difference is small, which is why the paper could treat g as a 10-byte constant")
	t.Notes = append(t.Notes, "binary+refs is not the paper's protocol: the proxy names the plan it holds (X-DPC-Have) and an unchanged template is answered by reference, so B_C falls to the response headers and the tag bytes stop mattering at all")
	return t, nil
}

// AblationStrict compares strict (generation-checked) and fast assembly
// under invalidation churn (DESIGN.md decision 4). Strict mode pays a
// per-GET comparison and occasional fallbacks; fast mode risks serving a
// reused slot's bytes.
func AblationStrict(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:      "ablation-strict",
		Title:   "Ablation: strict vs fast assembly under 20% invalidation churn",
		Columns: []string{"mode", "origin wire bytes/req", "mean latency", "stale fallbacks"},
	}
	for _, strict := range []bool{true, false} {
		name := "fast"
		if strict {
			name = "strict"
		}
		pt, err := runAblation(tmpl.Binary{}, strict, 0.2, newPaperProtocol(), opts)
		if err != nil {
			return t, fmt.Errorf("%s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(pt.wireOut / int64(opts.Requests)),
			pt.meanLatency.Round(time.Microsecond).String(),
			fmt.Sprint(pt.fallbacks),
		})
	}
	t.Notes = append(t.Notes, "fast mode never falls back but may serve stale bytes during slot reuse races; strict mode is the default")
	return t, nil
}

// AblationLatencyModel sweeps the repository's simulated query delay to
// show where the DPC's response-time win comes from: the deeper the
// back-end workflow (Figure 1), the larger the cached-path advantage.
func AblationLatencyModel(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:      "ablation-latency",
		Title:   "Ablation: response-time win vs back-end query delay (portal site)",
		Columns: []string{"query delay", "no-cache mean", "cached mean", "speedup"},
	}
	for _, delay := range []time.Duration{0, time.Millisecond, 4 * time.Millisecond} {
		var means [2]time.Duration
		for i, mode := range []core.Mode{core.ModeNoCache, core.ModeCached} {
			sys, err := core.NewSystem(core.Config{
				Capacity: 1024,
				Seed:     opts.Seed,
				Latency:  repository.LatencyModel{QueryDelay: delay},
				Proxy:    dpc.Config{Strict: true, Transport: newPaperProtocol()},
			}, mode)
			if err != nil {
				return t, err
			}
			sc, err := site.BuildPortal(site.DefaultPortal(), sys.Repo)
			if err != nil {
				return t, err
			}
			if err := sys.Register(sc); err != nil {
				return t, err
			}
			if err := sys.Start(); err != nil {
				return t, err
			}
			users, _ := workload.NewUserPool(50, 1)
			z, _ := workload.NewZipf(1, 0)
			d := &workload.Driver{
				BaseURL:     sys.FrontURL(),
				Gen:         workload.PageGenerator(z, users, "/page/portal"),
				Concurrency: opts.Concurrency,
				Seed:        opts.Seed,
			}
			warm := opts.Warmup
			if warm < 50 {
				warm = 50
			}
			if _, err := d.Run(warm); err != nil {
				sys.Close()
				return t, err
			}
			res, err := d.Run(opts.Requests)
			sys.Close()
			if err != nil {
				return t, err
			}
			means[i] = res.Latency.Mean()
		}
		speedup := float64(means[0]) / float64(means[1])
		t.Rows = append(t.Rows, []string{
			delay.String(),
			means[0].Round(10 * time.Microsecond).String(),
			means[1].Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.1fx", speedup),
		})
	}
	t.Notes = append(t.Notes, "content-generation delay, not transfer time, dominates the case-study response-time reduction — matching Section 2.2's bottleneck analysis")
	return t, nil
}
