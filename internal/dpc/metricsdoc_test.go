package dpc

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dpcache/internal/tmpl"
)

// docMetrics parses docs/METRICS.md's tables into name → type.
func docMetrics(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatalf("reading docs/METRICS.md: %v", err)
	}
	row := regexp.MustCompile("^\\| `(dpc\\.[^`]+)` \\| (counter|gauge|histogram) \\|")
	out := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			if _, dup := out[m[1]]; dup {
				t.Errorf("docs/METRICS.md documents %s twice", m[1])
			}
			out[m[1]] = m[2]
		}
	}
	if len(out) == 0 {
		t.Fatal("docs/METRICS.md contains no metric rows")
	}
	return out
}

// TestMetricsDocumented is the doc-drift gate: docs/METRICS.md must match
// MetricCatalog exactly, the catalog must cover every metric name the dpc
// sources register, the catalog's stage histograms must match the actual
// pipeline, and a running, broadly exercised system must publish nothing
// undocumented.
func TestMetricsDocumented(t *testing.T) {
	catalog := make(map[string]string)
	for _, m := range MetricCatalog() {
		if _, dup := catalog[m.Name]; dup {
			t.Errorf("MetricCatalog lists %s twice", m.Name)
		}
		catalog[m.Name] = m.Type
	}

	// 1. Documentation == catalog, both directions.
	documented := docMetrics(t)
	for name, typ := range catalog {
		if dt, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is in MetricCatalog but not documented in docs/METRICS.md", name, typ)
		} else if dt != typ {
			t.Errorf("%s documented as %s, catalog says %s", name, dt, typ)
		}
	}
	for name := range documented {
		if _, ok := catalog[name]; !ok {
			t.Errorf("docs/METRICS.md documents %s, which is not in MetricCatalog (removed from code?)", name)
		}
	}

	// 2. Every literal dpc.* metric registration in the sources is
	// catalogued (catches a new Counter("dpc.x") with no catalog entry
	// even if no test path exercises it).
	srcRe := regexp.MustCompile(`(?:Counter|Gauge|Histogram)\("(dpc\.[^"]+)"\)`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range srcRe.FindAllSubmatch(src, -1) {
			if name := string(m[1]); catalog[name] == "" {
				t.Errorf("%s registers %s, which is not in MetricCatalog", f, name)
			}
		}
	}

	// 3. The catalog's stage histograms match the real pipeline.
	p := newMetricsTestSystem(t)
	var stageHists []string
	for _, s := range p.Stages() {
		name := "dpc.stage." + s.Name + ".latency"
		stageHists = append(stageHists, name)
		if catalog[name] != "histogram" {
			t.Errorf("pipeline stage %q has no catalogued histogram %s", s.Name, name)
		}
	}
	for name, typ := range catalog {
		if typ == "histogram" && strings.HasPrefix(name, "dpc.stage.") {
			found := false
			for _, h := range stageHists {
				if h == name {
					found = true
				}
			}
			if !found {
				t.Errorf("catalog documents %s but the pipeline has no such stage", name)
			}
		}
	}

	// 4. A running system publishes only documented metrics.
	snap := p.Registry().Snapshot()
	for key := range snap {
		if !strings.HasPrefix(key, "dpc.") {
			continue // origin.*, bem.* etc. are other components' metrics
		}
		name := key
		for _, suffix := range []string{".count", ".mean_ns"} {
			if base := strings.TrimSuffix(key, suffix); base != key && catalog[base] == "histogram" {
				name = base
			}
		}
		if _, ok := catalog[name]; !ok {
			t.Errorf("running system published %s, which is not documented", key)
		}
	}
	// Sanity: the exercise really did touch the major surfaces.
	for _, want := range []string{
		"dpc.requests", "dpc.assembled", "dpc.pagecache_uncacheable_vary",
		"dpc.pagecache_hits", "dpc.pagecache_bypass_identity", "dpc.store.resident",
	} {
		if _, ok := snap[want]; !ok {
			t.Errorf("exercise did not populate %s — broaden newMetricsTestSystem", want)
		}
	}
}

// newMetricsTestSystem stands up a proxy with every tier enabled and
// drives requests through the major pipeline paths so the registry holds
// a representative metric surface.
func newMetricsTestSystem(t *testing.T) *Proxy {
	t.Helper()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/static"):
			w.Header().Set("Cache-Control", "max-age=60")
			fmt.Fprint(w, "static body")
		case strings.HasPrefix(r.URL.Path, "/varied"):
			w.Header().Set("Cache-Control", "max-age=60")
			w.Header().Set("Vary", "Cookie")
			fmt.Fprint(w, "varied body")
		case strings.HasPrefix(r.URL.Path, "/template"):
			var buf bytes.Buffer
			enc := tmpl.Binary{}.NewEncoder(&buf)
			_ = enc.Literal([]byte("<html>"))
			_ = enc.Set(1, 1, []byte("fragment"))
			_ = enc.Literal([]byte("</html>"))
			_ = enc.Flush()
			w.Header().Set("X-DPC-Template", "binary")
			_, _ = w.Write(buf.Bytes())
		default:
			fmt.Fprint(w, "plain body")
		}
	}))
	t.Cleanup(origin.Close)

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
		c.Coalesce = true
		c.Stream = true
		c.Trace = true
		c.TraceSampleEvery = 1
		c.TraceSlow = -1
	})
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	get := func(path string, hdr map[string]string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/static/a", map[string]string{"Cookie": "sid=x"}) // fills static cache (identity skips page tier)
	get("/static/a", map[string]string{"Cookie": "sid=x"}) // static hit
	get("/varied", map[string]string{"Cookie": "sid=x"})   // Vary refusal counted
	get("/template", nil)                                  // template assemble + page-tier fill
	get("/template", nil)                                  // page-tier hit
	get("/plain", map[string]string{"Authorization": "b"}) // identity bypass + plain passthrough
	get(AdminPrefix+"stats", nil)                          // publishes dpc.store.* gauges
	return p
}
