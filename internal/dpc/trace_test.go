package dpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dpcache/internal/metrics"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

// templateBody encodes a binary template from ops for test origins.
func templateBody(t *testing.T, build func(enc tmpl.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&buf)
	build(enc)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceDump fetches /_dpc/trace and decodes it.
func traceDump(t *testing.T, base, query string) (enabled bool, traces []trace.TraceJSON) {
	t.Helper()
	resp, err := http.Get(base + "/_dpc/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/_dpc/trace Content-Type = %q", ct)
	}
	var out struct {
		Enabled bool              `json:"enabled"`
		Traces  []trace.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Enabled, out.Traces
}

// findChild returns the first child span with the given name.
func findChild(s trace.SpanJSON, name string) *trace.SpanJSON {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

func hasEvent(s *trace.SpanJSON, kind trace.Kind, tier, note string) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == kind && (tier == "" || e.Tier == tier) && (note == "" || e.Note == note) {
			return true
		}
	}
	return false
}

// The acceptance-criteria trace: a sampled request through the full
// pipeline — page-tier miss, coalesce leader, origin fetch, assembly with
// two fragment refs — yields a /_dpc/trace entry with the stage spans,
// per-fragment spans, and tier-decision annotations, and the response
// carries X-DPC-Trace-Id.
func TestTraceFullPipelineCapture(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-DPC-Template", "binary")
		switch r.URL.Path {
		case "/prime":
			_, _ = w.Write(templateBody(t, func(enc tmpl.Encoder) {
				_ = enc.Literal([]byte("<html>"))
				_ = enc.Set(1, 1, []byte("frag one"))
				_ = enc.Set(2, 1, []byte("frag two"))
				_ = enc.Literal([]byte("</html>"))
			}))
		default:
			_, _ = w.Write(templateBody(t, func(enc tmpl.Encoder) {
				_ = enc.Literal([]byte("<html>"))
				_ = enc.Get(1, 1)
				_ = enc.Literal([]byte(" + "))
				_ = enc.Get(2, 1)
				_ = enc.Literal([]byte("</html>"))
			}))
		}
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.Coalesce = true
		c.Trace = true
		c.TraceSampleEvery = 1
		c.TraceSlow = -1
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/prime"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "<html>frag one + frag two</html>"; string(body) != want {
		t.Fatalf("body = %q, want %q", body, want)
	}
	id := resp.Header.Get(trace.ResponseHeader)
	if id == "" {
		t.Fatal("sampled response carries no X-DPC-Trace-Id")
	}

	enabled, traces := traceDump(t, ts.URL, "")
	if !enabled {
		t.Fatal("/_dpc/trace reports tracing disabled")
	}
	var captured *trace.TraceJSON
	for i := range traces {
		if traces[i].ID == id {
			captured = &traces[i]
		}
	}
	if captured == nil {
		t.Fatalf("trace %s not in ring (%d traces)", id, len(traces))
	}
	root := captured.Root
	if root.Name != "GET /page" {
		t.Fatalf("root span = %q", root.Name)
	}
	for _, stage := range []string{"pagecache", "coalesce", "origin-fetch", "assemble", "respond"} {
		if findChild(root, stage) == nil {
			t.Errorf("trace lacks a %q stage span (children: %+v)", stage, root.Children)
		}
	}
	if !hasEvent(findChild(root, "pagecache"), trace.KindMiss, "page", "") {
		t.Error("pagecache span lacks a page-tier miss event")
	}
	if !hasEvent(findChild(root, "coalesce"), trace.KindRole, "coalesce", "leader") {
		t.Error("coalesce span lacks a leader role event")
	}
	if !hasEvent(findChild(root, "origin-fetch"), trace.KindInfo, "origin", "template") {
		t.Error("origin-fetch span lacks the origin shape annotation")
	}
	asm := findChild(root, "assemble")
	if asm == nil {
		t.Fatal("no assemble span")
	}
	var frags int
	for _, c := range asm.Children {
		if c.Name == "fragment" && hasEvent(&c, trace.KindHit, "fragment", "") {
			frags++
		}
	}
	if frags < 2 {
		t.Fatalf("assemble span has %d fragment hit spans, want >= 2", frags)
	}
	if !hasEvent(findChild(root, "respond"), trace.KindFill, "page", "") {
		t.Error("respond span lacks the page-tier fill event")
	}
	if root.Bytes != int64(len(body)) {
		t.Errorf("root bytes = %d, want %d", root.Bytes, len(body))
	}
	if root.TTFBUS <= 0 {
		t.Error("root span has no TTFB")
	}

	// min_ms filtering applies.
	if _, fast := traceDump(t, ts.URL, "?min_ms=60000"); len(fast) != 0 {
		t.Fatalf("min_ms=60000 returned %d traces", len(fast))
	}
}

// A trace id propagates proxy→proxy over X-DPC-Trace: chaining a front
// proxy to a back proxy yields one id in both rings, with the back hop
// marked remote.
func TestTraceChainsAcrossProxies(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "origin body")
	}))
	defer origin.Close()

	back := newTestProxy(t, origin.URL, func(c *Config) {
		c.Trace = true
		c.TraceSampleEvery = 1
		c.TraceSlow = -1
	})
	backTS := httptest.NewServer(back)
	defer backTS.Close()

	front := newTestProxy(t, backTS.URL, func(c *Config) {
		c.Trace = true
		c.TraceSampleEvery = 1
		c.TraceSlow = -1
	})
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()

	resp, err := http.Get(frontTS.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(trace.ResponseHeader)
	if id == "" {
		t.Fatal("front proxy stamped no trace id")
	}

	_, frontTraces := traceDump(t, frontTS.URL, "")
	_, backTraces := traceDump(t, backTS.URL, "")
	if len(frontTraces) != 1 || frontTraces[0].ID != id {
		t.Fatalf("front ring: %+v, want one trace with id %s", frontTraces, id)
	}
	if frontTraces[0].Remote {
		t.Fatal("front hop wrongly marked remote")
	}
	if len(backTraces) != 1 || backTraces[0].ID != id {
		t.Fatalf("back ring: %+v, want one trace with id %s", backTraces, id)
	}
	if !backTraces[0].Remote {
		t.Fatal("back hop not marked remote despite the propagated id")
	}
}

// With tracing disabled the proxy stamps no trace header and /_dpc/trace
// reports disabled with an empty list.
func TestTraceDisabledSurface(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "plain")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(trace.ResponseHeader); got != "" {
		t.Fatalf("disabled tracing stamped %s: %q", trace.ResponseHeader, got)
	}
	enabled, traces := traceDump(t, ts.URL, "")
	if enabled || len(traces) != 0 {
		t.Fatalf("disabled surface: enabled=%v traces=%d", enabled, len(traces))
	}
}

// promLine matches one Prometheus text-exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// /_dpc/metrics serves every catalog metric in valid Prometheus text
// exposition format.
func TestMetricsExposition(t *testing.T) {
	p := newMetricsTestSystem(t)
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/_dpc/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != metrics.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", got, metrics.PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Structural parse: every line is a comment or a well-formed sample;
	// every sample's metric family was declared by a preceding TYPE line.
	declared := map[string]string{}
	samples := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			declared[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d: not a valid exposition sample: %q", ln+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && declared[base] == "histogram" {
				family = base
			}
		}
		if declared[family] == "" {
			t.Fatalf("line %d: sample %q has no TYPE declaration", ln+1, line)
		}
		samples[family] = true
	}

	// Coverage: every catalog metric is declared and sampled.
	for _, m := range MetricCatalog() {
		name := metrics.PromName(m.Name)
		if declared[name] != m.Type {
			t.Errorf("catalog metric %s: declared as %q, want %q", m.Name, declared[name], m.Type)
		}
		if !samples[name] {
			t.Errorf("catalog metric %s: no sample line", m.Name)
		}
	}

	// Histograms carry cumulative buckets ending in +Inf.
	if !strings.Contains(body, `dpc_latency_bucket{le="+Inf"}`) {
		t.Error("dpc_latency has no +Inf bucket")
	}
	if !regexp.MustCompile(`(?m)^dpc_requests [1-9]`).MatchString(body) {
		t.Error("dpc_requests not positive after the exercise")
	}
}

// Read-only admin endpoints accept GET and HEAD only and answer 405 (with
// Allow) otherwise.
func TestAdminEndpointsMethodGated(t *testing.T) {
	p := newTestProxy(t, "http://127.0.0.1:0", func(c *Config) {
		c.Trace = true
		c.TraceSlow = -1
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	wantCT := map[string]string{
		"/_dpc/stats":   "application/json",
		"/_dpc/trace":   "application/json",
		"/_dpc/metrics": metrics.PromContentType,
	}
	for path, ct := range wantCT {
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			req, _ := http.NewRequest(method, ts.URL+path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s = %d, want 200", method, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Content-Type"); got != ct {
				t.Errorf("%s %s Content-Type = %q, want %q", method, path, got, ct)
			}
		}
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader("x"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", method, path, got)
			}
		}
	}
}

// The pprof mux mounts under /_dpc/pprof/ only behind Config.Pprof.
func TestPprofGatedByFlag(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		t.Run(strconv.FormatBool(enabled), func(t *testing.T) {
			p := newTestProxy(t, "http://127.0.0.1:0", func(c *Config) {
				c.Pprof = enabled
			})
			ts := httptest.NewServer(p)
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/_dpc/pprof/goroutine?debug=1")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if enabled {
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
					t.Fatalf("pprof enabled: status %d body %q", resp.StatusCode, body)
				}
			} else if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("pprof disabled but /_dpc/pprof/ answered %d", resp.StatusCode)
			}
		})
	}
}
