package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/tmpl"
)

func newTestProxy(t *testing.T, originURL string, mutate func(*Config)) *Proxy {
	t.Helper()
	cfg := Config{OriginURL: originURL, Capacity: 32, PublishInterval: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// K concurrent identical requests must produce exactly one origin fetch,
// with every client receiving the intact page — for plain and template
// responses, buffered and streaming (the streaming leader tees the page
// into the flight buffer for its followers).
func TestCoalesceStorm(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stream   bool
		template bool
	}{
		{"plain/buffered", false, false},
		{"plain/streaming", true, false},
		{"template/buffered", false, true},
		{"template/streaming", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testCoalesceStorm(t, tc.stream, tc.template)
		})
	}
}

func testCoalesceStorm(t *testing.T, stream, template bool) {
	const followers = 8
	const wantBody = "<html>storm page</html>"
	var fetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		close(entered)
		<-release
		if !template {
			fmt.Fprint(w, wantBody)
			return
		}
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Set(1, 1, []byte("storm page"))
		_ = enc.Literal([]byte("</html>"))
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = stream
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	type result struct {
		body  string
		cache string
		err   error
	}
	get := func(ch chan<- result) {
		resp, err := http.Get(ts.URL + "/page/storm")
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		ch <- result{body: string(b), cache: resp.Header.Get("X-Cache"), err: err}
	}

	results := make(chan result, followers+1)
	go get(results) // leader
	<-entered       // origin is now blocked inside the leader's fetch
	// The key must match what the real client sends — the coalesce key now
	// covers every forwarded header, including the client's User-Agent.
	keyReq := httptest.NewRequest(http.MethodGet, "/page/storm", nil)
	keyReq.Header.Set("User-Agent", "Go-http-client/1.1")
	key := coalesceKey(keyReq)
	for i := 0; i < followers; i++ {
		go get(results)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers parked", p.flights.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var coalesced int
	for i := 0; i < followers+1; i++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.body != wantBody {
			t.Fatalf("body = %q", res.body)
		}
		if res.cache == "COALESCE-FOLLOWER" {
			coalesced++
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("origin saw %d fetches, want 1", got)
	}
	if coalesced != followers {
		t.Fatalf("%d responses marked COALESCE-FOLLOWER, want %d", coalesced, followers)
	}
	// Handlers count after writing their last byte, which a client that
	// knows the length can have read already: wait for them to finish.
	for name, want := range map[string]int64{"dpc.coalesced": followers, "dpc.requests": followers + 1} {
		c := p.Registry().Counter(name)
		for c.Value() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := c.Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// Requests that differ in session identity must not share a fetch.
func TestCoalesceKeySeparatesIdentities(t *testing.T) {
	base := httptest.NewRequest(http.MethodGet, "/page/x?a=1", nil)
	alice := base.Clone(base.Context())
	alice.Header.Set("X-User", "alice")
	bob := base.Clone(base.Context())
	bob.Header.Set("X-User", "bob")
	cookie := base.Clone(base.Context())
	cookie.Header.Set("Cookie", "sid=1")
	auth := base.Clone(base.Context())
	auth.Header.Set("Authorization", "Bearer tok")
	lang := base.Clone(base.Context())
	lang.Header.Set("Accept-Language", "de")
	otherURL := httptest.NewRequest(http.MethodGet, "/page/x?a=2", nil)
	head := httptest.NewRequest(http.MethodHead, "/page/x?a=1", nil)

	keys := map[string]string{
		"anon":   coalesceKey(base),
		"alice":  coalesceKey(alice),
		"bob":    coalesceKey(bob),
		"cookie": coalesceKey(cookie),
		"auth":   coalesceKey(auth),
		"lang":   coalesceKey(lang),
		"url":    coalesceKey(otherURL),
		"head":   coalesceKey(head),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share a coalesce key", prev, name)
		}
		seen[k] = name
	}

	post := httptest.NewRequest(http.MethodPost, "/page/x", strings.NewReader("body"))
	if coalescable(post) {
		t.Fatal("POST must not coalesce")
	}
	if !coalescable(base) {
		t.Fatal("bodyless GET must coalesce")
	}
}

// templateOrigin serves a SET-template on the first capable fetch of a
// path and a GET-template afterwards, mirroring the BEM's behavior.
func templateOrigin(t *testing.T, lit []byte, frag []byte) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		mu.Lock()
		warm := seen[r.URL.Path]
		seen[r.URL.Path] = true
		mu.Unlock()
		if err := enc.Literal(lit); err != nil {
			t.Error(err)
		}
		if warm {
			_ = enc.Get(1, 1)
		} else {
			_ = enc.Set(1, 1, frag)
		}
		_ = enc.Literal([]byte("</page>"))
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
}

// Streaming assembly must produce byte-identical pages to the buffered
// path, on both the SET (cold) and GET (warm) requests — including
// literals that contain the codec's own magic bytes.
func TestStreamingGoldenIdentical(t *testing.T) {
	lit := append([]byte("<html>"), tmpl.Magic...)
	lit = append(lit, []byte("payload")...)
	frag := bytes.Repeat([]byte("F"), 2048)
	origin := templateOrigin(t, lit, frag)
	defer origin.Close()

	want := append(append(append([]byte{}, lit...), frag...), []byte("</page>")...)

	for _, strict := range []bool{false, true} {
		for _, stream := range []bool{false, true} {
			name := fmt.Sprintf("strict=%v/stream=%v", strict, stream)
			p := newTestProxy(t, origin.URL, func(c *Config) {
				c.Strict = strict
				c.Stream = stream
			})
			ts := httptest.NewServer(p)
			path := fmt.Sprintf("/page/golden-%v-%v", strict, stream)
			for i := 0; i < 2; i++ { // cold (SET) then warm (GET)
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("%s request %d: body %q, want %q", name, i, body, want)
				}
			}
			ts.Close()
		}
	}
}

// In strict streaming mode, staleness caught inside the look-ahead spool
// must abort cleanly to the bypass path: the client sees a complete 200
// page, never a torn response.
func TestStreamingStrictStaleAbortToBypass(t *testing.T) {
	var sawBypass atomic.Bool
	var staleReport atomic.Value
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-DPC-Bypass") != "" {
			sawBypass.Store(true)
			staleReport.Store(r.Header.Get("X-DPC-Stale"))
			fmt.Fprint(w, "<html>bypass page</html>")
			return
		}
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Literal([]byte("<html>head</html>"))
		_ = enc.Get(5, 9) // never SET: stale
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Strict = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/page/stale")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d err=%v", resp.StatusCode, err)
	}
	if string(body) != "<html>bypass page</html>" {
		t.Fatalf("body = %q", body)
	}
	if !sawBypass.Load() {
		t.Fatal("origin never saw the bypass fetch")
	}
	if got := staleReport.Load(); got != "5:9" {
		t.Fatalf("stale report = %q, want 5:9", got)
	}
	if got := p.Registry().Counter("dpc.stale_fallbacks").Value(); got != 1 {
		t.Fatalf("stale_fallbacks = %d", got)
	}
	if got := p.Registry().Counter("dpc.stream_aborts").Value(); got != 0 {
		t.Fatalf("stream_aborts = %d, want 0", got)
	}
}

// When staleness surfaces only after the spool has overflowed, the page is
// torn: the proxy must abort the response rather than silently serving a
// truncated or patched-together page — but it must still report the stale
// slots to the BEM out of band, or every later request repeats the abort.
func TestStreamingStaleOverflowAborts(t *testing.T) {
	var staleReport atomic.Value
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-DPC-Bypass") != "" {
			staleReport.Store(r.Header.Get("X-DPC-Stale"))
			fmt.Fprint(w, "report acknowledged")
			return
		}
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Literal(bytes.Repeat([]byte("x"), 100)) // overflows the 16-byte spool
		_ = enc.Get(5, 9)                               // stale after commit
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Strict = true
		c.Stream = true
		c.StreamSpoolBytes = 16
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/page/torn")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("torn streamed page was delivered as a clean response")
	}
	if got := p.Registry().Counter("dpc.stream_aborts").Value(); got != 1 {
		t.Fatalf("stream_aborts = %d, want 1", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for staleReport.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stale slots never reported to the BEM after the abort")
		}
		time.Sleep(time.Millisecond)
	}
	if got := staleReport.Load(); got != "5:9" {
		t.Fatalf("stale report = %q, want 5:9", got)
	}
}

// Non-strict streaming must still recover cleanly from an unset slot
// caught inside the spool (cold-start staleness is not strict-only).
func TestStreamingNonStrictStaleRecovers(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-DPC-Bypass") != "" {
			fmt.Fprint(w, "bypass page")
			return
		}
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Get(2, 1) // never SET
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true }) // Strict=false
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/page/cold")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "bypass page" {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
}

// The proxy must forward the client's real method, body, and headers to
// the origin — not rewrite everything into a bare GET.
func TestMethodBodyAndHeadersForwarded(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s|%s|%s|%s", r.Method, body,
			r.Header.Get("Content-Type"), r.Header.Get("Authorization"))
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/page/form", strings.NewReader("a=1&b=2"))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := "POST|a=1&b=2|application/x-www-form-urlencoded|Bearer tok"
	if string(body) != want {
		t.Fatalf("origin saw %q, want %q", body, want)
	}
}

// A streamed plain response with an empty body (HEAD) must commit the
// origin's headers: streamPlain used to leave the response uncommitted when
// no byte was copied, letting writePage clobber the origin's real
// Content-Length with 0.
func TestStreamedHeadKeepsContentLength(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodHead {
			t.Errorf("origin saw method %s, want HEAD", r.Method)
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Content-Length", "42")
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true })
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Head(ts.URL + "/page/asset")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Length"); got != "42" {
		t.Fatalf("Content-Length = %q, want the origin's 42", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain" {
		t.Fatalf("Content-Type = %q", got)
	}
}

// Static-cache hits must be counted like every other served response (the
// respond stage owns the counters), not skip metrics entirely.
func TestStaticHitCountedInRespondStage(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=60")
		w.Header().Set("Content-Type", "text/css")
		fmt.Fprint(w, "body{}")
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/static/site.css")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	reg := p.Registry()
	if got := reg.Counter("dpc.pagecache_hits").Value(); got != 2 {
		t.Fatalf("pagecache_hits = %d, want 2", got)
	}
	if got := reg.Counter("dpc.requests").Value(); got != 3 {
		t.Fatalf("dpc.requests = %d, want 3 (hits must be counted)", got)
	}
	if got := reg.Histogram("dpc.latency").Count(); got != 3 {
		t.Fatalf("dpc.latency count = %d, want 3", got)
	}
}

// Every request must leave per-stage latency observations behind.
func TestPerStageLatencyRecorded(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "plain")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/page/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	counts := map[string]int64{}
	for _, st := range p.Stages() {
		counts[st.Name] = st.hist.Count()
	}
	for _, name := range []string{"admin", "pagecache", "coalesce", "origin-fetch", "respond"} {
		if counts[name] != 1 {
			t.Fatalf("stage %s observed %d requests, want 1 (all: %v)", name, counts[name], counts)
		}
	}
	// A plain passthrough short-circuits before assemble/stale-fallback.
	if counts["assemble"] != 0 || counts["stale-fallback"] != 0 {
		t.Fatalf("short-circuited stages ran: %v", counts)
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.stage.respond.latency.count"] != 1 {
		t.Fatalf("stage histogram missing from registry snapshot: %v", snap)
	}
}

// The background publisher must refresh dpc.store.* gauges without anyone
// scraping /_dpc/stats, and stop on Close.
func TestBackgroundStorePublish(t *testing.T) {
	origin := httptest.NewServer(http.NotFoundHandler())
	defer origin.Close()
	p, err := New(Config{OriginURL: origin.URL, Capacity: 8, PublishInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Store().Set(3, 1, []byte("fragment")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Registry().Gauge("dpc.store.resident").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("publisher never refreshed dpc.store.resident")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_ = p.Close() // idempotent
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// BenchmarkAssembleStreamingVsBuffered shows the allocation contrast the
// look-ahead bound exists for: a page held whole costs O(page) of spool per
// request while a bounded spool stays O(spool) regardless of page size.
func BenchmarkAssembleStreamingVsBuffered(b *testing.B) {
	for _, pageKB := range []int{64, 512, 2048} {
		store, _ := NewStore(64)
		frag := bytes.Repeat([]byte("f"), 1024)
		var ins []tmpl.Instruction
		for k := uint32(0); k < uint32(pageKB); k++ {
			key := k % 64
			_ = store.Set(key, 1, frag)
			ins = append(ins, tmpl.Instruction{Op: tmpl.OpGet, Key: key, Gen: 1})
		}
		var buf bytes.Buffer
		_ = tmpl.EncodeAll(tmpl.Binary{}, &buf, ins)
		raw := buf.Bytes()
		p, err := New(Config{OriginURL: "http://unused.invalid", Store: store, Strict: true, PublishInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/page", nil)
		for _, mode := range []struct {
			name string
			max  int
		}{{"buffered", wholePage}, {"streaming", defaultSpoolBytes}} {
			b.Run(fmt.Sprintf("%s/page=%dKB", mode.name, pageKB), func(b *testing.B) {
				b.SetBytes(int64(pageKB) * 1024)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rs := &reqState{w: discardResponse{h: http.Header{}}, r: req}
					if _, err := p.assemblePage(rs, bytes.NewReader(raw), int64(len(raw)), mode.max); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
