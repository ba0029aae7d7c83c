package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/clock"
)

// cacheableStatic must refuse responses carrying Vary: the cache is
// URL-keyed, so a varied response would be served to every client
// regardless of their variant. varied reports the refusal so callers can
// count it.
func TestCacheableStaticRefusesVary(t *testing.T) {
	mk := func(h http.Header) *http.Response {
		return &http.Response{StatusCode: http.StatusOK, Header: h}
	}
	ttl, varied := cacheableStatic(mk(http.Header{"Cache-Control": {"max-age=60"}}))
	if ttl != time.Minute || varied {
		t.Fatalf("plain cacheable: ttl=%v varied=%v", ttl, varied)
	}
	ttl, varied = cacheableStatic(mk(http.Header{
		"Cache-Control": {"max-age=60"}, "Vary": {"Cookie"},
	}))
	if ttl != 0 || !varied {
		t.Fatalf("Vary response: ttl=%v varied=%v, want refused and counted", ttl, varied)
	}
	// Uncacheable responses with Vary are not counted as Vary refusals:
	// Cache-Control already blocked them.
	ttl, varied = cacheableStatic(mk(http.Header{"Vary": {"Cookie"}}))
	if ttl != 0 || varied {
		t.Fatalf("no-cache-control Vary response: ttl=%v varied=%v", ttl, varied)
	}
}

// End to end: a max-age response with Vary: Cookie must not be URL-keyed —
// each cookie variant reaches the origin and gets its own body, and the
// refusals are counted.
func TestStaticCacheVaryNotCrossServed(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=60")
		w.Header().Set("Vary", "Cookie")
		fmt.Fprintf(w, "variant for %s", r.Header.Get("Cookie"))
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	get := func(cookie string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/page/varied", nil)
		req.Header.Set("Cookie", cookie)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got := get("sid=alice"); got != "variant for sid=alice" {
		t.Fatalf("alice got %q", got)
	}
	if got := get("sid=bob"); got != "variant for sid=bob" {
		t.Fatalf("bob got %q — served alice's cached variant", got)
	}
	if got := p.Pages().Len(); got != 0 {
		t.Fatalf("tier holds %d entries, want 0 (Vary responses must not enter)", got)
	}
	if got := p.Registry().Counter("dpc.pagecache_uncacheable_vary").Value(); got != 2 {
		t.Fatalf("dpc.pagecache_uncacheable_vary = %d, want 2", got)
	}
}

// Vary: Accept-Encoding is allowlisted: the proxy serves every client the
// identity encoding, so such responses ARE cacheable and are not counted
// as refusals.
func TestCacheableStaticAllowsVaryAcceptEncoding(t *testing.T) {
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{
		"Cache-Control": {"max-age=60"}, "Vary": {"Accept-Encoding"},
	}}
	ttl, varied := cacheableStatic(resp)
	if ttl != time.Minute || varied {
		t.Fatalf("Vary: Accept-Encoding: ttl=%v varied=%v, want cacheable and uncounted", ttl, varied)
	}
	// A mixed Vary with a non-allowlisted member is still refused.
	resp.Header.Set("Vary", "Accept-Encoding, Cookie")
	if ttl, varied = cacheableStatic(resp); ttl != 0 || !varied {
		t.Fatalf("Vary: Accept-Encoding, Cookie: ttl=%v varied=%v, want refused and counted", ttl, varied)
	}
	resp.Header.Set("Vary", "*")
	if ttl, varied = cacheableStatic(resp); ttl != 0 || !varied {
		t.Fatalf("Vary: *: ttl=%v varied=%v, want refused and counted", ttl, varied)
	}
}

// End to end: the proxy does not forward the client's Accept-Encoding and
// serves identity, so a Vary: Accept-Encoding response is the same body
// whatever the client asked for. One origin fetch fills one entry, and a
// client with another encoding preference is served STATIC from it; no
// Vary refusals are counted.
func TestStaticCacheVaryAcceptEncodingOneEntry(t *testing.T) {
	var origins atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		origins.Add(1)
		w.Header().Set("Cache-Control", "max-age=60")
		w.Header().Set("Vary", "Accept-Encoding")
		fmt.Fprintf(w, "encoded for %q", r.Header.Get("Accept-Encoding"))
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	get := func(ae string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/asset.css", nil)
		if ae != "" {
			req.Header.Set("Accept-Encoding", ae)
		}
		// Suppress the transport's automatic gzip negotiation so the
		// header reaches the proxy exactly as set.
		tr := &http.Transport{DisableCompression: true}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("X-Cache")
	}
	body, state := get("gzip")
	if state != "MISS" {
		t.Fatalf("first gzip fetch state = %s", state)
	}
	if _, state := get("gzip"); state != "STATIC" {
		t.Fatalf("second gzip fetch state = %s, want STATIC (allowlisted Vary must be cacheable)", state)
	}
	if got, state := get("br"); state != "STATIC" || got != body {
		t.Fatalf("br fetch: state %s body %q, want STATIC and %q from the one entry", state, got, body)
	}
	if got := origins.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want 1", got)
	}
	if got := p.Pages().Len(); got != 1 {
		t.Fatalf("tier entries = %d, want 1", got)
	}
	if got := p.Registry().Counter("dpc.pagecache_uncacheable_vary").Value(); got != 0 {
		t.Fatalf("dpc.pagecache_uncacheable_vary = %d, want 0 (allowlisted Vary is not a refusal)", got)
	}
}

// Cache-Control directives split across header lines must all be seen: a
// no-store on the second line vetoes a max-age on the first.
func TestCacheableStaticMultiLineCacheControl(t *testing.T) {
	h := http.Header{}
	h.Add("Cache-Control", "max-age=60")
	h.Add("Cache-Control", "no-store")
	ttl, varied := cacheableStatic(&http.Response{StatusCode: http.StatusOK, Header: h})
	if ttl != 0 || varied {
		t.Fatalf("multi-line no-store response: ttl=%v varied=%v, want uncacheable", ttl, varied)
	}
}

// The cases below drive the origin's opt-in rule of the one tier through
// the proxy, against an in-process origin at the transport seam.

// assetOrigin answers every request with body under Cache-Control cc and
// Content-Type ctype, counting fetches.
func assetOrigin(cc, ctype string, body func(r *http.Request) []byte, fetches *atomic.Int64) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		fetches.Add(1)
		b := body(r)
		h := http.Header{"Content-Type": {ctype}}
		if cc != "" {
			h.Set("Cache-Control", cc)
		}
		return &http.Response{
			StatusCode: http.StatusOK, ContentLength: int64(len(b)), Request: r,
			Body: io.NopCloser(bytes.NewReader(b)), Header: h,
		}, nil
	})
}

// serveGet drives one GET through p in process.
func serveGet(p *Proxy, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func fixedBody(s string) func(*http.Request) []byte {
	return func(*http.Request) []byte { return []byte(s) }
}

func TestStaticCachePutGet(t *testing.T) {
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = assetOrigin("max-age=60", "image/png", fixedBody("png-bytes"), &fetches)
	})
	if rec := serveGet(p, "/static/logo"); rec.Header().Get("X-Cache") != "MISS" || rec.Body.String() != "png-bytes" {
		t.Fatalf("fill: %q %q", rec.Header().Get("X-Cache"), rec.Body)
	}
	rec := serveGet(p, "/static/logo")
	if rec.Header().Get("X-Cache") != "STATIC" || rec.Body.String() != "png-bytes" || rec.Header().Get("Content-Type") != "image/png" {
		t.Fatalf("hit: %q %q %q", rec.Header().Get("X-Cache"), rec.Body, rec.Header().Get("Content-Type"))
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.pagecache_fills"] != 1 || snap["dpc.pagecache_hits"] != 1 || fetches.Load() != 1 {
		t.Fatalf("fills=%d hits=%d origin fetches=%d, want 1/1/1", snap["dpc.pagecache_fills"], snap["dpc.pagecache_hits"], fetches.Load())
	}
}

// A miss of the opt-in key alone is not a page-tier miss: with the page
// rule off nothing counts one, and with it on an anonymous GET that misses
// both keys counts one, so dpc.pagecache_misses keeps meaning "requests the
// page rule could have filled".
func TestStaticCacheMiss(t *testing.T) {
	for _, page := range []bool{false, true} {
		var fetches atomic.Int64
		p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
			c.PageCache = page
			c.Transport = assetOrigin("", "text/plain", fixedBody("x"), &fetches)
		})
		if rec := serveGet(p, "/nope"); rec.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("page=%v: X-Cache = %q on an empty tier", page, rec.Header().Get("X-Cache"))
		}
		want := int64(0)
		if page {
			want = 1
		}
		if got := p.Registry().Counter("dpc.pagecache_misses").Value(); got != want {
			t.Fatalf("page=%v: dpc.pagecache_misses = %d, want %d", page, got, want)
		}
	}
}

func TestStaticCacheExpiry(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageClock = fake
		c.Transport = assetOrigin("max-age=10", "text/plain", fixedBody("x"), &fetches)
	})
	serveGet(p, "/a")
	fake.Advance(9 * time.Second)
	if rec := serveGet(p, "/a"); rec.Header().Get("X-Cache") != "STATIC" {
		t.Fatalf("expired early: X-Cache = %q", rec.Header().Get("X-Cache"))
	}
	fake.Advance(2 * time.Second)
	if rec := serveGet(p, "/a"); rec.Header().Get("X-Cache") != "MISS" || fetches.Load() != 2 {
		t.Fatalf("past max-age: X-Cache = %q after %d fetches", rec.Header().Get("X-Cache"), fetches.Load())
	}
}

func TestStaticCacheZeroTTLIgnored(t *testing.T) {
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = assetOrigin("max-age=0", "text/plain", fixedBody("x"), &fetches)
	})
	serveGet(p, "/a")
	if rec := serveGet(p, "/a"); rec.Header().Get("X-Cache") != "MISS" || p.Pages().Len() != 0 {
		t.Fatalf("max-age=0 response filed: X-Cache = %q, %d entries", rec.Header().Get("X-Cache"), p.Pages().Len())
	}
}

// Without the page rule the tier is today's static tier: 1024 entries, the
// least recently used one evicted first.
func TestStaticCacheLRUEviction(t *testing.T) {
	const bound = 1024
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = assetOrigin("max-age=3600", "text/plain", func(r *http.Request) []byte { return []byte(r.URL.Path) }, &fetches)
	})
	for i := 0; i < bound; i++ {
		serveGet(p, fmt.Sprintf("/f%d", i))
	}
	if rec := serveGet(p, "/f0"); rec.Header().Get("X-Cache") != "STATIC" { // touch f0; f1 becomes LRU
		t.Fatal("f0 missing at the bound")
	}
	serveGet(p, fmt.Sprintf("/f%d", bound))
	if p.Pages().Len() != bound {
		t.Fatalf("tier holds %d entries, want %d", p.Pages().Len(), bound)
	}
	if rec := serveGet(p, "/f1"); rec.Header().Get("X-Cache") == "STATIC" {
		t.Fatal("LRU entry f1 survived")
	}
	if rec := serveGet(p, "/f0"); rec.Header().Get("X-Cache") != "STATIC" {
		t.Fatal("recently used entry f0 evicted")
	}
}

// A refetch after expiry replaces the entry in place.
func TestStaticCacheOverwrite(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageClock = fake
		c.Transport = assetOrigin("max-age=10", "text/plain", func(*http.Request) []byte {
			return []byte(fmt.Sprintf("v%d", fetches.Load()))
		}, &fetches)
	})
	serveGet(p, "/a")
	fake.Advance(11 * time.Second)
	serveGet(p, "/a")
	if rec := serveGet(p, "/a"); rec.Header().Get("X-Cache") != "STATIC" || rec.Body.String() != "v2" {
		t.Fatalf("after refetch: %q %q", rec.Header().Get("X-Cache"), rec.Body)
	}
	if p.Pages().Len() != 1 {
		t.Fatalf("len = %d", p.Pages().Len())
	}
}

// The filed entry owns its bytes: the origin reusing the buffer it answered
// from does not reach a later hit.
func TestStaticCacheCopiesBody(t *testing.T) {
	src := []byte("abc")
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = assetOrigin("max-age=60", "text/plain", func(*http.Request) []byte { return src }, &fetches)
	})
	serveGet(p, "/a")
	src[0] = 'z'
	if rec := serveGet(p, "/a"); rec.Header().Get("X-Cache") != "STATIC" || rec.Body.String() != "abc" {
		t.Fatalf("hit = %q %q: the tier aliased the origin's buffer", rec.Header().Get("X-Cache"), rec.Body)
	}
}

func TestMaxAgeParsing(t *testing.T) {
	cases := []struct {
		cc   string
		want time.Duration
	}{
		{"", 0},
		{"max-age=60", time.Minute},
		{"public, max-age=300", 5 * time.Minute},
		{"max-age=60, no-store", 0},
		{"no-cache, max-age=60", 0},
		{"private, max-age=60", 0},
		{"max-age=-5", 0},
		{"max-age=abc", 0},
		{"MAX-AGE=10", 10 * time.Second}, // case-insensitive
	}
	for _, tc := range cases {
		if got := maxAgeFrom(tc.cc); got != tc.want {
			t.Errorf("maxAgeFrom(%q) = %v, want %v", tc.cc, got, tc.want)
		}
	}
}

// With the page rule on, both rules share the configured bound.
func TestStaticCacheManyEntriesBounded(t *testing.T) {
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageCache = true
		c.PageCacheEntries = 8
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			cc := ""
			if strings.HasPrefix(r.URL.Path, "/asset") {
				cc = "max-age=3600"
			}
			return assetOrigin(cc, "text/plain", fixedBody("x"), &fetches).RoundTrip(r)
		})
	})
	for i := 0; i < 50; i++ {
		serveGet(p, fmt.Sprintf("/asset%d", i))
		serveGet(p, fmt.Sprintf("/page%d", i))
	}
	if p.Pages().Len() != 8 || p.Registry().Counter("dpc.pagecache_fills").Value() != 100 {
		t.Fatalf("len = %d after %d fills, want 8 after 100", p.Pages().Len(), p.Registry().Counter("dpc.pagecache_fills").Value())
	}
}

// An opted-in asset larger than the capture bound is relayed intact and
// not filed — the tier's one fill path holds no more than
// maxPageCaptureBytes of any response — and the refusal is counted.
func TestStaticOversizedAssetNotFiled(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (2<<20)/16)
	var fetches atomic.Int64
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = assetOrigin("max-age=60", "application/octet-stream", func(*http.Request) []byte { return big }, &fetches)
	})
	for i := 0; i < 2; i++ {
		rec := serveGet(p, "/big.bin")
		if rec.Header().Get("X-Cache") != "MISS" || !bytes.Equal(rec.Body.Bytes(), big) {
			t.Fatalf("request %d: X-Cache = %q, %d of %d bytes intact", i, rec.Header().Get("X-Cache"), rec.Body.Len(), len(big))
		}
	}
	if p.Pages().Len() != 0 || fetches.Load() != 2 {
		t.Fatalf("a %d-byte asset was filed: %d entries, %d origin fetches", len(big), p.Pages().Len(), fetches.Load())
	}
	if got := p.Registry().Counter("dpc.pagecache_uncacheable").Value(); got != 2 {
		t.Fatalf("dpc.pagecache_uncacheable = %d, want 2", got)
	}
}

// A tier flush landing while an opted-in asset is in flight voids its fill:
// the flush could not have removed an entry not yet filed, so filing it
// afterwards would outlive the flush.
func TestStaticFillVoidedByRacingFlush(t *testing.T) {
	var p *Proxy
	var fetches atomic.Int64
	assets := assetOrigin("max-age=60", "text/css", fixedBody("body{}"), &fetches)
	p = newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			p.flushPages(FlushEvent) // the fabric flushes the tier mid-fetch
			return assets.RoundTrip(r)
		})
	})
	if rec := serveGet(p, "/site.css"); rec.Body.String() != "body{}" {
		t.Fatalf("body = %q", rec.Body)
	}
	if p.Pages().Len() != 0 {
		t.Fatal("a fill that raced a flush was filed")
	}
	if got := p.Registry().Counter("dpc.pagecache_invalidations").Value(); got != 1 {
		t.Fatalf("dpc.pagecache_invalidations = %d, want 1", got)
	}
}
