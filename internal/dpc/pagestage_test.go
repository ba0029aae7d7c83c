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

	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/pagecache"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

func pageGet(t *testing.T, url string, hdr map[string]string) (string, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return string(b), resp.Header.Get("X-Cache")
}

// The acceptance shape: an anonymous-session burst of N identical requests
// costs one origin fetch; the other N−1 are served from the whole-page
// tier with X-Cache: PAGE — for plain and template pages, buffered and
// streaming (the capture tee must fill the cache on every pipeline
// branch).
func TestPageCacheBurstServesFromPage(t *testing.T) {
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
			const wantBody = "<html>hot page</html>"
			var fetches atomic.Int64
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fetches.Add(1)
				if !tc.template {
					fmt.Fprint(w, wantBody)
					return
				}
				var buf bytes.Buffer
				enc := tmpl.Binary{}.NewEncoder(&buf)
				_ = enc.Literal([]byte("<html>"))
				_ = enc.Set(1, 1, []byte("hot page"))
				_ = enc.Literal([]byte("</html>"))
				_ = enc.Flush()
				w.Header().Set("X-DPC-Template", "binary")
				_, _ = w.Write(buf.Bytes())
			}))
			defer origin.Close()

			p := newTestProxy(t, origin.URL, func(c *Config) {
				c.PageCache = true
				c.PageCacheTTL = time.Minute
				c.Stream = tc.stream
			})
			ts := httptest.NewServer(p)
			defer ts.Close()

			const n = 6
			var pageHits int
			for i := 0; i < n; i++ {
				body, state := pageGet(t, ts.URL+"/page/hot", nil)
				if body != wantBody {
					t.Fatalf("request %d body = %q", i, body)
				}
				if state == "PAGE" {
					pageHits++
				}
			}
			if got := fetches.Load(); got != 1 {
				t.Fatalf("origin saw %d fetches, want 1", got)
			}
			if pageHits != n-1 {
				t.Fatalf("%d of %d requests served with X-Cache: PAGE, want %d", pageHits, n, n-1)
			}
			if got := p.Registry().Counter("dpc.pagecache_hits").Value(); got != n-1 {
				t.Fatalf("dpc.pagecache_hits = %d, want %d", got, n-1)
			}
			if got := p.Registry().Counter("dpc.pagecache_fills").Value(); got != 1 {
				t.Fatalf("dpc.pagecache_fills = %d, want 1", got)
			}
		})
	}
}

// Off the invalidation fabric no grant vouches for a page, so
// identity-bearing requests must bypass the whole-page tier entirely —
// neither served from it nor stored into it — or the baseline's
// Bob/Alice failure comes back.
func TestPageCacheIdentityBypass(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		fmt.Fprintf(w, "page for %q/%q", r.Header.Get("X-User"), r.Header.Get("Cookie"))
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Bob (cookie session) fetches twice: the page cache must not serve
	// or store his personalized page.
	for i := 0; i < 2; i++ {
		body, state := pageGet(t, ts.URL+"/page/p", map[string]string{"Cookie": "sid=bob"})
		if state == "PAGE" {
			t.Fatalf("identity-bearing request %d served from the page cache", i)
		}
		if body != `page for ""/"sid=bob"` {
			t.Fatalf("bob got %q", body)
		}
	}
	// Same for Authorization and X-User.
	if _, state := pageGet(t, ts.URL+"/page/p", map[string]string{"Authorization": "Bearer x"}); state == "PAGE" {
		t.Fatal("Authorization-bearing request served from the page cache")
	}
	if _, state := pageGet(t, ts.URL+"/page/p", map[string]string{"X-User": "bob"}); state == "PAGE" {
		t.Fatal("X-User-bearing request served from the page cache")
	}
	if got := fetches.Load(); got != 4 {
		t.Fatalf("origin saw %d fetches, want 4 (no identity request cached)", got)
	}
	if got := p.Registry().Counter("dpc.pagecache_bypass_identity").Value(); got != 4 {
		t.Fatalf("dpc.pagecache_bypass_identity = %d, want 4", got)
	}
	// An anonymous request after Bob must not receive Bob's page.
	body, _ := pageGet(t, ts.URL+"/page/p", nil)
	if body != `page for ""/""` {
		t.Fatalf("anonymous visitor got %q — an identified page leaked into the page tier", body)
	}
	if p.Pages().Len() != 1 {
		t.Fatalf("page tier holds %d entries, want 1 (the anonymous page only)", p.Pages().Len())
	}
}

// Pages expire after PageCacheTTL: a page cache cannot see fragment
// invalidations, so the TTL is its only staleness bound.
func TestPageCacheTTLExpiry(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "version %d", fetches.Add(1))
	}))
	defer origin.Close()

	fake := clock.NewFake(time.Unix(0, 0))
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = 10 * time.Second
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	if body, _ := pageGet(t, ts.URL+"/p", nil); body != "version 1" {
		t.Fatalf("first fetch = %q", body)
	}
	fake.Advance(9 * time.Second)
	if body, state := pageGet(t, ts.URL+"/p", nil); state != "PAGE" || body != "version 1" {
		t.Fatalf("within TTL: %q, %s", body, state)
	}
	fake.Advance(2 * time.Second)
	if body, state := pageGet(t, ts.URL+"/p", nil); state == "PAGE" || body != "version 2" {
		t.Fatalf("past TTL: %q, %s — stale page served", body, state)
	}
}

// HEAD requests, POSTs, and GETs carrying a body skip the page tier: a
// request body is forwarded to the origin and can vary the response, but
// is not part of the page key.
func TestPageCacheOnlyBodylessGET(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "body for %q", b)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	pageGet(t, ts.URL+"/p", nil) // warm the page tier via GET
	resp, err := http.Head(ts.URL + "/p")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Cache") == "PAGE" {
		t.Fatal("HEAD served from the page tier")
	}
	// A GET carrying a body must neither be served from the tier nor
	// stored into it.
	bodied := func(body string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/search", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("X-Cache")
	}
	if got, _ := bodied("q=alice"); got != `body for "q=alice"` {
		t.Fatalf("alice got %q", got)
	}
	got, state := bodied("q=bob")
	if state == "PAGE" || got != `body for "q=bob"` {
		t.Fatalf("bob got %q (%s) — served alice's bodied-GET page", got, state)
	}
}

// The page key covers the forwarded variant headers, not just the URL:
// two anonymous clients differing in Accept-Language must not be served
// each other's variant.
func TestPageCacheKeysByVariantHeaders(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		fmt.Fprintf(w, "lang %s", r.Header.Get("Accept-Language"))
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	if body, _ := pageGet(t, ts.URL+"/p", map[string]string{"Accept-Language": "fr"}); body != "lang fr" {
		t.Fatalf("fr fetch = %q", body)
	}
	body, state := pageGet(t, ts.URL+"/p", map[string]string{"Accept-Language": "en"})
	if state == "PAGE" || body != "lang en" {
		t.Fatalf("en client got %q (%s) — served the fr variant", body, state)
	}
	if body, state := pageGet(t, ts.URL+"/p", map[string]string{"Accept-Language": "fr"}); state != "PAGE" || body != "lang fr" {
		t.Fatalf("fr revisit = %q (%s), want a PAGE hit on its own variant", body, state)
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("origin saw %d fetches, want 2 (one per variant)", got)
	}
}

// An identified visitor is looked up under the key an anonymous visitor
// sending its other headers is filed under — so a French identified visitor
// gets the French page.
func TestAnonymousPageKeyBlanksIdentityOnly(t *testing.T) {
	variant := map[string]string{"Accept": "text/html", "Accept-Language": "fr", "User-Agent": "ua/1", "X-Requested-With": "xhr"}
	anon := httptest.NewRequest(http.MethodGet, "/page/p?x=1", nil)
	identified := httptest.NewRequest(http.MethodGet, "/page/p?x=1", nil)
	for h, v := range variant {
		anon.Header.Set(h, v)
		identified.Header.Set(h, v)
	}
	for _, h := range pageIdentityHeaders {
		identified.Header.Set(h, "who")
	}
	key := anonymousPageKey(identified)
	if want := pageKey(anon); key != want {
		t.Fatalf("anonymousPageKey = %q, want the anonymous visitor's page key %q", key, want)
	}
	anon.Header.Set("Accept-Language", "en")
	if key == pageKey(anon) {
		t.Fatal("anonymousPageKey ignores a variant header")
	}
}

// Responses the origin marked uncacheable (no-store or Set-Cookie) must
// not enter the page tier, even for anonymous requests.
func TestPageCacheHonorsOriginUncacheable(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := fetches.Add(1)
		switch r.URL.Path {
		case "/nostore":
			w.Header().Set("Cache-Control", "no-store")
		case "/cookie":
			w.Header().Set("Set-Cookie", "csrf=tok")
		}
		fmt.Fprintf(w, "fresh %d", n)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	for _, path := range []string{"/nostore", "/cookie"} {
		pageGet(t, ts.URL+path, nil)
		if _, state := pageGet(t, ts.URL+path, nil); state == "PAGE" {
			t.Fatalf("%s revisit served from the page tier despite the origin forbidding caching", path)
		}
	}
	if got := p.Pages().Len(); got != 0 {
		t.Fatalf("page tier holds %d entries, want 0", got)
	}
	if got := p.Registry().Counter("dpc.pagecache_uncacheable").Value(); got != 4 {
		t.Fatalf("dpc.pagecache_uncacheable = %d, want 4", got)
	}
}

// A capture discarded mid-request (the request parked as a follower,
// then the leader aborted and it fell back to its own fetch) must never
// be filed: its buffer is empty and would poison the key with a 0-byte
// page for the whole TTL.
func TestFillPageCacheSkipsDiscardedCapture(t *testing.T) {
	p := newTestProxy(t, "http://127.0.0.1:0", func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	pc := &pageCapture{ResponseWriter: httptest.NewRecorder()}
	if _, err := pc.Write([]byte("page bytes")); err != nil {
		t.Fatal(err)
	}
	pc.discard()
	rs := &reqState{w: pc, fillKey: "/x\x00GET\x00", fillTTL: time.Minute, fillRule: rulePage, pageCapture: pc, cacheState: "MISS"}
	p.fillTier(rs)
	if got := p.Pages().Len(); got != 0 {
		t.Fatalf("discarded capture filed into the page tier (%d entries)", got)
	}
	if got := p.Registry().Counter("dpc.pagecache_fills").Value(); got != 0 {
		t.Fatalf("dpc.pagecache_fills = %d, want 0", got)
	}
}

// A no-store sent on a second Cache-Control header line must be seen.
func TestPageCacheableMultiValueCacheControl(t *testing.T) {
	h := http.Header{}
	h.Add("Cache-Control", "public")
	h.Add("Cache-Control", "no-store")
	if pageCacheable(h) {
		t.Fatal("no-store on the second Cache-Control line was ignored")
	}
	if !pageCacheable(http.Header{"Cache-Control": {"public, max-age=5"}}) {
		t.Fatal("plain public response rejected")
	}
}

// A statically cacheable anonymous response is filed once, under the
// origin's opt-in (its key and max-age), though the page rule admitted it
// too: the tier holds one entry, and the revisit says STATIC.
func TestPageCacheSkipsStaticallyCached(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=60")
		fmt.Fprint(w, "asset body")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	pageGet(t, ts.URL+"/asset.css", nil)
	if _, state := pageGet(t, ts.URL+"/asset.css", nil); state != "STATIC" {
		t.Fatalf("revisit state = %s, want static STATIC", state)
	}
	if got := p.Pages().Len(); got != 1 {
		t.Fatalf("tier holds %d entries, want 1 (the opt-in's, not a page duplicate)", got)
	}
}

// Distinct URLs get distinct page entries.
func TestPageCacheKeysByURI(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		fmt.Fprintf(w, "page %s", r.URL.RawQuery)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	pageGet(t, ts.URL+"/p?q=1", nil)
	pageGet(t, ts.URL+"/p?q=2", nil)
	if body, state := pageGet(t, ts.URL+"/p?q=1", nil); state != "PAGE" || body != "page q=1" {
		t.Fatalf("q=1 revisit: %q, %s", body, state)
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("origin saw %d fetches, want 2", got)
	}
}

// condGet issues a GET with an optional If-None-Match and returns the
// full response for status/header assertions.
func condGet(t *testing.T, url, inm string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// Tier entries are stamped with a strong ETag at fill time, under either
// admission rule; a revalidation with a matching If-None-Match — exact,
// weak (W/), in a list, or "*" — is answered 304 with zero body bytes. The
// inputs are an anonymous page (the page rule) and a max-age asset (the
// origin's opt-in).
func TestPageCacheConditional304(t *testing.T) {
	for _, tc := range []struct {
		name, path, state string
	}{
		{"page", "/p", "PAGE"},
		{"static", "/asset.css", "STATIC"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fetches atomic.Int64
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fetches.Add(1)
				if r.URL.Path == "/asset.css" {
					w.Header().Set("Cache-Control", "max-age=60")
				}
				fmt.Fprint(w, "<html>conditional page</html>")
			}))
			defer origin.Close()
			p := newTestProxy(t, origin.URL, func(c *Config) {
				c.PageCache = true
				c.PageCacheTTL = time.Minute
			})
			ts := httptest.NewServer(p)
			defer ts.Close()
			url := ts.URL + tc.path

			// Miss fills the tier; the hit replays the stored ETag.
			pageGet(t, url, nil)
			hit := condGet(t, url, "")
			etag := hit.Header.Get("ETag")
			if hit.Header.Get("X-Cache") != tc.state || etag == "" {
				t.Fatalf("hit: X-Cache=%q ETag=%q", hit.Header.Get("X-Cache"), etag)
			}
			if !strings.HasPrefix(etag, `"`) || strings.HasPrefix(etag, "W/") {
				t.Fatalf("stored ETag %q is not strong", etag)
			}

			for name, inm := range map[string]string{
				"exact":    etag,
				"weak":     "W/" + etag,
				"multiple": `"bogus", ` + etag + `, "other"`,
				"star":     "*",
			} {
				resp := condGet(t, url, inm)
				if resp.StatusCode != http.StatusNotModified {
					t.Fatalf("%s If-None-Match: status = %d, want 304", name, resp.StatusCode)
				}
				b, _ := io.ReadAll(resp.Body)
				if len(b) != 0 {
					t.Fatalf("%s 304 carried %d body bytes", name, len(b))
				}
				if resp.Header.Get("ETag") != etag {
					t.Fatalf("%s 304 ETag = %q, want %q", name, resp.Header.Get("ETag"), etag)
				}
				if resp.Header.Get("X-Cache") != tc.state {
					t.Fatalf("%s 304 X-Cache = %q", name, resp.Header.Get("X-Cache"))
				}
			}
			// A non-matching validator gets the full body.
			resp := condGet(t, url, `"deadbeef"`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("non-matching If-None-Match: status = %d", resp.StatusCode)
			}
			if b, _ := io.ReadAll(resp.Body); string(b) != "<html>conditional page</html>" {
				t.Fatalf("non-matching body = %q", b)
			}
			if got := fetches.Load(); got != 1 {
				t.Fatalf("origin saw %d fetches — conditional hits must not refetch", got)
			}
			if got := p.Registry().Counter("dpc.pagecache_304s").Value(); got != 4 {
				t.Fatalf("dpc.pagecache_304s = %d, want 4", got)
			}
			// Every 304 is still a served response.
			if got := p.Registry().Counter("dpc.requests").Value(); got != 7 {
				t.Fatalf("dpc.requests = %d, want 7", got)
			}
		})
	}
}

// An If-None-Match on a page-tier *miss* must not 304: the proxy holds no
// entry to validate against, so the full response is served (and filed).
func TestPageCacheConditionalMissServesBody(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "body")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp := condGet(t, ts.URL+"/p", `"anything"`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d on a page-tier miss", resp.StatusCode)
	}
	if b, _ := io.ReadAll(resp.Body); string(b) != "body" {
		t.Fatalf("body = %q", b)
	}
	if got := p.Registry().Counter("dpc.pagecache_304s").Value(); got != 0 {
		t.Fatalf("dpc.pagecache_304s = %d on a miss", got)
	}
}

// A fill stores its entry with the record it was built from: the epoch its
// capture began under and exactly the refs that flowed into the page.
func TestFillStoresItsRecord(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Set(7, 3, []byte("fragment A"))
		_ = enc.Set(9, 4, []byte("fragment B"))
		_ = enc.Literal([]byte("</html>"))
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFlush, Scope: "page"}) // epoch 1
	serveGet(p, "/page/x")
	pg, ok := p.Pages().Lookup(pageKey(httptest.NewRequest(http.MethodGet, "/page/x", nil)), pagecache.Fresh)
	if want := packRecord(1, 0, []StaleRef{{Key: 7, Gen: 3}, {Key: 9, Gen: 4}}); !ok || pg.Record != want {
		t.Fatalf("filed record %x (resident %v), want %x", pg.Record, ok, want)
	}
	// An event on another generation leaves the page served from the tier.
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 9, Gen: 3})
	if state := serveGet(p, "/page/x").Header().Get("X-Cache"); state != "PAGE" {
		t.Fatalf("after an unrelated event X-Cache = %q, want PAGE", state)
	}
}

// A refused fill says what refused it, down to why the tier was flushed:
// the note on the request's `invalidated` span event. A dead generation is
// refused however long after its event the fill comes: the floor never
// expires.
func TestRefusedFillNamesItsCause(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageCache = true
		c.Clock = fake
		c.Trace = true
		c.TraceSampleEvery = 1
	})
	// file fills the tier through fillTier under one traced request and
	// returns the cause on its `invalidated` event ("" if none) and whether
	// the entry is resident.
	file := func(epoch uint64, refs ...StaleRef) (voided string, put bool) {
		t.Helper()
		p.Pages().Flush()
		root := p.Tracer().StartRequest("GET /page", "")
		fillCaptured(p, root, "page-key", "page", epoch, refs...)
		root.Finish()
		for _, e := range p.Tracer().Traces(0)[0].Root.Events {
			if e.Kind == trace.KindInvalidated {
				voided = e.Note
			}
		}
		_, put = p.Pages().Lookup("page-key", pagecache.Fresh)
		return voided, put
	}
	a, b := StaleRef{Key: 7, Gen: 3}, StaleRef{Key: 9, Gen: 4}

	epoch := p.fabric.epoch.Load()
	if voided, put := file(epoch, a, b); voided != "" || !put {
		t.Fatalf("clean fill: voided=%q put=%v", voided, put)
	}
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: b.Key, Gen: b.Gen})
	if voided, put := file(epoch, a, b); voided != "fragment-floor" || put {
		t.Fatalf("fill over a dead generation: voided=%q put=%v", voided, put)
	}

	// The slow fill: its response reached the client minutes after the
	// event.
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: a.Key, Gen: a.Gen})
	fake.Advance(2*time.Minute + time.Second)
	if voided, put := file(epoch, a); voided != "fragment-floor" || put {
		t.Fatalf("slow fill over a dead generation: voided=%q put=%v", voided, put)
	}

	p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFlush, Scope: "page"})
	if voided, put := file(epoch); voided != "epoch-flush:event" || put {
		t.Fatalf("fill across a flush event: voided=%q put=%v", voided, put)
	}
	p.Apply(coherency.Event{Seq: 5, Kind: coherency.KindPurge, URI: "/elsewhere"}) // 4 lost
	if voided, put := file(epoch + 1); voided != "epoch-flush:gap" || put {
		t.Fatalf("fill across a gap: voided=%q put=%v", voided, put)
	}
	if n := p.Registry().Counter("dpc.pagecache_invalidations").Value(); n != 4 {
		t.Fatalf("dpc.pagecache_invalidations = %d, want the 4 refused fills", n)
	}
}

// A dead entry is never served, on any read path: not by the pagecache
// stage's probe, not by admission's stale probe under pressure, and not as
// a 304 to a client holding its ETag. The first read that finds it deletes
// it and counts it. An entry is dead when one of its fragments' events has
// been applied, or when it was filed under an epoch a gap ended: the gap
// flushes the tier, so the entry is put back as a fill that passed its
// check before the gap and landed after the flush would have filed it.
func TestDeadPageNeverServedOnAnyReadPath(t *testing.T) {
	// Each kill returns fragment 9's generation from then on: the page's
	// refetch is built from a live one.
	kills := map[string]func(p *Proxy) uint32{
		"fragment": func(p *Proxy) uint32 {
			p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 9, Gen: 4})
			return 5
		},
		"gap": func(p *Proxy) uint32 {
			p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/elsewhere"})
			p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindPurge, URI: "/elsewhere"}) // 2 lost
			return 4
		},
	}
	paths := map[string]func(t *testing.T, p *Proxy, fake *clock.Fake, etag string) *httptest.ResponseRecorder{
		"probe": func(t *testing.T, p *Proxy, _ *clock.Fake, _ string) *httptest.ResponseRecorder {
			return serveGet(p, "/page/x")
		},
		"stale-probe": func(t *testing.T, p *Proxy, fake *clock.Fake, _ string) *httptest.ResponseRecorder {
			fake.Advance(2 * time.Second) // past the TTL, inside the stale window
			defer p.admit.acquire("")()   // the origin bound is taken
			return serveGet(p, "/page/x")
		},
		"if-none-match": func(t *testing.T, p *Proxy, _ *clock.Fake, etag string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/page/x", nil)
			req.Header.Set("If-None-Match", etag)
			p.ServeHTTP(rec, req)
			return rec
		},
	}
	for kill, apply := range kills {
		for path, read := range paths {
			t.Run(kill+"/"+path, func(t *testing.T) {
				var gen atomic.Uint32
				gen.Store(4)
				fake := clock.NewFake(time.Unix(1_700_000_000, 0))
				p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
					c.Admission = true
					c.MaxOriginInFlight = 1
					c.PageCache = true
					c.PageCacheTTL = time.Second
					c.Clock = fake
					c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
						page := templateBody(t, func(enc tmpl.Encoder) {
							_ = enc.Literal([]byte("<html>"))
							_ = enc.Set(7, 3, []byte("fragment A"))
							_ = enc.Set(9, gen.Load(), []byte("fragment B"))
							_ = enc.Literal([]byte("</html>"))
						})
						return &http.Response{
							StatusCode: http.StatusOK, ContentLength: int64(len(page)), Request: r,
							Body: io.NopCloser(bytes.NewReader(page)), Header: http.Header{"X-Dpc-Template": {"binary"}},
						}, nil
					})
				})
				key := pageKey(httptest.NewRequest(http.MethodGet, "/page/x", nil))
				if rec := serveGet(p, "/page/x"); rec.Body.String() != "<html>fragment Afragment B</html>" {
					t.Fatalf("first fetch: %q", rec.Body)
				}
				filed, ok := p.Pages().Lookup(key, pagecache.Fresh)
				if !ok {
					t.Fatal("test setup: the page was not filed")
				}
				gen.Store(apply(p))
				// The late fill, or the entry Apply left where it was.
				p.Pages().PutTagged(key, filed.Body, filed.ContentType, filed.ETag, filed.Record, time.Second)

				rec := read(t, p, fake, filed.ETag)
				if state := rec.Header().Get("X-Cache"); rec.Code == http.StatusNotModified || state == "PAGE" || state == "STALE" {
					t.Fatalf("the dead entry was served: %d, X-Cache %q", rec.Code, state)
				}
				if n := p.Registry().Counter("dpc.pagecache_invalidations").Value(); n != 1 {
					t.Fatalf("dpc.pagecache_invalidations = %d, want 1", n)
				}
				if pg, ok := p.Pages().Lookup(key, pagecache.Stale); ok && pg.Record == filed.Record {
					t.Fatal("the dead entry is still resident after its first read")
				}
			})
		}
	}
}

// In-flight capture bytes are charged against the page tier's byte
// ledger: a capture storm must evict resident pages, never let
// resident + in-flight exceed the budget, and must settle its
// reservation on every terminal path.
func TestPageCaptureAccountedAgainstBudget(t *testing.T) {
	big := strings.Repeat("x", 700)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
		c.PageCacheBudget = 1024
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	pageGet(t, ts.URL+"/a", nil) // resident: ~700 bytes
	if p.Pages().Len() != 1 {
		t.Fatalf("warm page not resident")
	}
	// A second page's capture reserves ~700 in-flight bytes: the resident
	// page must be evicted to keep the ledger under budget, and after the
	// fill the reservation must be fully released.
	pageGet(t, ts.URL+"/b", nil)
	if used := p.Pages().Store().BudgetUsed(); used > 1024 {
		t.Fatalf("ledger settled at %d, over the 1024 budget", used)
	}
	if bytes, used := p.Pages().Bytes(), p.Pages().Store().BudgetUsed(); bytes != used {
		t.Fatalf("unsettled capture reservation: resident=%d ledger=%d", bytes, used)
	}
}

// Fills under both admission rules race fragment invalidations and scoped
// flushes (run under -race in CI): the tee attached lazily for an opted-in
// response, the page rule's tee retargeted to the opt-in key, and settled
// captures against Apply's floors and epoch bumps. Every
// response must be whole, and once the storm passes the tier's ledger must
// hold exactly its resident bytes.
func TestPageCacheConcurrentFillsAndFlushes(t *testing.T) {
	const frags = 4
	var gens [frags]atomic.Uint32
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
		c.PageCacheBudget = 1 << 20
		c.Coalesce = true
		c.Stream = true
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			kind, idx, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
			h := http.Header{"Content-Type": {"text/html"}}
			var body []byte
			switch kind {
			case "asset":
				h.Set("Cache-Control", "max-age=60")
				body = []byte("asset " + idx)
			default: // "opt" (opted in) or "page"
				if kind == "opt" {
					h.Set("Cache-Control", "max-age=60")
				}
				h.Set("X-DPC-Template", "binary")
				k := uint32(len(idx)+int(idx[0])) % frags
				body = templateBody(t, func(enc tmpl.Encoder) {
					_ = enc.Literal([]byte("<" + idx + ">"))
					_ = enc.Set(k, gens[k].Load(), []byte(fmt.Sprintf("frag %d", k)))
					_ = enc.Literal([]byte("</" + idx + ">"))
				})
			}
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: h,
			}, nil
		})
	})
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-done:
				return
			default:
			}
			switch seq % 8 {
			case 3:
				p.Apply(coherency.Event{Seq: seq, Kind: coherency.KindFlush, Scope: []string{"page", "static"}[seq/8%2]})
			case 5:
				p.Apply(coherency.Event{Seq: seq, Kind: coherency.KindPurge, URI: "/opt/1"})
			default:
				k := uint32(seq % frags)
				old := gens[k].Add(1) - 1
				p.Apply(coherency.Event{Seq: seq, Kind: coherency.KindFragment, Key: k, Gen: old})
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 150; i++ {
				kind := []string{"asset", "opt", "page"}[(i+c)%3]
				path := fmt.Sprintf("/%s/%d", kind, i%3)
				rec := serveGet(p, path)
				want := fmt.Sprintf("<%d>frag %d</%d>", i%3, uint32(1+'0'+i%3)%frags, i%3)
				if kind == "asset" {
					want = fmt.Sprintf("asset %d", i%3)
				}
				if rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("%s: %d %q, want %q", path, rec.Code, rec.Body, want)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(done)
	writer.Wait()
	if bytes, used := p.Pages().Bytes(), p.Pages().Store().BudgetUsed(); bytes != used {
		t.Fatalf("unsettled capture reservations: resident=%d ledger=%d", bytes, used)
	}
}
