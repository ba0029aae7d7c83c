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
	"dpcache/internal/coherency"
	"dpcache/internal/depindex"
	"dpcache/internal/tmpl"
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

// Identity-bearing requests must bypass the whole-page tier entirely —
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
		c.PageClock = fake
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
	rs := &reqState{w: pc, pageKey: "GET\x00/x", pageCapture: pc, cacheState: "MISS"}
	p.fillPageCache(rs)
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

// A statically cacheable anonymous response is filed once, in the static
// tier; the page tier must not duplicate the bytes.
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
	if got := p.Pages().Len(); got != 0 {
		t.Fatalf("page tier duplicated a statically cached body (%d entries)", got)
	}
	if got := p.Static().Len(); got != 1 {
		t.Fatalf("static tier holds %d entries, want 1", got)
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

// Page-tier entries are stamped with a strong ETag at capture time; an
// anonymous revalidation with a matching If-None-Match — exact, weak
// (W/), in a list, or "*" — is answered 304 with zero body bytes.
func TestPageCacheConditional304(t *testing.T) {
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		fmt.Fprint(w, "<html>conditional page</html>")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.PageCache = true
		c.PageCacheTTL = time.Minute
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Miss fills the tier; the hit replays the stored ETag.
	pageGet(t, ts.URL+"/p", nil)
	hit := condGet(t, ts.URL+"/p", "")
	etag := hit.Header.Get("ETag")
	if hit.Header.Get("X-Cache") != "PAGE" || etag == "" {
		t.Fatalf("page hit: X-Cache=%q ETag=%q", hit.Header.Get("X-Cache"), etag)
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
		resp := condGet(t, ts.URL+"/p", inm)
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
		if resp.Header.Get("X-Cache") != "PAGE" {
			t.Fatalf("%s 304 X-Cache = %q", name, resp.Header.Get("X-Cache"))
		}
	}
	// A non-matching validator gets the full body.
	resp := condGet(t, ts.URL+"/p", `"deadbeef"`)
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

// Two pages sharing a fragment: invalidating the fragment (simulated
// through the dependency index + a page subscriber is exercised in the
// coherency and core tests; here the proxy-side fill must record edges
// for exactly the refs that flowed into the page).
func TestFillRecordsDependencyEdges(t *testing.T) {
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
	ts := httptest.NewServer(p)
	defer ts.Close()

	pageGet(t, ts.URL+"/page/x", nil)
	if p.Pages().Len() != 1 {
		t.Fatalf("page tier holds %d entries", p.Pages().Len())
	}
	for _, ref := range []depindex.ID{depindex.MakeID(7, 3), depindex.MakeID(9, 4)} {
		keys, exact := p.DepIndex().Lookup(ref)
		if !exact || len(keys) != 1 {
			t.Fatalf("Lookup(%d) = %v, exact=%v", ref, keys, exact)
		}
		if !p.Pages().Delete(keys[0]) && p.Pages().Len() != 0 {
			t.Fatalf("recorded key %q does not address the page entry", keys[0])
		}
	}
	if keys, exact := p.DepIndex().Lookup(depindex.MakeID(1, 1)); !exact || len(keys) != 0 {
		t.Fatalf("unrelated ref has dependents: %v exact=%v", keys, exact)
	}
}

// A refused fill says what refused it, down to why the tier was flushed:
// the note on the request's `invalidated` span event.
func TestRefusedFillNamesItsCause(t *testing.T) {
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) { c.PageCache = true })
	ix := p.DepIndex()
	refs := []StaleRef{{Key: 7, Gen: 3}, {Key: 9, Gen: 4}}
	file := func(epoch uint64) (voided string, put bool) {
		voided = p.fileUnlessVoided(refs, epoch, "page-key", time.Minute, func() { put = true })
		return voided, put
	}

	epoch := ix.Epoch()
	if voided, put := file(epoch); voided != "" || !put {
		t.Fatalf("clean fill: voided=%q put=%v", voided, put)
	}
	if keys, _ := ix.Lookup(depindex.MakeID(9, 4)); len(keys) != 1 || keys[0] != "page-key" {
		t.Fatalf("clean fill left edges %v", keys)
	}

	ix.MarkInvalid(depindex.MakeID(9, 4))
	if voided, put := file(epoch); voided != "fragment-tombstone" || put {
		t.Fatalf("fill over a tombstone: voided=%q put=%v", voided, put)
	}

	ix.BumpEpoch(coherency.FlushFallback)
	if voided, put := file(epoch); voided != "epoch-flush:index-inexact" || put {
		t.Fatalf("fill across a fallback flush: voided=%q put=%v", voided, put)
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
