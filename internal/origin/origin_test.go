package origin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/dpc"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
)

func testRepo() *repository.Repo {
	r := repository.New(repository.LatencyModel{})
	r.Put(repository.Key{Table: "cat", Row: "fiction"}, map[string]string{"title": "Fiction"})
	r.Put(repository.Key{Table: "users", Row: "bob"}, map[string]string{"name": "Bob"})
	return r
}

func catalogScript() *script.Script {
	return &script.Script{
		Name: "catalog",
		Layout: func(ctx *script.Context) []script.Block {
			blocks := []script.Block{script.Static("head", "<html>")}
			if !ctx.Anonymous() {
				blocks = append(blocks, script.Tagged("greet", 0,
					func(c *script.Context) string { return c.UserID },
					func(c *script.Context, w io.Writer) error {
						_, err := fmt.Fprintf(w, "Hello, %s!", c.Field("users", c.UserID, "name", c.UserID))
						return err
					}))
			}
			blocks = append(blocks,
				script.Tagged("cat", time.Minute,
					func(c *script.Context) string { return c.Param("categoryID", "none") },
					func(c *script.Context, w io.Writer) error {
						_, err := fmt.Fprintf(w, "[%s]", c.Field("cat", c.Param("categoryID", "none"), "title", "?"))
						return err
					}),
				script.Static("tail", "</html>"))
			return blocks
		},
	}
}

func newOrigin(t *testing.T, mon *bem.Monitor) *Server {
	t.Helper()
	srv, err := New(Config{Repo: testRepo(), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	return srv
}

func get(t *testing.T, url string, headers map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestNewRequiresRepo(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil repo accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := newOrigin(t, nil)
	if err := srv.Register(&script.Script{}); err == nil {
		t.Fatal("nameless script accepted")
	}
	if err := srv.Register(catalogScript()); err == nil {
		t.Fatal("duplicate script accepted")
	}
	if len(srv.Scripts()) != 1 {
		t.Fatalf("Scripts() = %v", srv.Scripts())
	}
}

func TestPlainPageWithoutMonitor(t *testing.T) {
	ts := httptest.NewServer(newOrigin(t, nil))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/page/catalog?categoryID=fiction", map[string]string{HeaderUser: "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderTemplate) != "" {
		t.Fatal("no-monitor server emitted a template")
	}
	if body != "<html>Hello, Bob![Fiction]</html>" {
		t.Fatalf("body = %q", body)
	}
}

func TestDirectClientGetsPlainPageEvenWithMonitor(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	ts := httptest.NewServer(newOrigin(t, mon))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/page/catalog?categoryID=fiction", nil)
	if resp.Header.Get(HeaderTemplate) != "" {
		t.Fatal("non-capable client received a template")
	}
	if body != "<html>[Fiction]</html>" {
		t.Fatalf("body = %q", body)
	}
}

func TestCapableClientGetsTemplate(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	ts := httptest.NewServer(newOrigin(t, mon))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/page/catalog?categoryID=fiction",
		map[string]string{HeaderCapable: "1"})
	if got := resp.Header.Get(HeaderTemplate); got != "binary" {
		t.Fatalf("template header = %q", got)
	}
	if !strings.Contains(body, "[Fiction]") {
		t.Fatalf("first template should carry SET content inline: %q", body)
	}
}

func TestBypassForcesPlainPage(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	ts := httptest.NewServer(newOrigin(t, mon))
	defer ts.Close()
	resp, body := get(t, ts.URL+"/page/catalog?categoryID=fiction",
		map[string]string{HeaderCapable: "1", HeaderBypass: "1"})
	if resp.Header.Get(HeaderTemplate) != "" {
		t.Fatal("bypass request received a template")
	}
	if body != "<html>[Fiction]</html>" {
		t.Fatalf("body = %q", body)
	}
}

func TestSecondTemplateShrinks(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	ts := httptest.NewServer(newOrigin(t, mon))
	defer ts.Close()
	url := ts.URL + "/page/catalog?categoryID=fiction"
	_, first := get(t, url, map[string]string{HeaderCapable: "1"})
	_, second := get(t, url, map[string]string{HeaderCapable: "1"})
	if len(second) >= len(first) {
		t.Fatalf("second template (%dB) not smaller than first (%dB)", len(second), len(first))
	}
	if strings.Contains(second, "[Fiction]") {
		t.Fatal("second template still carries fragment content")
	}
}

func TestUnknownPage404(t *testing.T) {
	ts := httptest.NewServer(newOrigin(t, nil))
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/page/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(newOrigin(t, nil))
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// End-to-end: origin + DPC proxy. The page assembled by the proxy must be
// byte-identical to the plain page, for every user and hit/miss state —
// the central correctness property.
func TestEndToEndAssemblyIdentity(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 32})
	originSrv := newOrigin(t, mon)
	originTS := httptest.NewServer(originSrv)
	defer originTS.Close()

	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 32, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	plainSrv := newOrigin(t, nil) // reference no-cache server (fresh repo, same content)
	plainTS := httptest.NewServer(plainSrv)
	defer plainTS.Close()

	cases := []struct {
		user string
		url  string
	}{
		{"bob", "/page/catalog?categoryID=fiction"},
		{"", "/page/catalog?categoryID=fiction"},
		{"bob", "/page/catalog?categoryID=fiction"}, // warm
		{"", "/page/catalog?categoryID=fiction"},    // warm
	}
	for i, c := range cases {
		hdr := map[string]string{}
		if c.user != "" {
			hdr[HeaderUser] = c.user
		}
		_, viaProxy := get(t, proxyTS.URL+c.url, hdr)
		_, plain := get(t, plainTS.URL+c.url, hdr)
		if viaProxy != plain {
			t.Fatalf("case %d (user=%q): proxy page %q != plain page %q", i, c.user, viaProxy, plain)
		}
	}
}

// Bob/Alice from Section 3.2.1: Alice (anonymous) must never receive Bob's
// greeting even though both use the same URL through the same proxy.
func TestBobAliceCorrectness(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 32})
	originTS := httptest.NewServer(newOrigin(t, mon))
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 32, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	url := proxyTS.URL + "/page/catalog?categoryID=fiction"
	_, bobPage := get(t, url, map[string]string{HeaderUser: "bob"})
	if !strings.Contains(bobPage, "Hello, Bob!") {
		t.Fatalf("bob page missing greeting: %q", bobPage)
	}
	_, alicePage := get(t, url, nil)
	if strings.Contains(alicePage, "Hello") {
		t.Fatalf("alice received bob's greeting: %q", alicePage)
	}
}

// After a data update invalidates a fragment, the next page through the
// proxy must carry fresh content.
func TestInvalidationFreshness(t *testing.T) {
	repo := testRepo()
	mon, _ := bem.New(bem.Config{Capacity: 32})
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 32, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	url := proxyTS.URL + "/page/catalog?categoryID=fiction"
	_, page1 := get(t, url, nil)
	if !strings.Contains(page1, "[Fiction]") {
		t.Fatalf("page1 = %q", page1)
	}
	_, _ = get(t, url, nil) // warm: served from cache

	repo.Put(repository.Key{Table: "cat", Row: "fiction"}, map[string]string{"title": "New Fiction"})
	_, page3 := get(t, url, nil)
	if !strings.Contains(page3, "[New Fiction]") {
		t.Fatalf("stale content after update: %q", page3)
	}
}

// A proxy whose store was wiped (e.g. restarted) recovers via the bypass
// fallback instead of failing, in strict mode.
func TestStaleSlotFallback(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 32})
	originTS := httptest.NewServer(newOrigin(t, mon))
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 32, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	url := proxyTS.URL + "/page/catalog?categoryID=fiction"
	_, _ = get(t, url, nil) // populates BEM directory + proxy store
	proxy.Store().Drop(0)   // simulate proxy restart losing a slot
	proxy.Store().Drop(1)
	_, page := get(t, url, nil)
	if !strings.Contains(page, "[Fiction]") {
		t.Fatalf("fallback page wrong: %q", page)
	}
	fallbacks := proxy.Registry().Counter("dpc.stale_fallbacks").Value()
	if fallbacks == 0 {
		t.Fatal("fallback path not exercised")
	}
	// The stale report must have invalidated the wedged fragments, so
	// the next request re-SETs them and later requests hit cleanly: no
	// permanent fallback loop.
	_, _ = get(t, url, nil) // carries SETs, repopulates the store
	_, _ = get(t, url, nil) // must assemble from cache
	if got := proxy.Registry().Counter("dpc.stale_fallbacks").Value(); got != fallbacks {
		t.Fatalf("fallbacks kept growing after recovery: %d → %d", fallbacks, got)
	}
}

func TestCodecMismatchRejected(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	srv, err := New(Config{Repo: testRepo(), Monitor: mon, Codec: tmpl.Text{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 8, Codec: tmpl.Binary{}})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()
	resp, _ := get(t, proxyTS.URL+"/page/catalog", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 on codec mismatch", resp.StatusCode)
	}
}

// Text codec end-to-end (both sides configured for it).
func TestEndToEndTextCodec(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 8})
	srv, err := New(Config{Repo: testRepo(), Monitor: mon, Codec: tmpl.Text{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 8, Codec: tmpl.Text{}, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()
	for i := 0; i < 2; i++ {
		_, page := get(t, proxyTS.URL+"/page/catalog?categoryID=fiction", nil)
		if page != "<html>[Fiction]</html>" {
			t.Fatalf("iteration %d: page = %q", i, page)
		}
	}
}

// Static assets marked cacheable must be served from the proxy's static
// cache after the first fetch — the origin sees exactly one request.
func TestStaticContentCachedAtProxy(t *testing.T) {
	srv := newOrigin(t, nil)
	if err := srv.RegisterStatic("logo.png", "image/png", []byte("PNGDATA"), time.Hour); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	for i := 0; i < 3; i++ {
		resp, body := get(t, proxyTS.URL+"/static/logo.png", nil)
		if body != "PNGDATA" {
			t.Fatalf("body = %q", body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
			t.Fatalf("content type = %q", ct)
		}
		wantCache := "MISS"
		if i > 0 {
			wantCache = "STATIC"
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Fatalf("request %d: X-Cache = %q, want %q", i, got, wantCache)
		}
	}
	reg := srv.reg
	if got := reg.Counter("origin.static_requests").Value(); got != 1 {
		t.Fatalf("origin saw %d static requests, want 1", got)
	}
}

// No-store assets must never be cached by URL.
func TestStaticNoStoreNotCached(t *testing.T) {
	srv := newOrigin(t, nil)
	if err := srv.RegisterStatic("volatile.json", "application/json", []byte("{}"), 0); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()
	for i := 0; i < 2; i++ {
		resp, _ := get(t, proxyTS.URL+"/static/volatile.json", nil)
		if resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("request %d cached a no-store asset", i)
		}
	}
	if got := srv.reg.Counter("origin.static_requests").Value(); got != 2 {
		t.Fatalf("origin saw %d requests, want 2", got)
	}
}

// Dynamic pages must NEVER be served from the URL-keyed static cache —
// that is exactly the incorrect-page failure of Section 3.2.1.
func TestDynamicPagesNeverURLCached(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	originTS := httptest.NewServer(newOrigin(t, mon))
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 16, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	url := proxyTS.URL + "/page/catalog?categoryID=fiction"
	_, bobPage := get(t, url, map[string]string{HeaderUser: "bob"})
	if !strings.Contains(bobPage, "Hello, Bob!") {
		t.Fatal("bob page missing greeting")
	}
	// Alice, same URL: a URL-keyed cache would replay Bob's page.
	_, alicePage := get(t, url, nil)
	if strings.Contains(alicePage, "Hello") {
		t.Fatalf("dynamic page leaked through URL cache: %q", alicePage)
	}
	if proxy.Static().Len() != 0 {
		t.Fatal("dynamic response entered the static cache")
	}
}

func TestRegisterStaticValidation(t *testing.T) {
	srv := newOrigin(t, nil)
	if err := srv.RegisterStatic("", "t", nil, time.Hour); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := srv.RegisterStatic("a", "t", nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterStatic("a", "t", nil, time.Hour); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestStatsEndpoints(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	originTS := httptest.NewServer(newOrigin(t, mon))
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	_, _ = get(t, proxyTS.URL+"/page/catalog?categoryID=fiction", nil)

	resp, body := get(t, originTS.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("origin stats: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var originStats map[string]any
	if err := json.Unmarshal([]byte(body), &originStats); err != nil {
		t.Fatal(err)
	}
	bemStats, ok := originStats["bem"].(map[string]any)
	if !ok || bemStats["lookups"].(float64) == 0 {
		t.Fatalf("origin stats missing bem data: %v", originStats)
	}
	rt, ok := originStats["runtime"].(map[string]any)
	if !ok || rt["total_alloc_bytes"].(float64) == 0 || rt["mallocs"].(float64) == 0 || rt["heap_alloc_bytes"].(float64) == 0 {
		t.Fatalf("origin stats missing runtime counters: %v", originStats["runtime"])
	}
	for _, k := range []string{"num_gc", "gc_cpu_fraction"} {
		if _, ok := rt[k].(float64); !ok {
			t.Fatalf("origin stats runtime section lacks %s: %v", k, rt)
		}
	}

	resp, body = get(t, proxyTS.URL+"/_dpc/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy stats status %d", resp.StatusCode)
	}
	var proxyStats map[string]any
	if err := json.Unmarshal([]byte(body), &proxyStats); err != nil {
		t.Fatal(err)
	}
	if proxyStats["slots_resident"].(float64) == 0 {
		t.Fatalf("proxy stats show empty store after a request: %v", proxyStats)
	}
	if _, ok := proxyStats["static"]; !ok {
		t.Fatal("proxy stats missing static cache section")
	}
}

// flakyScript is a page whose one tagged block fails its first failures
// renders and succeeds from then on.
func flakyScript(failures int32) *script.Script {
	var left atomic.Int32
	left.Store(failures)
	return &script.Script{
		Name: "flaky",
		Layout: func(*script.Context) []script.Block {
			return []script.Block{
				script.Static("head", "<html>"),
				script.Tagged("flaky", 0, nil, func(_ *script.Context, w io.Writer) error {
					if left.Add(-1) >= 0 {
						return errors.New("backend down")
					}
					_, err := io.WriteString(w, "[ok]")
					return err
				}),
				script.Static("tail", "</html>"),
			}
		},
	}
}

// A miss makes the directory entry valid before the fragment is rendered.
// When the render fails the page is a 500 and no SET goes out, so the entry
// must not stay valid: the next template would carry a GET the proxy cannot
// satisfy, and the page would cost a stale bypass before the report heals it.
func TestFailedRenderLeavesNoDoomedGet(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	srv, err := New(Config{Repo: testRepo(), Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(flakyScript(1)); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(srv)
	defer originTS.Close()
	proxy, err := dpc.New(dpc.Config{OriginURL: originTS.URL, Capacity: 16, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(proxy)
	defer proxyTS.Close()

	resp, _ := get(t, originTS.URL+"/page/flaky", map[string]string{HeaderCapable: "1"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed render answered %d", resp.StatusCode)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	resp, page := get(t, proxyTS.URL+"/page/flaky", nil)
	if resp.StatusCode != http.StatusOK || page != "<html>[ok]</html>" {
		t.Fatalf("page after the failure: %d %q", resp.StatusCode, page)
	}
	if st := mon.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("bem hits=%d misses=%d: the second template carried a GET for a fragment never SET", st.Hits, st.Misses)
	}
	if n := proxy.Registry().Counter("dpc.stale_fallbacks").Value(); n != 0 {
		t.Fatalf("%d stale fallbacks: the proxy was sent a GET it could not satisfy", n)
	}
}

// failingSetEncoder is an encoder whose SETs fail, as one writing to a
// broken pipe would.
type failingSetEncoder struct{ tmpl.Encoder }

func (failingSetEncoder) Set(uint32, uint32, []byte) error { return errors.New("pipe closed") }

// A SET that cannot be written takes its directory entry with it too.
func TestFailedSetInvalidatesEntry(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	var buf bytes.Buffer
	sink := &bemSink{enc: failingSetEncoder{tmpl.Binary{}.NewEncoder(&buf)}, mon: mon}
	ctx := script.NewContext(testRepo(), "", nil)
	if err := script.Run(flakyScript(0), ctx, sink); err == nil {
		t.Fatal("run succeeded over an encoder that cannot SET")
	}
	if st := mon.Stats(); st.ValidFragments != 0 {
		t.Fatalf("%d fragments valid after the only SET failed", st.ValidFragments)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// queryParams keeps what url.ParseQuery keeps, first value per key.
func TestQueryParamsMatchesParseQuery(t *testing.T) {
	for _, q := range []string{
		"", "page=1", "page=1&page=2", "a=1&b=2&a=3", "page", "page=", "=v", "&&a=1&&", "a=b=c",
		"a=1;b=2", "a=1&b=2;c=3&d=4", "a=%31%32&%62=x", "a=%zz&b=1", "%zz=1&b=2", "a=x+y&b+c=d",
		"categoryID=Nope+such%20thing", "a=%", "a=1&a=%zz",
	} {
		want := map[string]string{}
		parsed, _ := url.ParseQuery(q)
		for k, vs := range parsed {
			want[k] = vs[0]
		}
		got := queryParams(q)
		if len(got) != len(want) {
			t.Errorf("query %q: got %v, url.ParseQuery keeps %v", q, got, want)
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Errorf("query %q: got %v, url.ParseQuery keeps %v", q, got, want)
			}
		}
	}
}

// The response buffer, the run's render buffer and the synthetic site's
// block lists are shared between requests through pools and a table. Many
// requests at once, templates and plain pages of different pages mixed,
// each get their own page and nothing of another's (run under -race).
func TestConcurrentFetchesShareNoBytes(t *testing.T) {
	cfg := site.SyntheticConfig{Pages: 8, FragmentsPerPage: 16, FragmentBytes: 1024, Cacheability: 0.75}
	repo := repository.New(repository.LatencyModel{})
	mon, _ := bem.New(bem.Config{Capacity: 256})
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}
	// The reference pages come from a server of their own, one at a time.
	want := make([]string, cfg.Pages)
	for p := range want {
		ref := repository.New(repository.LatencyModel{})
		refScript, _, _ := site.BuildSynthetic(cfg, ref)
		body, err := script.RenderPage(refScript, script.NewContext(ref, "", map[string]string{"page": fmt.Sprint(p)}))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = string(body)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := (g*3 + i) % cfg.Pages
				req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/page/synth?page=%d", p), nil)
				asTemplate := (g+i)%2 == 0
				if asTemplate {
					req.Header.Set(HeaderCapable, "1")
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("page %d: status %d", p, rec.Code)
					return
				}
				if !asTemplate {
					if rec.Body.String() != want[p] {
						t.Errorf("page %d: plain page differs from the reference", p)
						return
					}
					continue
				}
				// A template's literals and SETs are pieces of its own page, in order.
				ins, err := tmpl.DecodeAll(tmpl.Binary{}, rec.Body)
				if err != nil {
					t.Errorf("page %d: %v", p, err)
					return
				}
				rest := want[p]
				for _, in := range ins {
					if in.Op == tmpl.OpGet {
						continue
					}
					at := strings.Index(rest, string(in.Data))
					if at < 0 {
						t.Errorf("page %d: template carries bytes that are not the page's", p)
						return
					}
					rest = rest[at+len(in.Data):]
				}
			}
		}(g)
	}
	wg.Wait()
}
