package core

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/dpc"
	"dpcache/internal/site"
)

// newFabricSystem stands up a cached system with the invalidation fabric
// and a deliberately long page-TTL: freshness must come from
// invalidation, not time.
func newFabricSystem(t testing.TB, mutate func(*Config)) (*System, site.SyntheticConfig) {
	t.Helper()
	siteCfg := site.DefaultSynthetic()
	cfg := Config{
		Capacity: 2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		Seed:     7,
		Fabric:   true,
		Proxy:    dpc.Config{Strict: true, PageCache: true, PageCacheTTL: time.Minute},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys, siteCfg
}

func fabricGet(t testing.TB, url, inm string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// The PR's acceptance shape, end to end: invalidating a fragment through
// the BEM (a repository write) drops every page-tier entry built from it
// before the next request is served — no TTL wait — while pages built
// from other fragments survive, and an anonymous revalidation of a
// surviving page is answered 304 with zero body bytes.
func TestFabricInvalidatesPageTierEndToEnd(t *testing.T) {
	sys, _ := newFabricSystem(t, nil)
	page0 := sys.FrontURL() + "/page/synth?page=0"
	page1 := sys.FrontURL() + "/page/synth?page=1"

	// Warm both pages into the page tier (second GET is a PAGE hit).
	fabricGet(t, page0, "")
	resp0, body0 := fabricGet(t, page0, "")
	if resp0.Header.Get("X-Cache") != "PAGE" {
		t.Fatalf("page 0 revisit X-Cache = %q, want PAGE", resp0.Header.Get("X-Cache"))
	}
	if !strings.Contains(body0, "<!--frag 0 v1-->") {
		t.Fatalf("page 0 body missing fragment 0 v1: %q", body0[:80])
	}
	fabricGet(t, page1, "")
	resp1, _ := fabricGet(t, page1, "")
	etag1 := resp1.Header.Get("ETag")
	if resp1.Header.Get("X-Cache") != "PAGE" || etag1 == "" {
		t.Fatalf("page 1 revisit: X-Cache=%q ETag=%q", resp1.Header.Get("X-Cache"), etag1)
	}

	// Invalidate fragment 0 (page 0's first cacheable fragment) through
	// the BEM's data-dependency path: a repository write. The fabric
	// must drop page 0's tier entry synchronously.
	site.TouchFragment(sys.Repo, 0, "2")
	if acked, seq := sys.Hub.AckedThrough(), sys.Hub.Seq(); seq == 0 || acked != seq {
		t.Fatalf("fabric acked %d of %d events", acked, seq)
	}

	// The very next request must be fresh — served via assembly, not the
	// page tier, with the new fragment version. No TTL has expired.
	respFresh, bodyFresh := fabricGet(t, page0, "")
	if respFresh.Header.Get("X-Cache") == "PAGE" {
		t.Fatal("stale page-tier entry served after its fragment was invalidated")
	}
	if !strings.Contains(bodyFresh, "<!--frag 0 v2-->") {
		t.Fatalf("post-invalidation body still stale: %q", bodyFresh[:80])
	}
	if got := sys.Registry.Counter("dpc.pagecache_invalidations").Value(); got == 0 {
		t.Fatal("dpc.pagecache_invalidations did not move")
	}

	// Page 1 shares no fragment with the invalidation: it must survive in
	// the tier, and a conditional revalidation costs zero body bytes.
	resp304, body304 := fabricGet(t, page1, etag1)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("surviving page revalidation status = %d, want 304", resp304.StatusCode)
	}
	if len(body304) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body304))
	}
	if got := sys.Registry.Counter("dpc.pagecache_304s").Value(); got != 1 {
		t.Fatalf("dpc.pagecache_304s = %d, want 1", got)
	}
}

// A hub purge drops every page-tier variant of a URI on every subscribed
// proxy, without touching other URIs.
func TestFabricPurgeDropsURI(t *testing.T) {
	sys, _ := newFabricSystem(t, nil)
	page0 := sys.FrontURL() + "/page/synth?page=0"
	page1 := sys.FrontURL() + "/page/synth?page=1"
	fabricGet(t, page0, "")
	fabricGet(t, page1, "")
	if sys.Proxy.Pages().Len() != 2 {
		t.Fatalf("page tier holds %d entries, want 2", sys.Proxy.Pages().Len())
	}
	sys.Hub.BroadcastPurge("/page/synth?page=0")
	if sys.Proxy.Pages().Len() != 1 {
		t.Fatalf("purge left %d entries, want 1", sys.Proxy.Pages().Len())
	}
	if resp, _ := fabricGet(t, page1, ""); resp.Header.Get("X-Cache") != "PAGE" {
		t.Fatal("purge of page 0 disturbed page 1's entry")
	}
}

// Edge proxies started after the hub exists subscribe all their tiers
// automatically: a fragment invalidation reaches an edge's page tier too.
func TestFabricCoversEdgePageTiers(t *testing.T) {
	sys, _ := newFabricSystem(t, nil)
	edge, err := sys.StartEdge("east")
	if err != nil {
		t.Fatal(err)
	}
	page0 := edge.URL + "/page/synth?page=0"
	fabricGet(t, page0, "")
	if resp, _ := fabricGet(t, page0, ""); resp.Header.Get("X-Cache") != "PAGE" {
		t.Fatal("edge page tier did not warm")
	}
	site.TouchFragment(sys.Repo, 0, "9")
	resp, body := fabricGet(t, page0, "")
	if resp.Header.Get("X-Cache") == "PAGE" || !strings.Contains(body, "<!--frag 0 v9-->") {
		t.Fatalf("edge served stale after invalidation: X-Cache=%q", resp.Header.Get("X-Cache"))
	}
}

var fragVersionRe = regexp.MustCompile(`<!--frag 0 v(\d+)-->`)

// The invalidation-storm race: writers update a fragment's source row
// while readers hammer the page anonymously. A response that *began*
// after version N committed must never carry a version older than N —
// the page tier's fill/invalidate handshake (dependency edges +
// tombstones + epoch) is what closes the window where a stale capture is
// filed after the drop. Run with -race in CI.
func TestFabricInvalidationStormNeverServesDropped(t *testing.T) {
	sys, _ := newFabricSystem(t, func(c *Config) {
		c.Proxy.Coalesce = false // single-flight serves point-in-time-of-leader pages; keep the oracle strict
	})
	page0 := sys.FrontURL() + "/page/synth?page=0"

	var committed atomic.Int64
	committed.Store(1)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		v := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			site.TouchFragment(sys.Repo, 0, strconv.FormatInt(v, 10))
			// TouchFragment returns after the invalidation it caused has
			// been broadcast and applied (both are synchronous). When a
			// proxy's stale report invalidated the fragment first, the
			// write finds nothing left to invalidate and returns while
			// that report's broadcast may still be in delivery, so the
			// fabric's promise is stated against acknowledged sequence
			// numbers: wait for the hub to have applied all it has issued.
			// Every tier has then dropped v-1 by the time this store lands.
			for sys.Hub.AckedThrough() < sys.Hub.Seq() {
				runtime.Gosched()
			}
			committed.Store(v)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	const readers = 6
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				floor := committed.Load()
				resp, err := http.Get(page0)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				m := fragVersionRe.FindSubmatch(body)
				if m == nil {
					errs <- fmt.Errorf("response carries no fragment-0 version: %q", body[:min(len(body), 80)])
					return
				}
				got, _ := strconv.ParseInt(string(m[1]), 10, 64)
				if got < floor {
					errs <- fmt.Errorf("served fragment 0 v%d after v%d had committed (X-Cache=%s)",
						got, floor, resp.Header.Get("X-Cache"))
					return
				}
			}
		}()
	}

	dur := 800 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	time.Sleep(dur)
	close(stop)
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-writerDone
}

// BenchmarkInvalidationStorm measures the fabric under a combined
// assemble + invalidate + page-hit load: each iteration invalidates the
// hot page's fragment and immediately re-fetches the page. CI runs it
// with -benchtime=1x as a smoke test.
func BenchmarkInvalidationStorm(b *testing.B) {
	sys, _ := newFabricSystem(b, nil)
	page0 := sys.FrontURL() + "/page/synth?page=0"
	fabricGet(b, page0, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.TouchFragment(sys.Repo, 0, strconv.Itoa(i+2))
		resp, err := http.Get(page0)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// One write drops one page: a site of the benchmark's shape — 1 000 pages,
// 12 000 tagged fragments, each on one page — sits in the page tier behind
// the fabric at the default dependency-index budget. Touching 200 tagged
// fragments on 200 pages must drop exactly those 200 pages, flush no tier,
// get an exact answer to every index lookup, leave every other page a tier
// hit, and serve each touched page fresh on its next GET.
func TestFabricTwoHundredWritesDropTwoHundredPages(t *testing.T) {
	siteCfg := site.SyntheticConfig{Pages: 1000, FragmentsPerPage: 16, FragmentBytes: 64, Cacheability: 0.75}
	sys, err := NewSystem(Config{
		Capacity: 16384,
		Seed:     7,
		Fabric:   true,
		Proxy:    dpc.Config{Strict: true, PageCache: true, PageCacheTTL: 10 * time.Minute},
	}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	sc, man, err := site.BuildSynthetic(siteCfg, sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	pageURL := func(p int) string { return fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), p) }
	counter := func(name string) int64 { return sys.Registry.Counter(name).Value() }

	tagged := 0
	for _, c := range man.Cacheable {
		if c {
			tagged++
		}
	}
	for p := 0; p < siteCfg.Pages; p++ {
		fabricGet(t, pageURL(p), "")
	}
	ix := sys.Proxy.DepIndex()
	if st := ix.Stats(); st.Fragments != tagged || st.Keys != siteCfg.Pages || st.Evictions != 0 {
		t.Fatalf("the default budget does not hold the site's %d edges over %d pages: %+v", tagged, siteCfg.Pages, st)
	}
	if fills := counter("dpc.pagecache_fills"); fills != int64(siteCfg.Pages) {
		t.Fatalf("dpc.pagecache_fills = %d after fetching %d pages", fills, siteCfg.Pages)
	}

	// Every fifth page loses its first tagged fragment.
	touched := make(map[int]int) // page → fragment
	for p := 0; p < siteCfg.Pages; p += 5 {
		for _, j := range man.Pages[p] {
			if man.Cacheable[j] {
				touched[p] = j
				break
			}
		}
	}
	if len(touched) != 200 {
		t.Fatalf("test setup: %d pages to touch", len(touched))
	}
	dropped := counter("dpc.pagecache_invalidations")
	for _, j := range touched {
		site.TouchFragment(sys.Repo, j, "2")
	}
	if acked, seq := sys.Hub.AckedThrough(), sys.Hub.Seq(); seq != 200 || acked != seq {
		t.Fatalf("fabric acked %d of %d events, want 200 of 200", acked, seq)
	}

	if got := counter("dpc.pagecache_invalidations") - dropped; got != 200 {
		t.Errorf("200 writes dropped %d pages", got)
	}
	for _, name := range []string{
		"dpc.pagecache_flushes", "dpc.pagecache_gap_flushes", "dpc.pagecache_event_flushes", "dpc.pagecache_fallback_flushes",
		"dpc.static_flushes",
	} {
		if got := counter(name); got != 0 {
			t.Errorf("%s = %d: a write flushed a tier", name, got)
		}
	}
	if st := ix.Stats(); st.Lookups < 200 || st.Inexact != 0 || st.Evictions != 0 {
		t.Errorf("index lookups were not all exact: %+v", st)
	}
	if got := sys.Proxy.Pages().Len(); got != siteCfg.Pages-200 {
		t.Errorf("page tier holds %d pages, want %d", got, siteCfg.Pages-200)
	}

	for p := 0; p < siteCfg.Pages; p++ {
		resp, body := fabricGet(t, pageURL(p), "")
		j, wasTouched := touched[p]
		if !wasTouched {
			if resp.Header.Get("X-Cache") != "PAGE" {
				t.Fatalf("untouched page %d: X-Cache = %q, want PAGE", p, resp.Header.Get("X-Cache"))
			}
			continue
		}
		if resp.Header.Get("X-Cache") == "PAGE" {
			t.Fatalf("page %d served from the tier after fragment %d was touched", p, j)
		}
		if want := fmt.Sprintf("<!--frag %d v2-->", j); !strings.Contains(body, want) {
			t.Fatalf("page %d is stale after the write: no %s", p, want)
		}
		if resp, _ := fabricGet(t, pageURL(p), ""); resp.Header.Get("X-Cache") != "PAGE" {
			t.Fatalf("page %d was not refiled: X-Cache = %q", p, resp.Header.Get("X-Cache"))
		}
	}
}
