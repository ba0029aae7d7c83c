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

	"dpcache/internal/site"
)

// newFabricSystem stands up a cached system with the invalidation fabric
// and a deliberately long page-TTL: freshness must come from
// invalidation, not time.
func newFabricSystem(t testing.TB, mutate func(*Config)) (*System, site.SyntheticConfig) {
	t.Helper()
	siteCfg := site.DefaultSynthetic()
	cfg := Config{
		Capacity:     2 * siteCfg.Pages * siteCfg.FragmentsPerPage,
		Strict:       true,
		Seed:         7,
		PageCache:    true,
		PageCacheTTL: time.Minute,
		Fabric:       true,
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
		c.Coalesce = false // single-flight serves point-in-time-of-leader pages; keep the oracle strict
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
