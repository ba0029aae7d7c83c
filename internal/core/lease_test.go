package core

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dpcache/internal/dpc"
	"dpcache/internal/site"
)

// getAs fetches url, as user when user is not empty, and returns the
// response's X-Cache and body.
func getAs(t *testing.T, url, user string) (xcache, body string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s as %q: status %d, %v", url, user, resp.StatusCode, err)
	}
	return resp.Header.Get("X-Cache"), string(b)
}

// mixedPageSystem starts a system on the fabric, with the page tier on as
// pageCache says and a long TTL, serving a synthetic site whose page 1 mixes
// tagged and untagged blocks. It returns page 1's URL and a marker of its
// first untagged block at a version.
func mixedPageSystem(t *testing.T, pageCache bool) (sys *System, page string, j int, marker func(v int) string) {
	t.Helper()
	siteCfg := site.SyntheticConfig{Pages: 4, FragmentsPerPage: 8, FragmentBytes: 64, Cacheability: 0.6}
	sys, err := NewSystem(Config{
		Capacity: 256,
		Seed:     7,
		Fabric:   true,
		Proxy:    dpc.Config{Strict: true, PageCache: pageCache, PageCacheTTL: 10 * time.Minute},
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

	j, tagged := -1, 0
	for _, f := range man.Pages[1] {
		if man.Cacheable[f] {
			tagged++
		} else if j < 0 {
			j = f
		}
	}
	if j < 0 || tagged == 0 {
		t.Fatalf("test setup: page 1 is not mixed: %v", man.Pages[1])
	}
	return sys, sys.FrontURL() + "/page/synth?page=1", j, func(v int) string { return fmt.Sprintf("<!--frag %d v%d-->", j, v) }
}

// A write to a row an untagged block reads reaches a proxy on the fabric
// like a fragment write: the page's shell — the BEM entry of the rows the
// page itself reads, which every template opens with — dies, and with it the
// whole-response entry built on it and every lease naming it. So the next
// anonymous GET is a miss with the new bytes, where the page tier used to
// serve the old ones until PageCacheTTL, and the next identified GET goes to
// the origin instead of being served by the page its grant filed, that
// grant's one keeper.
func TestLeaseLayoutRowWriteReachesPageTierAndLeases(t *testing.T) {
	sys, page, j, marker := mixedPageSystem(t, true)
	sys.Hub.BroadcastPurge("/page/synth?page=99") // the proxy's first event: it is on the fabric now
	for i, want := range []string{"MISS", "PAGE"} {
		if xc, body := getAs(t, page, ""); xc != want || !strings.Contains(body, marker(1)) {
			t.Fatalf("anonymous visit %d: X-Cache %q, want %q with %s", i, xc, want, marker(1))
		}
	}
	for i, want := range []string{"MISS", "PAGE"} { // the template with the page's grant, the page it filed
		if xc, body := getAs(t, page, "u1"); xc != want || !strings.Contains(body, marker(1)) {
			t.Fatalf("u1's visit %d: X-Cache %q, want %q with %s", i, xc, want, marker(1))
		}
	}

	site.TouchFragment(sys.Repo, j, "2")
	if acked, seq := sys.Hub.AckedThrough(), sys.Hub.Seq(); acked != seq {
		t.Fatalf("fabric acked %d of %d events", acked, seq)
	}
	if xc, body := getAs(t, page, ""); xc != "MISS" || !strings.Contains(body, marker(2)) {
		t.Fatalf("anonymous GET after the write: X-Cache %q, has %s: %v; want a miss with the new bytes", xc, marker(2), strings.Contains(body, marker(2)))
	}
	if xc, body := getAs(t, page, "u1"); xc == "LEASE" || !strings.Contains(body, marker(2)) {
		t.Fatalf("u1's GET after the write: X-Cache %q, has %s: %v; want the origin's fresh answer", xc, marker(2), strings.Contains(body, marker(2)))
	}
	if n := sys.Registry.Counter("dpc.pagecache_invalidations").Value(); n != 1 {
		t.Fatalf("dpc.pagecache_invalidations = %d, want the page u1's grant filed found dead once", n)
	}
	for _, name := range []string{"dpc.errors", "dpc.stale_fallbacks", "dpc.pagecache_flushes"} {
		if n := sys.Registry.Counter(name).Value(); n != 0 {
			t.Fatalf("%s = %d", name, n)
		}
	}
}

// Without the page tier a page-scoped grant is kept by the visitor's lease,
// and the shell's event voids it: the next identified GET goes to the
// origin instead of being served by the lease.
func TestLeaseLayoutRowWriteVoidsTheLeaseWithoutPageTier(t *testing.T) {
	sys, page, j, marker := mixedPageSystem(t, false)
	sys.Hub.BroadcastPurge("/page/synth?page=99") // the proxy's first event: it is on the fabric now
	if xc, body := getAs(t, page, ""); xc != "MISS" || !strings.Contains(body, marker(1)) {
		t.Fatalf("anonymous visit: X-Cache %q, want MISS with %s", xc, marker(1))
	}
	for i, want := range []string{"MISS", "LEASE"} { // the template with the page's grant, the lease it filed
		if xc, body := getAs(t, page, "u1"); xc != want || !strings.Contains(body, marker(1)) {
			t.Fatalf("u1's visit %d: X-Cache %q, want %q with %s", i, xc, want, marker(1))
		}
	}

	site.TouchFragment(sys.Repo, j, "2")
	if acked, seq := sys.Hub.AckedThrough(), sys.Hub.Seq(); acked != seq {
		t.Fatalf("fabric acked %d of %d events", acked, seq)
	}
	if xc, body := getAs(t, page, "u1"); xc == "LEASE" || !strings.Contains(body, marker(2)) {
		t.Fatalf("u1's GET after the write: X-Cache %q, has %s: %v; want the origin's fresh answer", xc, marker(2), strings.Contains(body, marker(2)))
	}
	if n := sys.Registry.Counter("dpc.lease_floor_voids").Value(); n != 1 {
		t.Fatalf("dpc.lease_floor_voids = %d, want u1's lease voided by the shell's event", n)
	}
	for _, name := range []string{"dpc.errors", "dpc.stale_fallbacks"} {
		if n := sys.Registry.Counter(name).Value(); n != 0 {
			t.Fatalf("%s = %d", name, n)
		}
	}
}

// A page the tier filed before its proxy heard the fabric's first event is
// dropped by a write to a row its untagged block reads, as one filed after
// the proxy attached is: every template opens with the page's shell, so the
// entry carries the shell's edge whenever it was filed, and the write's
// event is the proxy's first. Served from the tier, the page would keep the
// old bytes until PageCacheTTL.
func TestPageFiledBeforeFirstEventDroppedByUntaggedWrite(t *testing.T) {
	for _, attached := range []bool{false, true} {
		t.Run(fmt.Sprintf("attached=%v", attached), func(t *testing.T) {
			sys, page, j, marker := mixedPageSystem(t, true)
			if attached {
				sys.Hub.BroadcastPurge("/page/synth?page=99")
			}
			for i, want := range []string{"MISS", "PAGE"} {
				if xc, body := getAs(t, page, ""); xc != want || !strings.Contains(body, marker(1)) {
					t.Fatalf("visit %d: X-Cache %q, want %q with %s", i, xc, want, marker(1))
				}
			}
			seq := sys.Hub.Seq()
			site.TouchFragment(sys.Repo, j, "2")
			if xc, body := getAs(t, page, ""); xc != "MISS" || !strings.Contains(body, marker(2)) {
				t.Fatalf("GET after the write: X-Cache %q, has %s: %v; want a miss with the new bytes", xc, marker(2), strings.Contains(body, marker(2)))
			}
			if sys.Hub.Seq() == seq || sys.Hub.AckedThrough() != sys.Hub.Seq() {
				t.Fatalf("the write sent no event, or the proxy did not ack it: seq %d → %d, acked %d", seq, sys.Hub.Seq(), sys.Hub.AckedThrough())
			}
			if n := sys.Registry.Counter("dpc.pagecache_invalidations").Value(); n != 1 {
				t.Fatalf("dpc.pagecache_invalidations = %d, want the page dropped by the shell's event", n)
			}
			for _, name := range []string{"dpc.errors", "dpc.stale_fallbacks", "dpc.pagecache_flushes"} {
				if n := sys.Registry.Counter(name).Value(); n != 0 {
					t.Fatalf("%s = %d", name, n)
				}
			}
		})
	}
}
