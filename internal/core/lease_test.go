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

// A write to a row an untagged block reads reaches a proxy on the fabric
// like a fragment write: the page's shell — the BEM entry of the rows the
// page itself reads, which the template of a lease-asking fetch opens with —
// dies, and with it the whole-response entry built on it and every lease
// naming it. So the next anonymous GET is a miss with the new bytes, where
// the page tier used to serve the old ones until PageCacheTTL, and the next
// identified GET goes to the origin instead of being served by its lease.
func TestLeaseLayoutRowWriteReachesPageTierAndLeases(t *testing.T) {
	siteCfg := site.SyntheticConfig{Pages: 4, FragmentsPerPage: 8, FragmentBytes: 64, Cacheability: 0.6}
	sys, err := NewSystem(Config{
		Capacity: 256,
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

	// Page 1 mixes tagged and untagged blocks; j is its first untagged one.
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
	page := sys.FrontURL() + "/page/synth?page=1"
	marker := func(v int) string { return fmt.Sprintf("<!--frag %d v%d-->", j, v) }

	sys.Hub.BroadcastPurge("/page/synth?page=99") // the proxy's first event: it is on the fabric now
	for i, want := range []string{"MISS", "PAGE"} {
		if xc, body := getAs(t, page, ""); xc != want || !strings.Contains(body, marker(1)) {
			t.Fatalf("anonymous visit %d: X-Cache %q, want %q with %s", i, xc, want, marker(1))
		}
	}
	for i, want := range []string{"MISS", "MISS", "LEASE"} { // the template, a reference with its grant, the lease
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
	if n := sys.Registry.Counter("dpc.lease_floor_voids").Value(); n != 1 {
		t.Fatalf("dpc.lease_floor_voids = %d, want u1's lease voided by the shell's event", n)
	}
	for _, name := range []string{"dpc.errors", "dpc.stale_fallbacks", "dpc.pagecache_flushes"} {
		if n := sys.Registry.Counter(name).Value(); n != 0 {
			t.Fatalf("%s = %d", name, n)
		}
	}
}
