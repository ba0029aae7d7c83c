//go:build !race

package dpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"dpcache/internal/alloctest"
	"dpcache/internal/fragstore"
	"dpcache/internal/pagecache"
	"dpcache/internal/tmpl"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own). A
// budget of objects alone is counted by testing.AllocsPerRun, one of bytes
// too by alloctest.PerCall over this many windows of requests each.
const windows, requests = 5, 200

// discardWriter is a response writer that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// fragmentPathAllocs serves steady-state fragment-path requests — template
// fetched, plan hit, page assembled from a warm store through the spool,
// coalescing on — and returns the bytes and objects allocated per request,
// (the least of alloctest.PerCall's windows), and the page's size.
func fragmentPathAllocs(t *testing.T) (bytesPer, objsPer float64, pageBytes uint64) {
	const frags, fragBytes = 16, 1 << 10
	body := templateBody(t, func(enc tmpl.Encoder) {
		for k := uint32(0); k < frags; k++ {
			_ = enc.Literal([]byte("<div>"))
			_ = enc.Get(k, 1)
		}
	})
	// The origin's headers are the same maps every time, so what is counted
	// is the proxy's.
	fullHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}}
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Coalesce = true
		c.Stream = true // the default 64 KiB spool, as dpcd runs
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: fullHeader,
			}, nil
		})
	})
	for k := uint32(0); k < frags; k++ {
		if err := p.Store().Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, fragBytes)); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	serve := func() { p.ServeHTTP(&discardWriter{h: http.Header{}}, req) }
	for range 50 { // compile the plan, size the pooled buffers
		serve()
	}
	bytesPer, objsPer = alloctest.PerCall(windows, requests, serve)

	const served = 50 + windows*requests
	snap := p.Registry().Snapshot()
	if snap["dpc.assembled"] != served || snap["dpc.plancache_hits"] != served-1 || snap["dpc.errors"] != 0 {
		t.Fatalf("assembled=%d plan hits=%d errors=%d: the requests did not take the warm fragment path",
			snap["dpc.assembled"], snap["dpc.plancache_hits"], snap["dpc.errors"])
	}
	pageBytes = uint64(frags * (fragBytes + len("<div>")))
	t.Logf("%.0f B in %.2f objects allocated per request, page %d B", bytesPer, objsPer, pageBytes)
	return bytesPer, objsPer, pageBytes
}

// A steady-state fragment-path request allocates its headers and
// bookkeeping and nothing page-sized: well under half a page per request. A
// fresh buffer for the template, the spool or the flight's broadcast copy
// is a page or more each and breaks the budget.
func TestAllocBudgetFragmentPathRequest(t *testing.T) {
	perRequest, _, pageBytes := fragmentPathAllocs(t)
	if perRequest > float64(pageBytes/2) {
		t.Fatalf("%.0f B allocated per request, budget %d B (half a %d-byte page)", perRequest, pageBytes/2, pageBytes)
	}
}

// pageHitObjs bounds the allocation count of one page-tier hit: 12
// objects, measured by this test once the probe stopped building the
// opt-in key (it skips that key until an opt-in entry is filed, and takes
// it from the page key's prefix after), with the same two objects of slack
// as before.
const pageHitObjs = 14

// pageHitAllocs serves req 50 times to warm p up, then AllocsPerRun's
// requests+1 more, and returns the objects allocated per request once it has
// checked that each of those was a page-tier hit.
func pageHitAllocs(t *testing.T, p *Proxy, req *http.Request) float64 {
	t.Helper()
	serve := func() { p.ServeHTTP(&discardWriter{h: http.Header{}}, req) }
	for range 50 {
		serve()
	}
	hits := p.Registry().Counter("dpc.pagecache_hits")
	warm := hits.Value()
	objs := testing.AllocsPerRun(requests, serve)
	if n := hits.Value() - warm; n != requests+1 {
		t.Fatalf("%d page hits of %d requests: the requests did not hit the page tier", n, requests+1)
	}
	t.Logf("%v objects allocated per page hit", objs)
	return objs
}

// A steady-state page-tier hit — page_hot's whole request — allocates no
// more objects than it did with two stages.
func TestAllocBudgetPageHitRequest(t *testing.T) {
	page := bytes.Repeat([]byte("p"), 16<<10)
	header := http.Header{"Content-Type": {"text/html"}}
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Coalesce = true
		c.Stream = true
		c.PageCache = true
		c.PageCacheTTL = time.Hour
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(page)), Request: r,
				Body: io.NopCloser(bytes.NewReader(page)), Header: header,
			}, nil
		})
	})
	if objs := pageHitAllocs(t, p, httptest.NewRequest(http.MethodGet, "/page?id=1", nil)); objs > pageHitObjs {
		t.Fatalf("%v objects allocated per page hit, budget %d", objs, pageHitObjs)
	}
}

// sharedPageProxy returns a proxy whose page tier has filed req's page —
// 16 fragments of 1 KiB, each after a 5-byte literal, assembled from the
// slot array — as a shared entry, and the page's length.
func sharedPageProxy(t *testing.T) (p *Proxy, req *http.Request, pageBytes int) {
	const frags, fragBytes = 16, 1 << 10
	body := templateBody(t, func(enc tmpl.Encoder) {
		for k := uint32(0); k < frags; k++ {
			_ = enc.Literal([]byte("<div>"))
			_ = enc.Get(k, 1)
		}
	})
	header := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}}
	p = newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Coalesce = true
		c.Stream = true
		c.PageCache = true
		c.PageCacheTTL = time.Hour
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: header,
			}, nil
		})
	})
	for k := uint32(0); k < frags; k++ {
		if err := p.Store().Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, fragBytes)); err != nil {
			t.Fatal(err)
		}
	}
	req = httptest.NewRequest(http.MethodGet, "/page?id=1", nil)
	p.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	pageBytes = frags * (fragBytes + len("<div>"))
	if n := p.Registry().Counter("dpc.pagecache_shared_bytes").Value(); n != frags*fragBytes {
		t.Fatalf("dpc.pagecache_shared_bytes = %d after the fill, want the %d fragment bytes", n, frags*fragBytes)
	}
	return p, req, pageBytes
}

// A page-tier hit on a shared entry gathers the body into a pooled buffer:
// it allocates no more objects than a hit on a flat one.
func TestAllocBudgetSharedPageHit(t *testing.T) {
	p, req, _ := sharedPageProxy(t)
	if objs := pageHitAllocs(t, p, req); objs > pageHitObjs {
		t.Fatalf("%v objects allocated per shared page hit, budget %d", objs, pageHitObjs)
	}
}

// Filing an assembled page whose fragments are resident allocates — and
// the entry then holds — its literal runs and its span table, within 15 %,
// not the page: a copy of the 16 KiB page breaks the budget many times
// over. The page is refiled under one key, each fill replacing the last, so
// every call does the same work.
func TestAllocBudgetSharedFillRetainsLiterals(t *testing.T) {
	p, req, pageBytes := sharedPageProxy(t)
	hit, ok := p.probe(&reqState{r: req}, pageKey(req), 0)
	if !ok || hit.Layout == nil {
		t.Fatal("setup: the page was not filed shared")
	}
	body := hit.AppendBody(nil)
	rs := &reqState{fillKey: "/refiled", fillTTL: time.Hour}
	for _, sp := range hit.Layout.Spans {
		k := uint32(sp.Frag[0] - 'a')
		rs.depRefs = append(rs.depRefs, StaleRef{Key: k, Gen: 1})
	}
	var shared int
	file := func() { shared = p.fileShared(rs, body, "", "", "") }
	bytesPer, objs := alloctest.PerCall(windows, requests, file)
	lit := len(body) - shared
	want := float64(lit + len(hit.Layout.Spans)*pagecache.SpanBytes + int(unsafe.Sizeof(pagecache.Layout{})))
	t.Logf("%.0f B in %.2f objects per fill of a %d-byte page: %d literal bytes, %d spans (%.0f B expected)",
		bytesPer, objs, pageBytes, lit, len(hit.Layout.Spans), want)
	if shared != 16<<10 {
		t.Fatalf("the fill shared %d bytes, want the 16 fragments' %d", shared, 16<<10)
	}
	if bytesPer > want*1.15 {
		t.Fatalf("%.0f B allocated per fill, budget %.0f B (the literal runs and span table, +15 %%)", bytesPer, want*1.15)
	}
}

// identifiedPageHitObjs is the allocation count of one identified visitor's
// page-tier hit under the page's grant, measured by this test when the hit
// was introduced (an anonymous hit then measured 15: anonymousPageKey is
// built in one allocation), and again when the hit stopped looking up a
// lease.
const identifiedPageHitObjs = 14

// An identified visitor's page-tier hit under the page's grant — write_mix's
// identified half — costs what an anonymous hit does: its page key, blanked
// of the visitor, adds at most two objects to pageHitObjs.
func TestAllocBudgetIdentifiedPageHitRequest(t *testing.T) {
	origin, warm := pageLeaseOrigin(t, "none;page")
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		origin(c)
		c.Coalesce = true
		c.Stream = true
		c.PageCache = true
		c.PageCacheTTL = time.Hour
	})
	warm(p)
	req := httptest.NewRequest(http.MethodGet, "/page?id=1", nil)
	req.Header.Set("X-User", "u1")
	objs := pageHitAllocs(t, p, req)
	if n := p.Registry().Counter("dpc.pagecache_identity_hits").Value(); n < 200 {
		t.Fatalf("dpc.pagecache_identity_hits = %d: the hits were not the identified visitor's", n)
	}
	if objs > identifiedPageHitObjs || objs > pageHitObjs+2 {
		t.Fatalf("%v objects allocated per identified page hit, budget %d (at most %d)", objs, identifiedPageHitObjs, pageHitObjs+2)
	}
}

// leaseHitProxy returns a proxy whose lease answers req: strict, on the
// fabric, coalescing and spooling as dpcd does, in front of
// pageLeaseOrigin's page of 16 fragments, and warmed up to its first lease
// hit (the template that grants the lease, then the hit).
// store, when non-nil, is its fragment store; else the slot array.
func leaseHitProxy(tb testing.TB, store fragstore.FragmentStore) (*Proxy, *http.Request) {
	origin, warm := pageLeaseOrigin(tb, "none")
	cfg := Config{OriginURL: "http://origin.invalid", Capacity: 32, PublishInterval: -1, Coalesce: true, Stream: true, Store: store}
	origin(&cfg)
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = p.Close() })
	warm(p)
	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	for i := 0; i < 2; i++ {
		p.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	}
	if n := p.Registry().Counter("dpc.lease_hits").Value(); n != 1 {
		tb.Fatalf("dpc.lease_hits = %d after the warm-up, want 1", n)
	}
	return p, req
}

// leaseHitBytes and leaseHitObjs bound what one lease hit allocates — its
// headers and bookkeeping, and no page-sized buffer — at what this test
// measured when the lease moved beside the tier probe (1 189 B in 13
// objects; 1 608 B in 22 before, when every hit led a flight), with a little
// room.
const leaseHitBytes, leaseHitObjs = 1280, 14

// leaseHitAllocs serves 50 lease hits of req to warm p up, then windows of
// steady-state ones, and returns the bytes and objects each allocated.
func leaseHitAllocs(t *testing.T, p *Proxy, req *http.Request) (bytesPer, objsPer float64) {
	t.Helper()
	serve := func() { p.ServeHTTP(&discardWriter{h: http.Header{}}, req) }
	for range 50 { // size the pooled buffers
		serve()
	}
	hits := p.Registry().Counter("dpc.lease_hits")
	warm := hits.Value()
	bytesPer, objsPer = alloctest.PerCall(windows, requests, serve)
	if n := hits.Value() - warm; n != windows*requests {
		t.Fatalf("%d lease hits of %d requests", n, windows*requests)
	}
	return bytesPer, objsPer
}

// A lease hit — frag_hot's usual request — runs its held plan from a warm
// store through a pooled spool, and opens no flight: nothing page-sized is
// allocated, or copied into a broadcast buffer no follower reads.
func TestAllocBudgetLeaseHitRequest(t *testing.T) {
	p, req := leaseHitProxy(t, nil)
	bytesPer, objs := leaseHitAllocs(t, p, req)
	t.Logf("%.0f B in %.2f objects allocated per lease hit", bytesPer, objs)
	if bytesPer > leaseHitBytes || objs > leaseHitObjs {
		t.Fatalf("%.0f B in %.2f objects allocated per lease hit, budget %d B in %d", bytesPer, objs, leaseHitBytes, leaseHitObjs)
	}
}

// A lease hit whose 16 fragments all come from the disk tier — served in
// place, each copied into the run's scratch and emitted before the next
// read — allocates no more objects than the same hit from the slot array:
// a disk hit the RAM tier does not take gets no slice of its own.
func TestAllocBudgetLeaseHitFromDisk(t *testing.T) {
	ram, ramReq := leaseHitProxy(t, nil)
	_, ramObjs := leaseHitAllocs(t, ram, ramReq)
	// A RAM tier smaller than one fragment refuses them all: every
	// fragment is on disk only, and every read of it is served in place.
	store, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendTiered, Capacity: 32, ByteBudget: 512, Eviction: "lru",
		DiskPath: filepath.Join(t.TempDir(), "lease.heap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, req := leaseHitProxy(t, store)
	before, _ := fragstore.DiskStats(store)
	bytesPer, objs := leaseHitAllocs(t, p, req)
	after, _ := fragstore.DiskStats(store)
	const hits = 50 + windows*requests
	if served := after.ServedInPlace - before.ServedInPlace; served != hits*16 || after.RAM.Resident != 0 || after.Promotions != 0 {
		t.Fatalf("%d reads served in place for %d hits of 16 fragments, RAM holding %d, %d promotions: the hits did not read the disk tier",
			served, hits, after.RAM.Resident, after.Promotions)
	}
	t.Logf("%.0f B in %.2f objects allocated per lease hit from disk, %.2f objects from the slot array", bytesPer, objs, ramObjs)
	if objs > ramObjs {
		t.Fatalf("%.2f objects allocated per lease hit from disk, budget %.2f (the slot array's lease hit)", objs, ramObjs)
	}
}

// uncacheableLeaseHitBytes bounds what a lease hit through a page-rule
// miss allocates when the grant forbade caching: a lease hit's budget and
// the page rule's key, with room, and far below the 16 KiB page a capture
// would copy.
const uncacheableLeaseHitBytes = 2048

// A lease hit through a page-rule miss whose grant forbade caching (the
// origin's answer carried Cache-Control: no-store) is refused the tier
// before its first byte, so nothing page-sized is teed aside to be
// dropped, and nothing is filed.
func TestAllocBudgetUncacheableLeaseHit(t *testing.T) {
	origin, warm := pageLeaseOrigin(t, "none")
	cfg := Config{OriginURL: "http://origin.invalid", Capacity: 32, PublishInterval: -1, Coalesce: true, Stream: true,
		PageCache: true, PageCacheTTL: time.Hour}
	origin(&cfg)
	leased := cfg.Transport
	cfg.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := leased.RoundTrip(r)
		if err == nil {
			resp.Header = resp.Header.Clone()
			resp.Header.Set("Cache-Control", "no-store")
		}
		return resp, err
	})
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	warm(p)
	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	for range 2 { // the template that grants the lease, then the first hit
		p.ServeHTTP(&discardWriter{h: http.Header{}}, req)
	}
	bytesPer, objs := leaseHitAllocs(t, p, req)
	t.Logf("%.0f B in %.2f objects allocated per uncacheable lease hit", bytesPer, objs)
	if bytesPer > uncacheableLeaseHitBytes {
		t.Fatalf("%.0f B allocated per uncacheable lease hit, budget %d B", bytesPer, uncacheableLeaseHitBytes)
	}
	snap := p.Registry().Snapshot()
	if p.Pages().Len() != 0 || snap["dpc.pagecache_fills"] != 0 {
		t.Fatalf("%d entries after %d fills; the grant forbade caching", p.Pages().Len(), snap["dpc.pagecache_fills"])
	}
	if hits, refused := snap["dpc.lease_hits"], snap["dpc.pagecache_uncacheable"]; refused != hits+1 {
		t.Fatalf("%d refusals for %d lease hits and the granting answer; want one each", refused, hits)
	}
}

// BenchmarkLeaseHitRequest serves one lease hit per iteration through
// ServeHTTP: the pagecache stage's lease run, then respond.
func BenchmarkLeaseHitRequest(b *testing.B) {
	p, req := leaseHitProxy(b, nil)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		clear(w.h)
		p.ServeHTTP(w, req)
	}
}
