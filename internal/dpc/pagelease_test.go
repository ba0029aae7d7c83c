package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/pagecache"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

// switchSite is a page whose layout greets the visitor while personal is
// set and shows one tagged news item either way. The switch is read outside
// the script's Context, so neither the BEM nor the fabric sees it flip: a
// contract violation (a run whose output rests on state no entry tracks)
// that turns the page from every visitor's into each visitor's own and
// back, with no event.
func switchSite(personal *atomic.Bool) leaseSite {
	return leaseSite{
		name: "switch", capacity: 8, step: time.Second,
		build: func(repo *repository.Repo) (*script.Script, error) {
			repo.Put(repository.Key{Table: "news", Row: "n0"}, map[string]string{"title": "first"})
			item := script.Tagged("item", 0, nil, func(c *script.Context, w io.Writer) error {
				_, err := io.WriteString(w, "<li>"+c.Field("news", "n0", "title", "?")+"</li>")
				return err
			})
			greet := script.Untagged("greet", func(c *script.Context, w io.Writer) error {
				_, err := io.WriteString(w, "<p>hello "+c.User()+"</p>")
				return err
			})
			return &script.Script{Name: "switch", Layout: func(*script.Context) []script.Block {
				if personal.Load() {
					return []script.Block{greet, item}
				}
				return []script.Block{item}
			}}, nil
		},
	}
}

const switchURL = "/page/switch"

// expect serves switchURL as user and fails unless the response is the
// page the origin renders for user now, served as want says ("" for any
// X-Cache).
func (g *leaseRig) expect(user, want string) {
	g.t.Helper()
	rec := g.serve(switchURL, user)
	by := rec.Header().Get("X-Cache")
	if page := g.plain(switchURL, user); rec.Body.String() != page || (want != "" && by != want) {
		g.t.Fatalf("as %q: X-Cache %s, body %q; want X-Cache %s and the page %q", user, by, rec.Body, want, page)
	}
}

// pageLease visits as user until the origin grants the page's lease, which
// files the page in the tier for every visitor.
func (g *leaseRig) pageLease(user string) {
	g.t.Helper()
	grants := g.p.Registry().Counter("dpc.lease_page_grants")
	for before, i := grants.Value(), 0; grants.Value() == before; i++ {
		if i == 5 {
			g.t.Fatalf("%d visits as %q earned no page-scoped lease", i, user)
		}
		g.expect(user, "")
	}
}

// A page-tier entry serves an identified visitor only when it was built
// under a page-scoped grant that has not ended — its record carries the
// grant's end — and only the answer that carried the grant files it for
// one. The page here switches scope through state the fabric never hears
// of, so the entry's record is all that stands between one visitor and
// another's page.
func TestPageLeaseMustAgreeWithEntry(t *testing.T) {
	// The anonymous page is filed while the layout reads the visitor; then
	// the page turns every visitor's and u1 earns the page's grant. The
	// entry's refs all live, but it was built under no grant: u1's granted
	// answer files the page again, and u2 and u3 are served that.
	t.Run("entry-of-another-plan", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 1)
		g.hub.BroadcastPurge("/none")
		personal.Store(true)
		g.expect("", "")
		g.expect("", "PAGE")
		personal.Store(false)
		g.pageLease("u1")
		g.expect("u2", "PAGE")
		g.expect("u3", "PAGE")
		if n := g.p.Registry().Counter("dpc.pagecache_identity_hits").Value(); n != 2 {
			t.Fatalf("dpc.pagecache_identity_hits = %d, want u2's and u3's visits", n)
		}
	})
	// The page's grant filed its entry, its one keeper; then the page turns
	// per-visitor and a write kills the news item. u1 finds the entry dead,
	// and the origin renders u1's own page: nothing may be filed where the
	// anonymous visitor looks.
	t.Run("void-lease-files-nothing", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 2)
		g.hub.BroadcastPurge("/none")
		g.pageLease("u1")
		g.expect("u2", "PAGE")
		g.expect("u3", "PAGE")
		personal.Store(true)
		g.repo.Put(repository.Key{Table: "news", Row: "n0"}, map[string]string{"title": "second"})
		bypassed := g.p.Registry().Counter("dpc.pagecache_bypass_identity").Value()
		dead := g.p.Registry().Counter("dpc.pagecache_invalidations").Value()
		g.expect("u1", "")
		if n := g.p.Registry().Counter("dpc.pagecache_invalidations").Value(); n != dead+1 {
			t.Fatalf("dpc.pagecache_invalidations moved %d → %d, want u1's visit to find the entry dead", dead, n)
		}
		g.expect("", "")
		if n := g.p.Registry().Counter("dpc.pagecache_bypass_identity").Value(); n != bypassed+1 {
			t.Fatalf("dpc.pagecache_bypass_identity moved %d → %d, want u1's visit counted", bypassed, n)
		}
	})
	// Without the page tier the grant's keeper is u1's lease; the write
	// kills the item, u1's lease run finds it dead, and the origin renders
	// u1's own page.
	t.Run("void-lease-files-nothing-without-page-tier", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 2, func(c *Config) { c.PageCache = false })
		g.hub.BroadcastPurge("/none")
		g.pageLease("u1")
		g.expect("u1", "LEASE")
		personal.Store(true)
		g.repo.Put(repository.Key{Table: "news", Row: "n0"}, map[string]string{"title": "second"})
		g.expect("u1", "")
		if n := g.p.Registry().Counter("dpc.lease_floor_voids").Value(); n != 1 {
			t.Fatalf("dpc.lease_floor_voids = %d, want u1's lease run to find the item dead", n)
		}
		g.expect("", "")
	})
	// Once the grant's term is over the entry vouches for nothing, and the
	// page, now per-visitor, must be u3's own. (Here the term is the tier's
	// TTL, so the entry ends with it; grant-shorter-than-ttl below is the
	// case where the entry outlives its grant.)
	t.Run("lease-past-its-term", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 3)
		g.hub.BroadcastPurge("/none")
		g.pageLease("u1")
		g.clk.Advance(leaseModelTTL / 2)
		g.expect("u2", "PAGE")
		personal.Store(true)
		g.clk.Advance(leaseModelTTL/2 + time.Second)
		g.expect("u3", "")
	})
	// A grant of half a second under an hour's TTL: the entry outlives its
	// grant. From the grant's end on, the entry is the anonymous visitor's
	// alone — an identified visitor must not be served it, whatever its TTL
	// says.
	t.Run("grant-shorter-than-ttl", func(t *testing.T) {
		origin, warm := pageLeaseOrigin(t, "500;page")
		clk := clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC))
		p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
			origin(c)
			c.PageCache, c.PageCacheTTL, c.Clock = true, time.Hour, clk
		})
		warm(p)
		visit := func(user string) string {
			req := httptest.NewRequest(http.MethodGet, "/page", nil)
			if user != "" {
				req.Header.Set("X-User", user)
			}
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			return rec.Header().Get("X-Cache")
		}
		for i, want := range []string{"MISS", "PAGE"} {
			if xc := visit("u1"); xc != want {
				t.Fatalf("u1's visit %d: X-Cache %q, want %q", i, xc, want)
			}
		}
		clk.Advance(time.Second)
		if xc := visit("u2"); xc == "PAGE" {
			t.Fatal("u2 was served the page after its grant ended")
		}
		if xc := visit(""); xc != "PAGE" {
			t.Fatalf("anonymous visit after the grant ended: X-Cache %q, want PAGE", xc)
		}
	})
}

// An identified visitor's GET-only answer carries the page's grant, but
// a ref of its plan is below its floor — a fabric event the BEM never heard
// of — and the stale fallback's answer, from an origin that ignores the
// bypass header, is a template of the page as it now is: the visitor's
// own. That page is not the granted plan's, so it must not be filed where
// the anonymous visitor, or another identity, is served — and since the
// granted plan's run went stale, the grant is not filed either.
func TestPageLeaseStaleFallbackFilesNothing(t *testing.T) {
	var personal atomic.Bool
	g := newLeaseRig(t, switchSite(&personal), 4)
	g.hub.BroadcastPurge("/none")
	g.pageLease("u1")
	pg, ok := g.p.pages.Lookup(anonymousPageKey(httptest.NewRequest(http.MethodGet, switchURL, nil)), pagecache.Fresh)
	if !ok {
		t.Fatal("the page's grant filed no entry")
	}
	for i := recordRefs; i+8 <= len(pg.Record); i += 8 {
		g.hub.Broadcast("behind-the-origin", le32(pg.Record[i:]), le32(pg.Record[i+4:]))
	}
	inner := g.link.origin
	g.link.origin = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(headerBypass) != "" {
			r.Header.Del(headerBypass)
			personal.Store(true)
		}
		inner.ServeHTTP(w, r)
	})
	grants := g.p.Registry().Counter("dpc.lease_page_grants").Value()
	g.expect("u1", "BYPASS")
	g.link.origin = inner
	snap := g.p.Registry().Snapshot()
	if snap["dpc.lease_page_grants"] != grants || snap["dpc.stale_fallbacks"] != 1 {
		t.Fatalf("page-scoped grants %d → %d, stale fallbacks %d: want u1's granted answer to go stale and file no grant",
			grants, snap["dpc.lease_page_grants"], snap["dpc.stale_fallbacks"])
	}
	g.expect("", "")
	g.expect("u2", "")
}

// pageLeaseOrigin is an origin for one page of 16 fragments of 1 KiB at
// generation 1, a template with no SET, that answers a lease ask with a
// lease granted as grant says (X-DPC-Lease). origin points a strict
// proxy's configuration at it; warm fills the proxy's store and joins it to
// the fabric, so that its fetches ask for leases.
func pageLeaseOrigin(t testing.TB, grant string) (origin func(*Config), warm func(*Proxy)) {
	const frags, fragBytes = 16, 1 << 10
	var b bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&b)
	for k := uint32(0); k < frags; k++ {
		_ = enc.Literal([]byte("<div>"))
		_ = enc.Get(k, 1)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	body := b.Bytes()
	// The same header maps every time, so an allocation count is the proxy's.
	fullHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}}
	leaseHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}, "X-Dpc-Lease": {grant}}
	origin = func(c *Config) {
		c.Strict = true
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			h := fullHeader
			if r.Header.Get(headerLease) != "" {
				h = leaseHeader
			}
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: h,
			}, nil
		})
	}
	warm = func(p *Proxy) {
		for k := uint32(0); k < frags; k++ {
			if err := p.Store().Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, fragBytes)); err != nil {
				t.Fatal(err)
			}
		}
		p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/none"})
	}
	return origin, warm
}

// An identified visitor's way to the page tier, in its trace: bypassed
// until an answer carries the page's grant and fills the tier, then hits
// noted lease:page — a conditional one lease:page:304.
func TestPageLeaseTraceNotes(t *testing.T) {
	origin, warm := pageLeaseOrigin(t, "none;page")
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		origin(c)
		c.PageCache, c.PageCacheTTL = true, time.Hour
		c.Trace, c.TraceSampleEvery = true, 1
	})
	warm(p)
	steps := []struct {
		xcache string
		kind   trace.Kind
		note   string // on the pagecache span, tier page
	}{
		{"MISS", trace.KindBypass, "identity"}, // the template, with the page's grant: fills the tier
		{"PAGE", trace.KindHit, "lease:page"},  // a hit under the grant
		{"PAGE", trace.KindHit, "lease:page"},  // another
		{"", trace.KindHit, "lease:page:304"},  // and a conditional one
	}
	var etag string
	for i, s := range steps {
		req := httptest.NewRequest(http.MethodGet, "/page", nil)
		req.Header.Set("X-User", "u1")
		if s.xcache == "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if s.xcache == "" && rec.Code != http.StatusNotModified || s.xcache != "" && rec.Header().Get("X-Cache") != s.xcache {
			t.Fatalf("visit %d: status %d X-Cache %q, want %q", i, rec.Code, rec.Header().Get("X-Cache"), s.xcache)
		}
		etag = rec.Header().Get("ETag")
		tr := p.Tracer().Traces(1)
		if span := findChild(tr[0].Root, "pagecache"); !hasEvent(span, s.kind, rulePage, s.note) {
			t.Fatalf("visit %d: pagecache span %+v, want a %s event noted %q", i, span, s.kind, s.note)
		}
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.pagecache_identity_hits"] != 3 || snap["dpc.pagecache_bypass_identity"] != 1 || snap["dpc.pagecache_fills"] != 1 {
		t.Fatalf("identity hits %d, bypasses %d, fills %d; want 3, 1, 1",
			snap["dpc.pagecache_identity_hits"], snap["dpc.pagecache_bypass_identity"], snap["dpc.pagecache_fills"])
	}
}

// A page-scoped grant has one keeper. With the page tier on, an identified
// visitor's answer is filed there for every visitor, and nothing else keeps
// it: no lease under the visitor's fetch key, no plan in the plan cache —
// the lease table is never even allocated — and the visitor and a second
// identity are served the page. Without the tier the same answer files the
// lease, keeps its plan, and the visitor's next visit runs it.
func TestLeasePageGrantHasOneKeeper(t *testing.T) {
	for _, tier := range []bool{true, false} {
		t.Run(fmt.Sprintf("pagecache=%v", tier), func(t *testing.T) {
			origin, warm := pageLeaseOrigin(t, "none;page")
			p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
				origin(c)
				c.PageCache, c.PageCacheTTL = tier, time.Hour
			})
			warm(p)
			visit := func(user string) (*http.Request, string) {
				req := httptest.NewRequest(http.MethodGet, "/page", nil)
				req.Header.Set("X-User", user)
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, req)
				return req, rec.Header().Get("X-Cache")
			}
			resident := p.plans.Stats().Resident
			req, xc := visit("u1")
			if xc != "MISS" {
				t.Fatalf("u1's first visit: X-Cache %q, want MISS", xc)
			}
			_, leased := p.leases.get(flightKey(req))
			plans := p.plans.Stats().Resident - resident
			snap := p.Registry().Snapshot()
			if tier {
				if leased || plans != 0 || p.leases.buckets != nil {
					t.Fatalf("the page tier keeps u1's answer, yet a lease was filed (%v), %d plans kept, table allocated %v",
						leased, plans, p.leases.buckets != nil)
				}
				for _, user := range []string{"u1", "u2"} {
					if _, xc := visit(user); xc != "PAGE" {
						t.Fatalf("%s's visit: X-Cache %q, want PAGE", user, xc)
					}
				}
			} else {
				if !leased || plans != 1 {
					t.Fatalf("without the page tier u1's answer filed a lease %v and kept %d plans; want the lease and its plan", leased, plans)
				}
				if _, xc := visit("u1"); xc != "LEASE" {
					t.Fatalf("u1's next visit: X-Cache %q, want LEASE", xc)
				}
			}
			wantLeases := map[bool]int64{true: 0, false: 1}[tier]
			if snap["dpc.lease_page_grants"] != 1 || snap["dpc.lease_grants"] != wantLeases || snap["dpc.lease_resident"] != wantLeases {
				t.Fatalf("page-scoped grants %d, leases filed %d, resident %d; want 1, %d, %d",
					snap["dpc.lease_page_grants"], snap["dpc.lease_grants"], snap["dpc.lease_resident"], wantLeases, wantLeases)
			}
		})
	}
}
