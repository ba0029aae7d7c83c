package dpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/coherency"
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

// pageLease visits as user until the origin grants the page's lease.
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

// A page-tier entry serves an identified visitor only when the page's live
// lease vouches for it — its record names the lease's plan — and only a run
// of that lease fills it for one. The page here switches scope through
// state the fabric never hears of, so the entry's record and the lease's
// term are all that stand between one visitor and another's page.
func TestPageLeaseMustAgreeWithEntry(t *testing.T) {
	// The anonymous page is filed while the layout reads the visitor; then
	// the page turns every visitor's and u1 earns the page's lease. The
	// entry's refs all live, but it is not the lease's page: u2 must be
	// served the lease's, and u3 the entry that run filed.
	t.Run("entry-of-another-plan", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 1)
		g.hub.BroadcastPurge("/none")
		personal.Store(true)
		g.expect("", "")
		g.expect("", "PAGE")
		personal.Store(false)
		g.pageLease("u1")
		g.expect("u2", "LEASE")
		g.expect("u3", "PAGE")
		if n := g.p.Registry().Counter("dpc.pagecache_identity_hits").Value(); n != 1 {
			t.Fatalf("dpc.pagecache_identity_hits = %d, want u3's visit", n)
		}
	})
	// The page's lease and its entry agree; then the page turns per-visitor
	// and a write kills the news item. u1 still finds the lease within its
	// term, misses the dead entry and captures, but the lease is void and
	// the origin renders u1's own page: that capture must not be filed
	// where the anonymous visitor looks.
	t.Run("void-lease-files-nothing", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 2)
		g.hub.BroadcastPurge("/none")
		g.pageLease("u1")
		g.expect("u2", "LEASE")
		g.expect("u3", "PAGE")
		personal.Store(true)
		g.repo.Put(repository.Key{Table: "news", Row: "n0"}, map[string]string{"title": "second"})
		bypassed := g.p.Registry().Counter("dpc.pagecache_bypass_identity").Value()
		g.expect("u1", "")
		if n := g.p.Registry().Counter("dpc.lease_floor_voids").Value(); n != 1 {
			t.Fatalf("dpc.lease_floor_voids = %d, want u1's lease run to find the item dead", n)
		}
		g.expect("", "")
		if n := g.p.Registry().Counter("dpc.pagecache_bypass_identity").Value(); n != bypassed+1 {
			t.Fatalf("dpc.pagecache_bypass_identity moved %d → %d, want u1's refused fill counted", bypassed, n)
		}
	})
	// The entry outlives the lease that vouched for it: filed halfway
	// through the lease's term, it is fresh for as long again. Once the
	// term is over the lease vouches for nothing, and the page, now
	// per-visitor, must be u3's own.
	t.Run("lease-past-its-term", func(t *testing.T) {
		var personal atomic.Bool
		g := newLeaseRig(t, switchSite(&personal), 3)
		g.hub.BroadcastPurge("/none")
		g.pageLease("u1")
		g.clk.Advance(leaseModelTTL / 2)
		g.expect("u2", "LEASE")
		personal.Store(true)
		g.clk.Advance(leaseModelTTL/2 + time.Second)
		g.expect("u3", "")
	})
}

// pageLeaseOrigin is an origin for one page of 16 fragments of 1 KiB at
// generation 1 that answers an offer of its template by reference with a
// page-scoped lease. origin points a strict proxy's configuration at it;
// warm fills the proxy's store and joins it to the fabric, so that its
// fetches ask for leases.
func pageLeaseOrigin(t testing.TB) (origin func(*Config), warm func(*Proxy)) {
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
	digest := hexDigest(body)
	// The same header maps every time, so an allocation count is the proxy's.
	fullHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}}
	leaseHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}, "X-Dpc-Same": {"1"}, "X-Dpc-Lease": {"none;page"}}
	origin = func(c *Config) {
		c.Strict = true
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if r.Header.Get(headerHave) == digest {
				return &http.Response{StatusCode: http.StatusOK, Request: r, Body: http.NoBody, Header: leaseHeader}, nil
			}
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: fullHeader,
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
// until the page holds a lease, then a miss that runs the lease and fills
// the tier, then hits noted lease:page — a conditional one lease:page:304.
func TestPageLeaseTraceNotes(t *testing.T) {
	origin, warm := pageLeaseOrigin(t)
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
		{"MISS", trace.KindBypass, "identity"},  // the template
		{"MISS", trace.KindBypass, "identity"},  // by reference, granting the page's lease
		{"LEASE", trace.KindMiss, "lease:page"}, // the lease's run fills the tier
		{"PAGE", trace.KindHit, "lease:page"},   // a hit under the lease
		{"", trace.KindHit, "lease:page:304"},   // and a conditional one
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
	if snap["dpc.pagecache_identity_hits"] != 2 || snap["dpc.pagecache_bypass_identity"] != 2 || snap["dpc.pagecache_fills"] != 1 {
		t.Fatalf("identity hits %d, bypasses %d, fills %d; want 2, 2, 1",
			snap["dpc.pagecache_identity_hits"], snap["dpc.pagecache_bypass_identity"], snap["dpc.pagecache_fills"])
	}
}
