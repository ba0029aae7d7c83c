package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/tmpl"
)

// A lease hit asks the origin nothing, so the pagecache stage answers it,
// beside the tier probe: admission and the flight see only requests that go
// to the origin. These tests hold the proxy to that, and to what a lease
// found void leaves behind.

// stageOrigin serves /page, one fragment (slot 1) at its current
// generation: the template is a literal and a GET of (1, gen), or a SET of
// it while set says the proxy has yet to be sent that generation. A lease
// ask is granted (none) on a template with no SET. With
// cookie every answer carries a Set-Cookie. /slow answers "slow" plain and
// /plain "plain", uncacheable. A request whose path is held parks until
// release.
type stageOrigin struct {
	t      testing.TB
	mu     sync.Mutex
	gen    uint32
	set    bool
	cookie bool
	held   string
	parked chan struct{} // closed when a held request has parked
	hold   chan struct{} // closed by release
}

func (o *stageOrigin) template() []byte {
	var b bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&b)
	_ = enc.Literal([]byte("<p>"))
	if o.set {
		_ = enc.Set(1, o.gen, []byte(fmt.Sprintf("v%d", o.gen)))
	} else {
		_ = enc.Get(1, o.gen)
	}
	if err := enc.Flush(); err != nil {
		o.t.Error(err)
	}
	return b.Bytes()
}

// holdNext parks the next request for path until release.
func (o *stageOrigin) holdNext(path string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.held, o.parked, o.hold = path, make(chan struct{}), make(chan struct{})
}

func (o *stageOrigin) release() { close(o.hold) }

// write moves the fragment to its next generation, sent with a SET next,
// and drops the Set-Cookie, returning the dead generation.
func (o *stageOrigin) write() uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	dead := o.gen
	o.gen++
	o.set, o.cookie = true, false
	return dead
}

func (o *stageOrigin) RoundTrip(r *http.Request) (*http.Response, error) {
	o.mu.Lock()
	var hold chan struct{}
	if r.URL.Path == o.held {
		close(o.parked)
		hold, o.held = o.hold, ""
	}
	h := http.Header{"Content-Type": {"text/html"}}
	if o.cookie {
		h.Set("Set-Cookie", "s=1")
	}
	var body []byte
	switch r.URL.Path {
	case "/slow":
		body = []byte("slow")
	case "/plain":
		body = []byte("plain")
		h.Set("Cache-Control", "no-store")
	default:
		h.Set(headerTemplate, "binary")
		body = o.template()
		if !o.set && r.Header.Get(headerLease) != "" {
			h.Set(headerLease, "none")
		}
		o.set = false
	}
	o.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return &http.Response{
		StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
		Body: io.NopCloser(bytes.NewReader(body)), Header: h,
	}, nil
}

// newStageRig is a strict proxy on the fabric in front of a stageOrigin
// whose store holds the fragment's first generation; configure adjusts its
// configuration.
func newStageRig(t *testing.T, configure func(*Config)) (*Proxy, *stageOrigin) {
	o := &stageOrigin{t: t, gen: 1}
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Strict = true
		c.Transport = o
		if configure != nil {
			configure(c)
		}
	})
	if err := p.Store().Set(1, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/none"})
	return p, o
}

// serveAs serves one GET of path through p, anonymous or as user.
func serveAs(p *Proxy, path, user string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

// expectVisits serves /page once per entry of xcache and checks each
// answer's X-Cache and body.
func expectVisits(t *testing.T, p *Proxy, user, body string, xcache ...string) {
	t.Helper()
	for i, want := range xcache {
		rec := serveAs(p, "/page", user)
		if got := rec.Header().Get("X-Cache"); rec.Code != http.StatusOK || got != want || rec.Body.String() != body {
			t.Fatalf("visit %d of /page: status %d X-Cache %q body %q, want %q and %q", i, rec.Code, got, rec.Body, want, body)
		}
	}
}

// A lease granted on an answer the page rule may not file (it set a cookie)
// keeps that answer's verdict, and a lease hit is not filed. But when the
// lease turns out void, the fetch that replaces it is a fresh answer with a
// verdict of its own: the origin's cacheable answer is filed.
func TestLeaseVoidLeavesTheRefetchCacheable(t *testing.T) {
	p, o := newStageRig(t, func(c *Config) {
		c.PageCache, c.PageCacheTTL = true, time.Hour
	})
	o.cookie = true
	// The template with the grant, then the lease: neither may be filed.
	expectVisits(t, p, "", "<p>v1", "MISS", "LEASE")
	if n := p.Registry().Counter("dpc.pagecache_fills").Value(); n != 0 {
		t.Fatalf("%d fills of answers that set a cookie", n)
	}
	dead := o.write()
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 1, Gen: dead})
	expectVisits(t, p, "", "<p>v2", "MISS", "PAGE")
	snap := p.Registry().Snapshot()
	if snap["dpc.lease_floor_voids"] != 1 || snap["dpc.pagecache_fills"] != 1 {
		t.Fatalf("floor voids %d, fills %d; want the lease voided and the fresh answer filed",
			snap["dpc.lease_floor_voids"], snap["dpc.pagecache_fills"])
	}
}

// Admission bounds the requests that go to the origin, and a lease hit is
// not one: with every origin token held by a fetch for another page, a
// request its lease answers is served, and not queued or shed.
func TestLeaseServedPastFullAdmission(t *testing.T) {
	p, o := newStageRig(t, func(c *Config) {
		c.Coalesce = true
		c.Admission, c.MaxOriginInFlight = true, 1
	})
	expectVisits(t, p, "u1", "<p>v1", "MISS", "LEASE")
	o.holdNext("/slow")
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- serveAs(p, "/slow", "u2") }()
	<-o.parked
	expectVisits(t, p, "u1", "<p>v1", "LEASE")
	if n := p.Registry().Counter("dpc.shed_503s").Value(); n != 0 {
		t.Fatalf("%d requests shed while the origin's one token was held", n)
	}
	o.release()
	if rec := <-done; rec.Code != http.StatusOK || rec.Body.String() != "slow" {
		t.Fatalf("the held fetch: status %d body %q", rec.Code, rec.Body)
	}
}

// A lease hit opens no flight, so it has no follower to serve and copies its
// page into no broadcast buffer. A request whose lease turns out void goes
// to the origin as a miss does: it leads a flight, and a request for the same
// key that arrives meanwhile follows it.
func TestLeaseHitOpensNoFlight(t *testing.T) {
	p, o := newStageRig(t, func(c *Config) { c.Coalesce = true })
	flights := func() uint64 {
		p.flights.mu.Lock()
		defer p.flights.mu.Unlock()
		return p.flights.seq
	}
	expectVisits(t, p, "", "<p>v1", "MISS")
	opened := flights()
	expectVisits(t, p, "", "<p>v1", "LEASE", "LEASE", "LEASE")
	coalesced := p.Registry().Counter("dpc.coalesced")
	if n := flights(); n != opened || coalesced.Value() != 0 {
		t.Fatalf("three lease hits opened %d flights and coalesced %d; want none", n-opened, coalesced.Value())
	}

	dead := o.write()
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 1, Gen: dead})
	o.holdNext("/page")
	leader, follower := make(chan *httptest.ResponseRecorder), make(chan *httptest.ResponseRecorder)
	go func() { leader <- serveAs(p, "/page", "") }()
	<-o.parked
	go func() { follower <- serveAs(p, "/page", "") }()
	key := flightKey(httptest.NewRequest(http.MethodGet, "/page", nil))
	for p.flights.waiting(key) == 0 {
		time.Sleep(time.Millisecond)
	}
	o.release()
	for _, c := range []struct {
		ch     chan *httptest.ResponseRecorder
		xcache string
	}{{leader, "MISS"}, {follower, "COALESCE-FOLLOWER"}} {
		if rec := <-c.ch; rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != c.xcache || rec.Body.String() != "<p>v2" {
			t.Fatalf("status %d X-Cache %q body %q, want %q and <p>v2", rec.Code, rec.Header().Get("X-Cache"), rec.Body, c.xcache)
		}
	}
	if n := flights(); n != opened+1 || coalesced.Value() != 1 || p.Registry().Counter("dpc.lease_floor_voids").Value() != 1 {
		t.Fatalf("flights opened %d, coalesced %d, floor voids %d; want 1, 1, 1",
			n-opened, coalesced.Value(), p.Registry().Counter("dpc.lease_floor_voids").Value())
	}
}

// The stage histograms tile each request: the clock is read once per stage
// boundary, from the request's start, so their sum is the request's wall
// time up to the end of respond. dpc.latency is read inside respond, so it
// is at most that sum, short of it by no more than respond's own time. The
// same holds whichever stage answered: a lease, the page tier or the origin.
func TestStageTimesTileTheRequest(t *testing.T) {
	p, _ := newStageRig(t, func(c *Config) {
		c.Coalesce = true
		c.PageCache, c.PageCacheTTL = true, time.Hour
	})
	const n = 20
	expectVisits(t, p, "u1", "<p>v1", "MISS")
	expectVisits(t, p, "u1", "<p>v1", slices.Repeat([]string{"LEASE"}, n)...)
	expectVisits(t, p, "", "<p>v1", "MISS")
	expectVisits(t, p, "", "<p>v1", slices.Repeat([]string{"PAGE"}, n)...)
	for i := 0; i < n; i++ {
		if rec := serveAs(p, "/plain", ""); rec.Header().Get("X-Cache") != "MISS" {
			t.Fatalf("/plain: X-Cache %q, want MISS", rec.Header().Get("X-Cache"))
		}
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.lease_hits"] != n || snap["dpc.pagecache_hits"] != n || snap["dpc.plain_passthrough"] != n {
		t.Fatalf("lease hits %d, page hits %d, origin misses %d; want %d each",
			snap["dpc.lease_hits"], snap["dpc.pagecache_hits"], snap["dpc.plain_passthrough"], n)
	}
	var stages time.Duration
	for _, st := range p.Stages() {
		stages += st.hist.Buckets().Sum
	}
	wall := p.Registry().Histogram("dpc.latency").Buckets().Sum
	respond := p.Stages()[p.respondIdx].hist.Buckets().Sum
	if stages < wall || stages > wall+respond {
		t.Fatalf("the stages sum to %v over %d requests, dpc.latency to %v: want at least that and at most %v more (respond's time)",
			stages, snap["dpc.requests"], wall, respond)
	}
}
