package dpc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/clock"
)

// decide is a pure function of one request's pressure snapshot; this
// table pins its full decision surface — each signal alone, the
// unbounded (zero) configurations, the follower short-circuit, and the
// hard-before-soft priority the stage comment promises.
func TestAdmissionDecideTable(t *testing.T) {
	cases := []struct {
		name   string
		sig    pressureSignals
		want   admitVerdict
		reason string
	}{
		{"no pressure", pressureSignals{}, admitOK, ""},
		{"queue below cap", pressureSignals{flightExists: true, waiters: 1, maxWaiters: 2}, admitOK, ""},
		{"queue at cap", pressureSignals{flightExists: true, waiters: 2, maxWaiters: 2}, admitShed, "queue"},
		{"queue unbounded", pressureSignals{flightExists: true, waiters: 500}, admitOK, ""},
		// A follower adds no origin work: every non-queue signal is
		// ignored when a flight already exists for the key.
		{"follower ignores origin pressure", pressureSignals{
			flightExists: true, waiters: 0, maxWaiters: 4,
			negCached: true, inFlight: 99, maxInFlight: 1,
			latency: time.Second, shedLatency: time.Millisecond,
		}, admitOK, ""},
		{"negcache", pressureSignals{negCached: true}, admitShed, "negcache"},
		{"inflight at cap", pressureSignals{inFlight: 4, maxInFlight: 4}, admitShed, "inflight"},
		{"inflight below cap", pressureSignals{inFlight: 3, maxInFlight: 4}, admitOK, ""},
		{"inflight unbounded", pressureSignals{inFlight: 1000}, admitOK, ""},
		{"per-tenant at cap", pressureSignals{tenant: "alice", tenantInFlight: 2, maxTenant: 2}, admitShed, "per-tenant"},
		{"anonymous skips tenant bound", pressureSignals{tenant: "", tenantInFlight: 5, maxTenant: 1}, admitOK, ""},
		{"latency at threshold", pressureSignals{latency: 250 * time.Millisecond, shedLatency: 250 * time.Millisecond}, admitStale, "latency"},
		{"latency below threshold", pressureSignals{latency: 249 * time.Millisecond, shedLatency: 250 * time.Millisecond}, admitOK, ""},
		{"latency signal disabled", pressureSignals{latency: time.Hour}, admitOK, ""},
		// Hard bounds outrank soft signals: a capped pipeline must shed
		// even when the EWMA alone would merely prefer stale.
		{"inflight outranks latency", pressureSignals{
			inFlight: 1, maxInFlight: 1,
			latency: time.Second, shedLatency: time.Millisecond,
		}, admitShed, "inflight"},
		{"negcache outranks inflight", pressureSignals{
			negCached: true, inFlight: 9, maxInFlight: 1,
		}, admitShed, "negcache"},
		{"per-tenant outranks latency", pressureSignals{
			tenant: "alice", tenantInFlight: 1, maxTenant: 1,
			latency: time.Second, shedLatency: time.Millisecond,
		}, admitShed, "per-tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, reason := decide(tc.sig)
			if got != tc.want || reason != tc.reason {
				t.Fatalf("decide() = (%v, %q), want (%v, %q)", got, reason, tc.want, tc.reason)
			}
		})
	}
}

// A page tier bounded by bytes sits near its budget once it is warm, which
// says nothing about the origin: on an idle proxy a lapsed page is fetched
// again (MISS), not served stale, and no revalidation starts.
func TestFullPageTierIsNotPressure(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%-100s", r.URL.RequestURI())
	}))
	defer origin.Close()
	const budget = 4096
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.PageCacheBudget = budget
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	const pages = 40
	for i := 0; i < pages; i++ {
		if status, _, _, _ := get(t, fmt.Sprintf("%s/page/p?n=%d", ts.URL, i), nil); status != http.StatusOK {
			t.Fatalf("fill %d: status %d", i, status)
		}
	}
	if b := p.pages.Bytes(); b*10 < budget*9 {
		t.Fatalf("tier holds %d of %d bytes; the test needs it past 90 percent", b, budget)
	}
	fake.Advance(2 * time.Second)
	stale := 0
	for i := 0; i < pages; i++ {
		status, cache, _, _ := get(t, fmt.Sprintf("%s/page/p?n=%d", ts.URL, i), nil)
		if status != http.StatusOK {
			t.Fatalf("re-read %d: status %d", i, status)
		}
		if cache != "MISS" {
			stale++
		}
	}
	if n := p.Registry().Counter("dpc.stale_revalidations").Value(); stale != 0 || n != 0 {
		t.Fatalf("%d of %d lapsed pages were not fetched again, %d revalidations; want 0 and 0 on an idle proxy", stale, pages, n)
	}
}

// holdOrigin blocks requests to blockPath until release is closed and
// answers everything else immediately, counting fetches per path.
type holdOrigin struct {
	blockPath string
	entered   chan struct{}
	release   chan struct{}
	enterOnce sync.Once

	mu      sync.Mutex
	fetches map[string]int
	status  map[string]int // per-path response status override
}

func newHoldOrigin(blockPath string) *holdOrigin {
	return &holdOrigin{
		blockPath: blockPath,
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
		fetches:   make(map[string]int),
		status:    make(map[string]int),
	}
}

func (o *holdOrigin) count(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fetches[path]
}

func (o *holdOrigin) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		o.fetches[r.URL.Path]++
		n := o.fetches[r.URL.Path]
		status := o.status[r.URL.Path]
		o.mu.Unlock()
		if r.URL.Path == o.blockPath {
			o.enterOnce.Do(func() { close(o.entered) })
			<-o.release
		}
		if status != 0 {
			http.Error(w, "origin fault", status)
			return
		}
		fmt.Fprintf(w, "body-%s-%d", r.URL.Path, n)
	}
}

// get performs one GET with optional headers and returns status, the
// X-Cache header, the Retry-After header, and the body.
func get(t *testing.T, url string, hdr map[string]string) (int, string, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("Retry-After"), string(b)
}

// With the global origin in-flight bound at its cap and no stale copy to
// fall back on, a fresh-key request must be refused with a fast 503
// carrying Retry-After (rounded up to whole seconds) and X-Cache: SHED.
func TestAdmissionShed503RetryAfter(t *testing.T) {
	o := newHoldOrigin("/page/block")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.RetryAfter = 1500 * time.Millisecond // must surface as ceil() = 2
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	leaderDone := make(chan int, 1)
	go func() {
		status, _, _, _ := get(t, ts.URL+"/page/block", nil)
		leaderDone <- status
	}()
	<-o.entered // the leader holds the only origin token

	status, cache, retry, body := get(t, ts.URL+"/page/other", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if cache != "SHED" {
		t.Fatalf("X-Cache = %q, want SHED", cache)
	}
	if retry != "2" {
		t.Fatalf("Retry-After = %q, want 2 (1500ms rounded up)", retry)
	}
	if !strings.Contains(body, "overloaded") {
		t.Fatalf("shed body = %q, want an overload notice", body)
	}
	if got := p.Registry().Counter("dpc.shed_503s").Value(); got != 1 {
		t.Fatalf("dpc.shed_503s = %d, want 1", got)
	}
	if got := p.Registry().Counter("dpc.shed_inflight").Value(); got != 1 {
		t.Fatalf("dpc.shed_inflight = %d, want 1", got)
	}
	if got := o.count("/page/other"); got != 0 {
		t.Fatalf("shed request reached the origin %d times", got)
	}

	close(o.release)
	if status := <-leaderDone; status != http.StatusOK {
		t.Fatalf("leader status = %d after release, want 200", status)
	}
	// With the token released the next request must be admitted again.
	if status, _, _, _ := get(t, ts.URL+"/page/other", nil); status != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", status)
	}
}

// A follower joining an open flight costs no origin work, so it is only
// bounded by the flight's queue depth: under MaxFlightWaiters the
// (cap+1)th follower is shed while earlier ones ride the broadcast.
func TestAdmissionQueueBoundSheds(t *testing.T) {
	head := []byte(strings.Repeat("H", 1024))
	tail := []byte("tail")
	o := newBlockingOrigin(head, tail)
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
		c.Admission = true
		c.MaxFlightWaiters = 1
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	key := clientKey(http.MethodGet, "/page/q")
	type res struct {
		status int
		body   string
	}
	rider := make(chan res, 2)
	ride := func() {
		status, _, _, body := get(t, ts.URL+"/page/q", nil)
		rider <- res{status, body}
	}
	go ride() // leader
	<-o.entered
	go ride() // first follower: waiters 0 < 1, admitted
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}

	status, cache, retry, _ := get(t, ts.URL+"/page/q", nil)
	if status != http.StatusServiceUnavailable || cache != "SHED" || retry == "" {
		t.Fatalf("over-cap follower: status=%d cache=%q retry=%q, want a shed 503", status, cache, retry)
	}
	if got := p.Registry().Counter("dpc.shed_queue").Value(); got != 1 {
		t.Fatalf("dpc.shed_queue = %d, want 1", got)
	}

	close(o.release)
	want := string(head) + string(tail)
	for i := 0; i < 2; i++ {
		r := <-rider
		if r.status != http.StatusOK || r.body != want {
			t.Fatalf("rider %d: status=%d body=%d bytes, want 200 with the full page", i, r.status, len(r.body))
		}
	}
	if got := o.fetches.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want 1 (shed follower must not fan out)", got)
	}
}

// MaxTenantInFlight bounds one tenant's concurrent origin work across
// keys; anonymous requests and other tenants are unaffected.
func TestAdmissionPerTenantBound(t *testing.T) {
	o := newHoldOrigin("/page/t1")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxTenantInFlight = 1
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	alice := map[string]string{"X-User": "alice"}
	leaderDone := make(chan int, 1)
	go func() {
		status, _, _, _ := get(t, ts.URL+"/page/t1", alice)
		leaderDone <- status
	}()
	<-o.entered

	status, cache, _, _ := get(t, ts.URL+"/page/t2", alice)
	if status != http.StatusServiceUnavailable || cache != "SHED" {
		t.Fatalf("same-tenant status=%d cache=%q, want shed 503", status, cache)
	}
	if got := p.Registry().Counter("dpc.shed_per_tenant").Value(); got != 1 {
		t.Fatalf("dpc.shed_per_tenant = %d, want 1", got)
	}
	// Another tenant and the anonymous population stay admitted.
	if status, _, _, _ := get(t, ts.URL+"/page/t2", map[string]string{"X-User": "bob"}); status != http.StatusOK {
		t.Fatalf("other-tenant status = %d, want 200", status)
	}
	if status, _, _, _ := get(t, ts.URL+"/page/t2", nil); status != http.StatusOK {
		t.Fatalf("anonymous status = %d, want 200", status)
	}

	close(o.release)
	if status := <-leaderDone; status != http.StatusOK {
		t.Fatalf("leader status = %d, want 200", status)
	}
}

// An origin failure is negative-cached: for NegTTL the key answers with a
// fast 503 without re-touching the origin, then the entry lapses and the
// origin is probed again.
func TestAdmissionNegativeCache(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("/never")
	o.status["/page/err"] = http.StatusInternalServerError
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.NegTTL = 100 * time.Millisecond
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	status, _, _, _ := get(t, ts.URL+"/page/err", nil)
	if status != http.StatusBadGateway {
		t.Fatalf("first status = %d, want 502 (origin 500 surfaces as a gateway error)", status)
	}
	if got := p.Registry().Counter("dpc.negcache_fills").Value(); got != 1 {
		t.Fatalf("dpc.negcache_fills = %d, want 1", got)
	}

	status, cache, retry, _ := get(t, ts.URL+"/page/err", nil)
	if status != http.StatusServiceUnavailable || cache != "SHED" || retry == "" {
		t.Fatalf("negative-cached: status=%d cache=%q retry=%q, want shed 503", status, cache, retry)
	}
	if got := p.Registry().Counter("dpc.negcache_hits").Value(); got != 1 {
		t.Fatalf("dpc.negcache_hits = %d, want 1", got)
	}
	if got := o.count("/page/err"); got != 1 {
		t.Fatalf("origin fetches = %d inside the negative window, want 1", got)
	}

	fake.Advance(100 * time.Millisecond) // at NegTTL: still negative
	if status, _, _, _ := get(t, ts.URL+"/page/err", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("at NegTTL status = %d, want the shed 503", status)
	}
	fake.Advance(time.Millisecond) // past NegTTL
	status, _, _, _ = get(t, ts.URL+"/page/err", nil)
	if status != http.StatusBadGateway {
		t.Fatalf("post-expiry status = %d, want 502 (origin probed again)", status)
	}
	if got := o.count("/page/err"); got != 2 {
		t.Fatalf("origin fetches = %d after expiry, want 2", got)
	}
}

// Under hard pressure an expired page-tier entry inside the stale window
// is served with X-Cache: STALE, and exactly one background revalidation
// replaces it — the expired miss on the hit path must not destroy the
// stale copy first (GetKeep), and the stale bytes must not be re-filed
// under a fresh TTL.
func TestAdmissionStaleServePage(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("/page/block")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.Coalesce = true
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Warm the page tier, then expire the entry.
	if status, _, _, body := get(t, ts.URL+"/page/x", nil); status != http.StatusOK || body != "body-/page/x-1" {
		t.Fatalf("warm fetch: status=%d body=%q", status, body)
	}
	if _, cache, _, _ := get(t, ts.URL+"/page/x", nil); cache != "PAGE" {
		t.Fatalf("second fetch X-Cache = %q, want PAGE", cache)
	}
	fake.Advance(2 * time.Second)

	// Saturate the origin bound with an unrelated key.
	blockDone := make(chan int, 1)
	go func() {
		status, _, _, _ := get(t, ts.URL+"/page/block", nil)
		blockDone <- status
	}()
	<-o.entered
	defer func() {
		close(o.release)
		<-blockDone
	}()

	status, cache, _, body := get(t, ts.URL+"/page/x", nil)
	if status != http.StatusOK || cache != "STALE" {
		t.Fatalf("pressured fetch: status=%d X-Cache=%q, want 200 STALE", status, cache)
	}
	if body != "body-/page/x-1" {
		t.Fatalf("stale body = %q, want the expired entry's bytes", body)
	}
	if got := p.Registry().Counter("dpc.stale_served_page").Value(); got < 1 {
		t.Fatalf("dpc.stale_served_page = %d, want >= 1", got)
	}

	// The background revalidation bypasses admission, refetches, and
	// replaces the stale entry; later hits see the fresh body.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, cache, _, body := get(t, ts.URL+"/page/x", nil)
		if cache == "PAGE" && body == "body-/page/x-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revalidation never replaced the entry: cache=%q body=%q", cache, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := o.count("/page/x"); got != 2 {
		t.Fatalf("origin fetches for /page/x = %d, want 2 (warm + one revalidation)", got)
	}
	if got := p.Registry().Counter("dpc.stale_revalidations").Value(); got != 1 {
		t.Fatalf("dpc.stale_revalidations = %d, want exactly 1", got)
	}
}

// A revalidation can file a fresh entry between the pagecache stage's miss
// on the lapsed one and admission's stale probe. The probe then finds an
// entry that has not lapsed: it is served as the page hit it is — PAGE, its
// ETag, a pagecache hit — and kicks no second revalidation. Driven stage by
// stage, so the window is hit every time.
func TestAdmissionStaleProbeFindsFreshEntry(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.Clock = fake
	})
	p.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/page/x", nil)) // filed
	fake.Advance(2 * time.Second)
	defer p.admit.acquire("")() // the origin bound is taken

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/page/x", nil)
	rs := &reqState{w: rec, r: req, start: time.Now()}
	if out, err := p.stagePageCache(rs); out != stageNext || err != nil || rs.fillKey == "" {
		t.Fatalf("pagecache stage on the lapsed entry: %v %v, admitted %v; want a miss", out, err, rs.fillKey != "")
	}
	// What the revalidation would file, landing in the window.
	fresh := []byte("body-/page/x-fresh")
	etag := pageETag(fresh, "text/plain")
	p.pages.PutTagged(pageKey(req), fresh, "text/plain", etag, packRecord(0, 0, nil), time.Second)

	if out, err := p.stageAdmission(rs); out != stageRespond || err != nil {
		t.Fatalf("admission stage: %v %v, want a response from the tier", out, err)
	}
	if _, err := p.stageRespond(rs); err != nil {
		t.Fatal(err)
	}
	if got := rec.Header().Get("X-Cache"); got != "PAGE" || rec.Body.String() != string(fresh) || rec.Header().Get("ETag") != etag {
		t.Fatalf("X-Cache %q ETag %q body %q; want the fresh entry as a PAGE hit with its ETag", got, rec.Header().Get("ETag"), rec.Body)
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.stale_revalidations"] != 0 || snap["dpc.stale_served_page"] != 0 || snap["dpc.pagecache_hits"] != 1 {
		t.Fatalf("stale_revalidations=%d stale_served_page=%d pagecache_hits=%d; want 0, 0, 1",
			snap["dpc.stale_revalidations"], snap["dpc.stale_served_page"], snap["dpc.pagecache_hits"])
	}
	if n := o.count("/page/x"); n != 1 {
		t.Fatalf("origin fetches for /page/x = %d, want the warm one alone", n)
	}
}

// Admission lets a request through without a token when a flight is open
// for its key: it will follow. If that flight — a revalidation's, here —
// closes before the request joins it, the request would fetch on its own,
// past the origin bound. It is admitted again instead, and served what the
// flight filed, as a PAGE hit. Driven stage by stage.
func TestAdmissionStaleFollowerWhoseFlightClosed(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.Coalesce = true
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.Clock = fake
	})
	p.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/page/x", nil)) // filed
	fake.Advance(2 * time.Second)
	defer p.admit.acquire("")() // the origin bound is taken

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/page/x", nil)
	rs := &reqState{w: rec, r: req, start: time.Now()}
	reval, leader, _ := p.flights.join(rs.flightKey(), http.MethodGet, true)
	if !leader {
		t.Fatal("could not open the revalidation's flight")
	}
	if out, err := p.stagePageCache(rs); out != stageNext || err != nil {
		t.Fatalf("pagecache stage on the lapsed entry: %v %v; want a miss", out, err)
	}
	if out, err := p.stageAdmission(rs); out != stageNext || err != nil || !rs.admitFollower || rs.admitRelease != nil {
		t.Fatalf("admission: %v %v follower=%v token=%v; want a follower, no token", out, err, rs.admitFollower, rs.admitRelease != nil)
	}
	// The revalidation files its page and closes its flight.
	fresh := []byte("body-/page/x-fresh")
	p.pages.PutTagged(pageKey(req), fresh, "text/plain", pageETag(fresh, "text/plain"), packRecord(0, 0, nil), time.Second)
	p.flights.finish(reval, false)

	if out, err := p.stageCoalesce(rs); out != stageRespond || err != nil || rs.flight != nil {
		t.Fatalf("coalesce with the flight gone: %v %v, leads a flight: %v; want a response from the tier", out, err, rs.flight != nil)
	}
	if _, err := p.stageRespond(rs); err != nil {
		t.Fatal(err)
	}
	if got := rec.Header().Get("X-Cache"); got != "PAGE" || rec.Body.String() != string(fresh) {
		t.Fatalf("X-Cache %q body %q; want the flight's page as a PAGE hit", got, rec.Body)
	}
	if n, revals := o.count("/page/x"), p.Registry().Counter("dpc.stale_revalidations").Value(); n != 1 || revals != 0 {
		t.Fatalf("origin fetches for /page/x = %d, revalidations = %d; want the warm fetch alone", n, revals)
	}
}

// A stale serve claims the revalidation slot only after probing: the
// previous revalidation may have refilled the entry and released the slot
// in between. The claim re-probes, finds the entry fresh, and starts
// nothing.
func TestAdmissionStaleRevalidationSkipsRefilledEntry(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.Clock = fake
	})
	req := httptest.NewRequest(http.MethodGet, "/page/x", nil)
	p.ServeHTTP(httptest.NewRecorder(), req) // filed
	fake.Advance(2 * time.Second)
	fresh := []byte("body-/page/x-fresh")
	p.pages.PutTagged(pageKey(req), fresh, "text/plain", pageETag(fresh, "text/plain"), packRecord(0, 0, nil), time.Second)

	rs := &reqState{w: httptest.NewRecorder(), r: req, start: time.Now()}
	p.kickRevalidate(rs, rs.flightKey(), pageKey(req))
	if n := p.Registry().Counter("dpc.stale_revalidations").Value(); n != 0 {
		t.Fatalf("dpc.stale_revalidations = %d for a refilled entry, want 0", n)
	}
	if !p.admit.revalTryStart(rs.flightKey()) {
		t.Fatal("the revalidation slot was not released")
	}
	if n := o.count("/page/x"); n != 1 {
		t.Fatalf("origin fetches for /page/x = %d, want the warm one alone", n)
	}
}

// A burst of stale serves for one key must collapse to ONE revalidation:
// the per-key reval slot is claimed once, every other pressured request
// serves the stale copy (or rides the revalidation's flight), and the
// entry is replaced exactly once.
func TestStaleRevalidationReplacesOnce(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	o := newHoldOrigin("/page/block")
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.Coalesce = true
		c.PageCache = true
		c.PageCacheTTL = time.Second
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	if status, _, _, _ := get(t, ts.URL+"/page/burst", nil); status != http.StatusOK {
		t.Fatal("warm fetch failed")
	}
	fake.Advance(2 * time.Second)

	// Pin the origin token with the dedicated blocking path.
	blockStatus := make(chan int, 1)
	go func() {
		status, _, _, _ := get(t, ts.URL+"/page/block", nil)
		blockStatus <- status
	}()
	<-o.entered
	defer func() {
		close(o.release)
		<-blockStatus
	}()

	const burst = 8
	var wg sync.WaitGroup
	var staleSeen atomic.Int64
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, cache, _, body := get(t, ts.URL+"/page/burst", nil)
			if status != http.StatusOK {
				errs <- fmt.Errorf("burst request: status %d cache %q", status, cache)
				return
			}
			if cache == "STALE" {
				staleSeen.Add(1)
				if body != "body-/page/burst-1" {
					errs <- fmt.Errorf("stale body = %q", body)
				}
				return
			}
			// Rode the revalidation's flight or landed after the
			// replacement: must see the refreshed page.
			if body != "body-/page/burst-2" {
				errs <- fmt.Errorf("fresh-path body = %q (cache %q)", body, cache)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if staleSeen.Load() == 0 {
		t.Error("no burst request was served stale")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, cache, _, body := get(t, ts.URL+"/page/burst", nil)
		if cache == "PAGE" && body == "body-/page/burst-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revalidation never replaced the entry: cache=%q body=%q", cache, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := o.count("/page/burst"); got != 2 {
		t.Fatalf("origin fetches = %d, want 2 (duplicate revalidations or fills)", got)
	}
	if got := p.Registry().Counter("dpc.stale_revalidations").Value(); got != 1 {
		t.Fatalf("dpc.stale_revalidations = %d, want exactly 1", got)
	}
}

// The origin's opt-in entries serve stale under pressure too: an expired
// Cache-Control entry inside the window answers with X-Cache: STALE.
func TestAdmissionStaleServeStatic(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var cssFetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/page/block" {
			once.Do(func() { close(entered) })
			<-release
			fmt.Fprint(w, "blocked")
			return
		}
		n := cssFetches.Add(1)
		w.Header().Set("Cache-Control", "max-age=1")
		w.Header().Set("Content-Type", "text/css")
		fmt.Fprintf(w, "css-%d", n)
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 1
		c.Clock = fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	if status, _, _, body := get(t, ts.URL+"/static/app.css", nil); status != http.StatusOK || body != "css-1" {
		t.Fatalf("warm fetch: status=%d body=%q", status, body)
	}
	if _, cache, _, _ := get(t, ts.URL+"/static/app.css", nil); cache != "STATIC" {
		t.Fatalf("second fetch X-Cache = %q, want STATIC", cache)
	}
	fake.Advance(2 * time.Second)

	blockDone := make(chan struct{})
	go func() {
		defer close(blockDone)
		get(t, ts.URL+"/page/block", nil)
	}()
	<-entered
	defer func() {
		close(release)
		<-blockDone
	}()

	status, cache, _, body := get(t, ts.URL+"/static/app.css", nil)
	if status != http.StatusOK || cache != "STALE" || body != "css-1" {
		t.Fatalf("pressured fetch: status=%d cache=%q body=%q, want 200 STALE css-1", status, cache, body)
	}
	if got := p.Registry().Counter("dpc.stale_served_page").Value(); got < 1 {
		t.Fatalf("dpc.stale_served_page = %d, want >= 1", got)
	}
}

// Storm the admission stage from many goroutines against a flaky, slow
// origin with every bound armed (run under -race in CI): all responses
// must be well-formed — fresh 200, stale 200, shed 503, or gateway 502 —
// and the proxy must still serve cleanly once the storm passes.
func TestAdmissionStormRace(t *testing.T) {
	var n atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%4 == 0 {
			http.Error(w, "origin fault", http.StatusInternalServerError)
			return
		}
		time.Sleep(2 * time.Millisecond)
		fmt.Fprintf(w, "storm-body-%s", r.URL.RawQuery)
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Admission = true
		c.MaxOriginInFlight = 2
		c.MaxTenantInFlight = 2
		c.MaxFlightWaiters = 2
		c.NegTTL = 20 * time.Millisecond
		c.Coalesce = true
		c.Stream = true
		c.PageCache = true
		c.PageCacheTTL = 50 * time.Millisecond
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	bad := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				hdr := map[string]string{}
				if w%3 == 1 {
					hdr["X-User"] = fmt.Sprintf("tenant-%d", w%2)
				}
				status, _, _, _ := get(t, fmt.Sprintf("%s/page/storm?k=%d", ts.URL, i%4), hdr)
				switch status {
				case http.StatusOK, http.StatusBadGateway, http.StatusServiceUnavailable:
				default:
					bad <- fmt.Sprintf("worker %d request %d: status %d", w, i, status)
				}
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}

	// After the storm and the negative window, a clean key must serve.
	time.Sleep(50 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, _, _, _ := get(t, ts.URL+"/page/after-storm", nil)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy never recovered after the storm: status %d", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
