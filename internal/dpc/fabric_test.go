package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

// One hub.Subscribe(p) reaches all three tiers: a fragment event drops the
// slot and voids the filed page built from it, a "plan" flush empties the
// plans, and a skipped sequence number flushes each tier exactly once.
func TestApplyReachesEveryTier(t *testing.T) {
	var gen atomic.Uint32 // of fragment 1, which /opt SETs; the page rule files /opt
	gen.Store(1)
	plan := templateBody(t, func(enc tmpl.Encoder) { // GET-only: the kind the plan tier keeps
		_ = enc.Literal([]byte("<p>"))
		_ = enc.Get(2, 1)
		_ = enc.Literal([]byte("</p>"))
	})
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.PageCache, c.PageCacheTTL = true, time.Minute
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			// /plan forbids caching, so each visit runs its plan.
			h := http.Header{"X-Dpc-Template": {"binary"}, "Cache-Control": {"no-store"}}
			body := plan
			if r.URL.Path == "/opt" {
				h.Del("Cache-Control")
				body = templateBody(t, func(enc tmpl.Encoder) {
					_ = enc.Literal([]byte("<html>"))
					_ = enc.Set(1, gen.Load(), []byte("opted in"))
					_ = enc.Literal([]byte("</html>"))
				})
			}
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: h,
			}, nil
		})
	})
	warm := func() {
		t.Helper()
		if err := p.Store().Set(2, 1, []byte("held")); err != nil {
			t.Fatal(err)
		}
		serveGet(p, "/opt")
		if state := serveGet(p, "/opt").Header().Get("X-Cache"); state != "PAGE" {
			t.Fatalf("filed page's revisit X-Cache = %q, want PAGE", state)
		}
		if rec := serveGet(p, "/plan"); rec.Body.String() != "<p>held</p>" {
			t.Fatalf("/plan = %q", rec.Body)
		}
		if n := p.Plans().Stats().Resident; n != 1 {
			t.Fatalf("plans resident = %d, want 1", n)
		}
	}
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	hub.Subscribe(p)
	// The first event attaches the proxy, which empties the plan tier; the
	// plans compiled after it are the ones events must leave alone.
	hub.BroadcastPurge("/none")

	warm()
	hub.Broadcast("frag", 1, gen.Add(1)-1)
	if _, ok := p.Store().Get(1, 1, false); ok {
		t.Fatal("fragment event left the slot resident")
	}
	if n := p.Plans().Stats().Resident; n != 1 {
		t.Fatalf("fragment event disturbed the plans: resident = %d", n)
	}
	if rec := serveGet(p, "/opt"); rec.Header().Get("X-Cache") == "PAGE" || rec.Body.String() != "<html>opted in</html>" {
		t.Fatalf("after its fragment's event the filed page was served X-Cache %q, %q", rec.Header().Get("X-Cache"), rec.Body)
	}
	if n := p.Registry().Counter("dpc.pagecache_invalidations").Value(); n != 1 {
		t.Fatalf("dpc.pagecache_invalidations = %d, want 1: the dead entry, found on the read", n)
	}

	hub.BroadcastFlush("plan")
	if n := p.Plans().Stats().Resident; n != 0 {
		t.Fatalf("plan flush left %d plans", n)
	}

	warm()
	if acked := p.Apply(coherency.Event{Seq: hub.Seq() + 2, Kind: coherency.KindPurge, URI: "/elsewhere"}); acked != hub.Seq()+2 {
		t.Fatalf("acked %d", acked)
	}
	if p.Store().Resident() != 0 || p.Plans().Stats().Resident != 0 {
		t.Fatalf("gap left store %d, plans %d", p.Store().Resident(), p.Plans().Stats().Resident)
	}
	if state := serveGet(p, "/opt").Header().Get("X-Cache"); state == "PAGE" {
		t.Fatal("the filed page was served from the tier across a gap")
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.pagecache_gap_flushes"] != 1 || snap["dpc.pagecache_flushes"] != 1 {
		t.Fatalf("gap flushes = %d of %d flushes, want 1 of 1", snap["dpc.pagecache_gap_flushes"], snap["dpc.pagecache_flushes"])
	}
}

// Fills racing invalidations on the real fill path: fillers capture a
// page's one fragment early and file late through fillTier, while a writer
// invalidates through Apply and reads each page back through the tier's
// validating read. Once Apply has returned for a generation, no page built
// from it is served, and no event flushes the tier.
func TestConcurrentFillsAndInvalidations(t *testing.T) {
	t.Run("default", concurrentFillsAndInvalidations)
}

func concurrentFillsAndInvalidations(t *testing.T) {
	const pages, writes, fillers = 16, 400, 4
	p := newTestProxy(t, "http://origin.invalid", nil)
	pageKey := func(p uint32) string { return fmt.Sprintf("page-%d", p) }
	// live[p] is the generation of page p's one fragment; attempts counts
	// the fills begun, so the writer can keep pace with them.
	var live [pages]atomic.Uint32
	var attempts atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < fillers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := f * pages / fillers; ; i++ { // each filler cycles every page
				select {
				case <-stop:
					return
				default:
				}
				pg := uint32(i % pages)
				epoch := p.fabric.epoch.Load()
				// The fragment is read early, and the page filed late.
				gen := live[pg].Load()
				fillCaptured(p, nil, pageKey(pg), strconv.Itoa(int(gen)), epoch, StaleRef{Key: pg, Gen: gen})
				attempts.Add(1)
			}
		}(f)
	}
	served := func(pg uint32) (string, bool) {
		hit, ok := p.tierGet(&reqState{}, pageKey(pg), rulePage, 0)
		return string(hit.AppendBody(nil)), ok
	}
	for seq := uint64(1); seq <= writes; seq++ {
		for attempts.Load() < int64(seq)*fillers {
			runtime.Gosched()
		}
		pg := uint32(seq % pages)
		dead := live[pg].Add(1) - 1
		p.Apply(coherency.Event{Seq: seq, Kind: coherency.KindFragment, Key: pg, Gen: dead})
		if body, ok := served(pg); ok && body == strconv.Itoa(int(dead)) {
			t.Errorf("page %d was served built from generation %d after its event", pg, dead)
		}
	}
	close(stop)
	wg.Wait()
	for pg := uint32(0); pg < pages; pg++ {
		if body, ok := served(pg); ok && body != strconv.Itoa(int(live[pg].Load())) {
			t.Errorf("page %d was served built from generation %s, the live one is %d", pg, body, live[pg].Load())
		}
	}
	if n := p.Registry().Counter("dpc.pagecache_flushes").Value(); n != 0 {
		t.Errorf("%d tier flushes", n)
	}
}

// fillCaptured files body under key through fillTier, as the response to a
// request traced under span whose capture began at epoch and was assembled
// from refs.
func fillCaptured(p *Proxy, span *trace.Span, key, body string, epoch uint64, refs ...StaleRef) {
	p.fillTier(&reqState{
		w: httptest.NewRecorder(), r: httptest.NewRequest(http.MethodGet, "/", nil), span: span,
		pageCapture: &pageCapture{buf: []byte(body)},
		fillKey:     key, fillTTL: time.Minute, fillRule: rulePage,
		depRefs: refs, depEpoch: epoch,
	})
}

// A push-subscribed proxy asks for no lease until its first event attaches
// it, so a plan it compiled before then is named by no lease, and its page
// is answered from then on by the tier or a lease: the first event empties
// the plan tier. A lease filed after it keeps its plan and hits.
func TestFirstAttachFlushesPlans(t *testing.T) {
	origin, _ := pageLeaseOrigin(t, "none")
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		origin(c)
		c.Coalesce, c.Stream = true, true
	})
	for k := uint32(0); k < 16; k++ {
		if err := p.Store().Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	visit := func() string {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/page", nil))
		return rec.Header().Get("X-Cache")
	}
	visit()
	visit()
	if n := p.Plans().Stats().Resident; n != 1 {
		t.Fatalf("setup: %d plans resident before the fabric attached, want 1", n)
	}
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/none"})
	if n := p.Plans().Stats().Resident; n != 0 {
		t.Fatalf("%d plans resident after the first event, want 0", n)
	}
	if got := []string{visit(), visit(), visit()}; !slices.Equal(got, []string{"MISS", "LEASE", "LEASE"}) {
		t.Fatalf("X-Cache after attaching = %q, want MISS (the grant) then LEASE", got)
	}
	if n := p.Plans().Stats().Resident; n != 1 {
		t.Fatalf("%d plans resident beside the lease, want its one", n)
	}
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindPurge, URI: "/none"})
	if n, hits := p.Plans().Stats().Resident, p.Registry().Counter("dpc.lease_hits").Value(); n != 1 || hits != 2 || visit() != "LEASE" {
		t.Fatalf("after a second event: %d plans resident, %d lease hits; only the first attachment flushes", n, hits)
	}
}
