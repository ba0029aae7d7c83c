package coherency_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

func newPullHub(t testing.TB) *coherency.Hub {
	t.Helper()
	mon, err := bem.New(bem.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	return coherency.NewHub(mon)
}

// join registers a puller and returns its cursor.
func join(t *testing.T, hub *coherency.Hub) coherency.Cursor {
	t.Helper()
	a := hub.Poll(context.Background(), coherency.Cursor{})
	if a.Gap || a.Sub == 0 || len(a.Events) != 0 {
		t.Fatalf("join answered %+v", a)
	}
	return coherency.Cursor{Inc: a.Inc, Sub: a.Sub, After: a.Seq}
}

// broadcast runs a fragment broadcast in the background; the channel is
// closed when it returns.
func broadcast(hub *coherency.Hub, key uint32) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		hub.Broadcast("f", key, 1)
	}()
	return done
}

func returned(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Two broadcasts at once reach a puller in the order the hub numbered them,
// in one answer, and neither returns before the puller's next poll acks it.
func TestPullAnswersConcurrentBroadcastsInOrder(t *testing.T) {
	hub := newPullHub(t)
	c := join(t, hub)
	a, b := broadcast(hub, 1), broadcast(hub, 2)
	waitFor(t, "both broadcasts numbered", func() bool { return hub.Seq() == 2 })

	ans := hub.Poll(context.Background(), c)
	if ans.Gap || len(ans.Events) != 2 || ans.Events[0].Seq != 1 || ans.Events[1].Seq != 2 {
		t.Fatalf("answer %+v, want events 1 and 2 in order", ans)
	}
	time.Sleep(10 * time.Millisecond)
	if returned(a) || returned(b) {
		t.Fatal("a broadcast returned before the puller acked it")
	}
	c.After = ans.Seq
	go hub.Poll(context.Background(), c) // acks 2, then waits for the next event
	<-a
	<-b
	if got := hub.AckedThrough(); got != 2 {
		t.Fatalf("AckedThrough = %d, want 2", got)
	}
}

// A write returns only after the puller's next poll acks its event: the
// poll that carries the event is not the ack.
func TestPullWriteReturnsOnlyAfterAck(t *testing.T) {
	hub := newPullHub(t)
	c := join(t, hub)
	done := broadcast(hub, 3)
	ans := hub.Poll(context.Background(), c) // waits for the event if it is not numbered yet
	if len(ans.Events) != 1 || ans.Events[0].Key != 3 {
		t.Fatalf("answer %+v, want the one event", ans)
	}
	time.Sleep(20 * time.Millisecond)
	if returned(done) {
		t.Fatal("the write returned when its event was sent, before the puller acked it")
	}
	if got := hub.AckedThrough(); got != 0 {
		t.Fatalf("AckedThrough = %d before the ack", got)
	}
	c.After = ans.Seq
	go hub.Poll(context.Background(), c)
	<-done
	if got := hub.AckedThrough(); got != 1 {
		t.Fatalf("AckedThrough = %d, want 1", got)
	}
}

// A puller that goes silent is dropped once the bound has passed since the
// hub last answered it; the write then returns, and the puller's next poll
// is answered as a gap at the hub's sequence.
func TestPullSilentPullerDropped(t *testing.T) {
	const bound = 100 * time.Millisecond
	hub := newPullHub(t)
	coherency.SetBound(hub, bound)
	c := join(t, hub)
	start := time.Now()
	<-broadcast(hub, 4)
	if took := time.Since(start); took > 10*bound {
		t.Fatalf("the write waited %v for a silent puller; the bound is %v", took, bound)
	}
	if st := hub.Stats(); st.Drops != 1 || st.Pullers != 0 || st.AckedThrough != 1 {
		t.Fatalf("stats %+v, want the puller dropped and event 1 acked through", st)
	}
	ans := hub.Poll(context.Background(), c)
	if !ans.Gap || ans.Seq != 1 || ans.Sub == c.Sub || len(ans.Events) != 0 {
		t.Fatalf("the dropped puller's poll answered %+v, want a gap at seq 1 under a new id", ans)
	}
	// It is a puller again from there: the next write waits for its ack.
	done := broadcast(hub, 5)
	c = coherency.Cursor{Inc: ans.Inc, Sub: ans.Sub, After: ans.Seq}
	if ans = hub.Poll(context.Background(), c); ans.Gap || len(ans.Events) != 1 || ans.Events[0].Seq != 2 {
		t.Fatalf("after the gap the puller got %+v", ans)
	}
	c.After = 2
	go hub.Poll(context.Background(), c)
	<-done
	if st := hub.Stats(); st.Drops != 1 {
		t.Fatalf("a puller that acked was dropped: %+v", st)
	}
}

// A cursor the hub cannot vouch for is answered as a gap at once: one from
// another incarnation of the hub (an origin restarted), one ahead of the
// hub's sequence, one the hub never issued.
func TestPullGapOnCursorItCannotVouchFor(t *testing.T) {
	hub, restarted := newPullHub(t), newPullHub(t)
	c := join(t, hub)
	join(t, restarted) // the same subscription id exists there
	for name, cur := range map[string]coherency.Cursor{
		"earlier incarnation": c,
		"ahead of the hub":    {Inc: c.Inc, Sub: c.Sub, After: 7},
		"never issued":        {Inc: c.Inc, Sub: 99},
	} {
		h := hub
		if name == "earlier incarnation" {
			h = restarted
		}
		ans := h.Poll(context.Background(), cur)
		if !ans.Gap || len(ans.Events) != 0 || ans.Sub == 0 {
			t.Errorf("%s: answered %+v, want a gap", name, ans)
		}
	}
	if st := hub.Stats(); st.Gaps != 2 {
		t.Errorf("hub answered %d gaps, want 2", st.Gaps)
	}
}

// A poll that finds no event is held a quarter of the bound and answered
// empty, over HTTP, and its puller stays subscribed.
func TestPullHoldsAnEmptyPoll(t *testing.T) {
	const bound = 400 * time.Millisecond
	hub := newPullHub(t)
	coherency.SetBound(hub, bound)
	srv := httptest.NewServer(hub)
	defer srv.Close()
	a, err := coherency.Poll(context.Background(), srv.Client(), srv.URL, coherency.Cursor{})
	if err != nil || a.Bound != bound {
		t.Fatalf("join: %+v, %v", a, err)
	}
	c := coherency.Cursor{Inc: a.Inc, Sub: a.Sub, After: a.Seq}
	start := time.Now()
	if a, err = coherency.Poll(context.Background(), srv.Client(), srv.URL, c); err != nil || len(a.Events) != 0 || a.Gap {
		t.Fatalf("empty poll: %+v, %v", a, err)
	}
	if held := time.Since(start); held < bound/4 || held > bound {
		t.Fatalf("an empty poll was held %v, want about %v", held, bound/4)
	}
	if st := hub.Stats(); st.Parked != 0 || st.Pullers != 1 {
		t.Fatalf("stats after the hold: %+v", st)
	}
}

// The stream's client tells a server with no stream from a failing one.
func TestPollNoStream(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"404":      http.NotFound,
		"not json": func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "<html>") },
	} {
		srv := httptest.NewServer(h)
		_, err := coherency.Poll(context.Background(), srv.Client(), srv.URL, coherency.Cursor{})
		srv.Close()
		if !errors.Is(err, coherency.ErrNoStream) {
			t.Errorf("%s: err = %v, want ErrNoStream", name, err)
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	if _, err := coherency.Poll(context.Background(), srv.Client(), srv.URL, coherency.Cursor{}); err == nil || errors.Is(err, coherency.ErrNoStream) {
		t.Errorf("503: err = %v, want a transient error", err)
	}
}

// swappable serves whichever origin it holds: an origin process restarted
// behind the same address.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

// streamOrigin is a cached origin serving a small synthetic site, with its
// hub's bound shortened to bound.
func streamOrigin(t *testing.T, bound time.Duration) (*origin.Server, *repository.Repo) {
	t.Helper()
	repo := repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := origin.New(origin.Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(site.SyntheticConfig{Pages: 2, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 1}, repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}
	coherency.SetBound(srv.Hub(), bound)
	return srv, repo
}

// follower runs a proxy's Follow until stopped.
type follower struct {
	stop func()
	done chan struct{}
}

func follow(p *dpc.Proxy) *follower {
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = p.Follow(ctx)
	}()
	return f
}

func (f *follower) kill() {
	f.stop()
	<-f.done
}

// A proxy whose follower is killed mid-stream, while a write lands, and
// then restarted ends in a gap flush and never serves a stale page; so does
// one whose origin restarts (a new incarnation) under it. The proxy keeps
// its cursor across the restart of its follower, as a dpcd whose stream was
// cut and came back would; a restarted dpcd process starts empty.
func TestPullFollowerKilledAndRestartedMidStream(t *testing.T) {
	const bound = 300 * time.Millisecond
	srv, repo := streamOrigin(t, bound)
	front := &swappable{}
	front.set(srv)
	ts := httptest.NewServer(front)
	defer ts.Close()
	p := newProxy(t, nil, func(c *dpc.Config) {
		c.OriginURL, c.Capacity, c.Strict = ts.URL, 64, true
	})
	if err := p.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := follow(p)
	defer func() { f.kill() }()

	const url = "/page/synth?page=0"
	plain := func(srv *origin.Server) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Body.String()
	}
	// get serves url through the proxy and holds its body to the origin's
	// plain render now.
	get := func(srv *origin.Server) string {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if want := plain(srv); rec.Body.String() != want {
			t.Fatalf("X-Cache %s served a stale page:\n%q\nwant\n%q", rec.Header().Get("X-Cache"), rec.Body, want)
		}
		return rec.Header().Get("X-Cache")
	}
	untilLease := func(srv *origin.Server) {
		t.Helper()
		for i := 0; get(srv) != "LEASE"; i++ {
			if i == 8 {
				t.Fatal("the proxy never leased the page")
			}
		}
	}
	untilLease(srv)

	waitFor(t, "the follower's poll to wait at the hub", func() bool { return srv.Hub().Stats().Parked == 1 })
	f.kill()
	start := time.Now()
	site.TouchFragment(repo, 0, "written while the proxy was down") // a fragment of page 0
	if took := time.Since(start); took > 10*bound {
		t.Fatalf("the write waited %v for a killed proxy; the bound is %v", took, bound)
	}
	if got := get(srv); got == "LEASE" {
		t.Fatal("a proxy that no longer follows the stream served a lease")
	}
	if n := counter(p, "dpc.fabric_gaps"); n != 0 {
		t.Fatalf("gaps = %d before the restart", n)
	}

	f = follow(p)
	waitFor(t, "the gap flush", func() bool { return counter(p, "dpc.fabric_gaps") == 1 })
	if n := counter(p, "dpc.pagecache_gap_flushes"); n != 1 {
		t.Fatalf("gap flushes = %d, want 1", n)
	}
	untilLease(srv)

	// The origin restarts: a new BEM and a new hub behind the same address.
	srv2, _ := streamOrigin(t, bound)
	front.set(srv2)
	waitFor(t, "the restart's gap", func() bool { return counter(p, "dpc.fabric_gaps") == 2 })
	untilLease(srv2)
	if n := counter(p, "dpc.errors"); n != 0 {
		t.Fatalf("dpc.errors = %d", n)
	}
}

// Concurrent writes while a proxy follows the stream: every write returns
// with its events applied, in order, and no gap is seen.
func TestPullConcurrentWritesReachTheProxyInOrder(t *testing.T) {
	srv, repo := streamOrigin(t, coherency.DropAfter)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	p := newProxy(t, nil, func(c *dpc.Config) { c.OriginURL, c.Capacity, c.Strict = ts.URL, 64, true })
	if err := p.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := follow(p)
	defer f.kill()
	for page := 0; page < 2; page++ {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/page/synth?page=%d", page), nil))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				site.TouchFragment(repo, (w+i)%8, fmt.Sprint(w, i))
			}
		}(w)
	}
	wg.Wait()
	hub := srv.Hub()
	if st := hub.Stats(); st.AckedThrough != st.Seq || st.Drops != 0 || st.Seq == 0 {
		t.Fatalf("hub %+v: want every event acked by the one puller", st)
	}
	if n := counter(p, "dpc.fabric_gaps") + counter(p, "dpc.pagecache_gap_flushes"); n != 0 {
		t.Fatalf("the proxy saw %d gaps", n)
	}
	if cursor := fabricCursor(t, p); cursor != hub.Seq() {
		t.Fatalf("the proxy's cursor is %d, the hub's sequence %d", cursor, hub.Seq())
	}
}

// fabricCursor reads the cursor from the proxy's /_dpc/stats.
func fabricCursor(t *testing.T, p *dpc.Proxy) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/_dpc/stats", nil))
	var out struct {
		Fabric struct {
			Cursor uint64 `json:"cursor"`
		} `json:"fabric"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Fabric.Cursor
}

// Pullers that joined and went silent do not pile up on a hub that has no
// event to drop them at: the next join drops those silent past the bound.
func TestPullSilentPullersPrunedOnJoin(t *testing.T) {
	const bound = 50 * time.Millisecond
	hub := newPullHub(t)
	coherency.SetBound(hub, bound)
	for i := 0; i < 3; i++ {
		join(t, hub)
	}
	time.Sleep(bound)
	join(t, hub)
	if st := hub.Stats(); st.Pullers != 1 || st.Drops != 3 {
		t.Fatalf("stats %+v, want the three silent pullers dropped", st)
	}
}

// A poll that does not ack what the hub's last answer carried is answered
// as a gap, under a new id, and the puller it was keeps its deadline: the
// write waits for the bound after the answer that carried its event, as the
// puller may be trusting an earlier answer until close to then.
func TestPullPollThatDoesNotAckIsAGap(t *testing.T) {
	const bound = 200 * time.Millisecond
	hub := newPullHub(t)
	coherency.SetBound(hub, bound)
	c := join(t, hub)
	done := broadcast(hub, 6)
	start := time.Now()
	if ans := hub.Poll(context.Background(), c); len(ans.Events) != 1 {
		t.Fatalf("answer %+v, want the one event", ans)
	}
	for i := 0; i < 3; i++ { // the same poll again, and again: never an ack
		again := hub.Poll(context.Background(), c)
		if !again.Gap || again.Sub == c.Sub || len(again.Events) != 0 {
			t.Fatalf("a poll that did not ack was answered %+v, want a gap under a new id", again)
		}
	}
	<-done
	if took := time.Since(start); took < bound {
		t.Fatalf("the write returned %v after its event was answered; the puller is trusted up to %v", took, bound*3/4)
	} else if took > 10*bound {
		t.Fatalf("the write waited %v: polls without an ack pushed the deadline on", took)
	}
	if st := hub.Stats(); st.Drops != 1 || st.AckedThrough != 1 {
		t.Fatalf("stats %+v, want the puller that never acked dropped", st)
	}
}

// A hub keeps at most MaxPullers pullers: the next join is refused, over
// HTTP with a status the client takes for a passing fault, until the bound
// has passed and the silent ones are dropped.
func TestPullHubRefusesJoinsPastMaxPullers(t *testing.T) {
	const bound = 100 * time.Millisecond
	hub := newPullHub(t)
	coherency.SetBound(hub, bound)
	for i := 0; i < coherency.MaxPullers; i++ {
		join(t, hub)
	}
	if a := hub.Poll(context.Background(), coherency.Cursor{}); a.Sub != 0 {
		t.Fatalf("join %d answered %+v, want it refused", coherency.MaxPullers+1, a)
	}
	srv := httptest.NewServer(hub)
	defer srv.Close()
	if _, err := coherency.Poll(context.Background(), srv.Client(), srv.URL, coherency.Cursor{}); err == nil || errors.Is(err, coherency.ErrNoStream) {
		t.Fatalf("a refused join over HTTP: err = %v, want a passing error", err)
	}
	time.Sleep(bound)
	join(t, hub)
	if st := hub.Stats(); st.Pullers != 1 || st.Drops != coherency.MaxPullers {
		t.Fatalf("stats %+v, want the silent pullers dropped and one joined", st)
	}
}

// lossyStream fails polls of the stream it fronts (503, the hub never sees
// them) to a script: once armed at the hub's sequence, it fails every poll
// until a write is numbered, then one more, lets the next through and fails
// every poll after it, the ack included.
type lossyStream struct {
	origin http.Handler
	hub    *coherency.Hub

	mu                     sync.Mutex
	armed, passed          bool
	seq0                   uint64
	failedBefore, failedIn int
}

func (l *lossyStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == coherency.EventsPath && !l.pass() {
		http.Error(w, "lost", http.StatusServiceUnavailable)
		return
	}
	l.origin.ServeHTTP(w, r)
}

func (l *lossyStream) pass() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case !l.armed:
		return true
	case l.hub.Seq() == l.seq0:
		l.failedBefore++
		return false
	case l.failedIn == 0:
		l.failedIn++
		return false
	case !l.passed:
		l.passed = true
		return true
	}
	return false
}

func (l *lossyStream) arm() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed, l.seq0 = true, l.hub.Seq()
}

func (l *lossyStream) disarm() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = false
}

func (l *lossyStream) failures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failedBefore
}

// A poll fails, a write lands, the retry fails too, the next retry is
// answered with the write's event, and the ack is lost: the write returns
// only once the proxy no longer trusts the answer that carried it, and the
// proxy's next poll that reaches the hub is a gap. Had the hub timed its
// drop from the write rather than from its last answer, the write would
// return while the proxy still leased, and a second write would find no
// puller at all.
func TestPullLostAckAfterALateRetry(t *testing.T) {
	const bound = 400 * time.Millisecond
	srv, repo := streamOrigin(t, bound)
	hub := srv.Hub()
	front := &lossyStream{origin: srv, hub: hub}
	ts := httptest.NewServer(front)
	defer ts.Close()
	p := newProxy(t, nil, func(c *dpc.Config) { c.OriginURL, c.Capacity, c.Strict = ts.URL, 64, true })
	if err := p.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := follow(p)
	defer f.kill()
	for i := 0; ; i++ {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/page/synth?page=0", nil))
		if rec.Header().Get("X-Cache") == "LEASE" {
			break
		}
		if i == 8 {
			t.Fatal("the proxy never leased the page")
		}
	}

	front.arm()
	waitFor(t, "a poll to fail", func() bool { return front.failures() > 0 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		site.TouchFragment(repo, 0, "written between two failed polls")
	}()
	<-done
	if fabricLive(t, p) {
		t.Fatal("the write returned while the proxy still trusted an answer, and its ack never reached the hub")
	}
	if cursor := fabricCursor(t, p); cursor != hub.Seq() {
		t.Fatalf("the proxy's cursor is %d, the hub's sequence %d: the answer with the write never reached it", cursor, hub.Seq())
	}
	if st := hub.Stats(); st.Drops != 1 {
		t.Fatalf("hub %+v, want the proxy dropped", st)
	}
	front.disarm()
	waitFor(t, "the gap", func() bool { return counter(p, "dpc.fabric_gaps") == 1 })
}

// fabricLive reads whether the proxy is live on the fabric from its
// /_dpc/stats.
func fabricLive(t *testing.T, p *dpc.Proxy) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/_dpc/stats", nil))
	var out struct {
		Fabric struct {
			Attached bool `json:"attached"`
		} `json:"fabric"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Fabric.Attached
}

// BenchmarkBroadcastToPuller is what a broadcast costs the write that makes
// it: with no subscriber, with one proxy pushed to in process, and with one
// proxy following the stream over loopback HTTP, where the broadcast
// returns only once the proxy's next poll has acked it.
func BenchmarkBroadcastToPuller(b *testing.B) {
	for _, how := range []string{"none", "pushed", "pulled"} {
		b.Run(how, func(b *testing.B) {
			hub := newPullHub(b)
			p := newProxy(b, nil)
			switch how {
			case "pushed":
				hub.Subscribe(p)
			case "pulled":
				ts := httptest.NewServer(hub)
				defer ts.Close()
				p = newProxy(b, nil, func(c *dpc.Config) { c.OriginURL = ts.URL })
				if err := p.Join(context.Background()); err != nil {
					b.Fatal(err)
				}
				f := follow(p)
				defer f.kill()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub.Broadcast("f", uint32(i%8), uint32(i+1))
			}
		})
	}
}
