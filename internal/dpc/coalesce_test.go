package dpc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/tmpl"
)

// clientKey builds the coalesce key a real Go http.Client request for path
// produces (the client stamps its default User-Agent, which the key now
// covers).
func clientKey(method, path string) string {
	r := httptest.NewRequest(method, path, nil)
	r.Header.Set("User-Agent", "Go-http-client/1.1")
	return coalesceKey(r)
}

// The coalesce key must cover every header forwarded to the origin except
// the provably response-invariant ones — otherwise two clients whose
// requests differ in a forwarded header the origin varies on would share a
// page. This is the stated invariant of coalesceIdentityHeaders, checked
// against forwardedHeaders itself so the two lists cannot drift apart.
func TestCoalesceKeyCoversForwardedHeaders(t *testing.T) {
	base := httptest.NewRequest(http.MethodGet, "/page/x", nil)
	baseKey := coalesceKey(base)
	for _, h := range forwardedHeaders {
		r := base.Clone(base.Context())
		r.Header.Set(h, "distinct-value")
		changed := coalesceKey(r) != baseKey
		if coalesceInvariantHeaders[h] {
			if changed {
				t.Errorf("invariant header %s changed the coalesce key", h)
			}
			continue
		}
		if !changed {
			t.Errorf("forwarded header %s does not affect the coalesce key: "+
				"origin responses varying on it would be cross-served", h)
		}
	}
	// X-Forwarded-For is synthesized per connection and deliberately NOT
	// part of the key (see coalesceIdentityHeaders): origins varying on
	// client IP must not enable coalescing. Assert the exclusion stays
	// deliberate rather than silently flipping.
	r := base.Clone(base.Context())
	r.Header.Set("X-Forwarded-For", "203.0.113.9")
	if coalesceKey(r) != baseKey {
		t.Error("X-Forwarded-For entered the coalesce key; it would disable coalescing entirely")
	}
}

// getKey is buildKey as it read each header through Header.Get, the
// reference the direct reads must match byte for byte.
func getKey(r *http.Request, method string, anonymous bool) string {
	var b strings.Builder
	b.WriteString(r.URL.RequestURI())
	b.WriteByte(0)
	b.WriteString(method)
	for _, h := range coalesceIdentityHeaders {
		b.WriteByte(0)
		if !anonymous || !slices.Contains(pageIdentityHeaders, h) {
			b.WriteString(r.Header.Get(h))
		}
	}
	return b.String()
}

// The keys and the anonymous test read headers by their canonical names
// straight from the map. For requests whose identity headers carry several
// values, empty values or none, they must give the keys and verdicts
// Header.Get gives.
func TestBuildKeyMatchesHeaderGet(t *testing.T) {
	cases := map[string]http.Header{
		"absent":  {},
		"one":     {"X-User": {"u1"}, "Accept": {"text/html"}, "User-Agent": {"Go-http-client/1.1"}},
		"several": {"X-User": {"u1", "u2"}, "Cookie": {"a=1", "b=2"}, "Accept-Language": {"fr", "en"}},
		"empty":   {"X-User": {""}, "Authorization": {}, "Referer": {"", "http://x/"}},
		"every": {"X-User": {"u"}, "Cookie": {"c"}, "Accept": {"a"}, "Accept-Language": {"l"},
			"Authorization": {"z"}, "Content-Type": {"t"}, "Referer": {"r"}, "User-Agent": {"g"},
			"X-Requested-With": {"x"}},
	}
	for name, h := range cases {
		r := httptest.NewRequest(http.MethodGet, "/page/synth?page=1&x=2", nil)
		r.Header = h
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			for _, anonymous := range []bool{false, true} {
				if got, want := buildKey(r, method, anonymous), getKey(r, method, anonymous); got != want {
					t.Errorf("%s %s anonymous=%v: key %q, Header.Get gives %q", name, method, anonymous, got, want)
				}
			}
		}
		want := true
		for _, id := range pageIdentityHeaders {
			if h.Get(id) != "" {
				want = false
			}
		}
		if got := anonymousSession(r); got != want {
			t.Errorf("%s: anonymousSession %v, Header.Get says %v", name, got, want)
		}
	}
}

// Reading the map directly finds a header only under its canonical name,
// the form net/http stores a request's headers in.
func TestIdentityHeadersAreCanonical(t *testing.T) {
	for _, list := range [][]string{coalesceIdentityHeaders, pageIdentityHeaders} {
		for _, h := range list {
			if c := textproto.CanonicalMIMEHeaderKey(h); c != h {
				t.Errorf("identity header %q is not canonical (%q)", h, c)
			}
		}
	}
}

// blockingOrigin serves plain responses and blocks the first request
// mid-body so tests can park a leader: it writes head, flushes, waits for
// release, then writes tail. Subsequent requests get head+tail at once.
type blockingOrigin struct {
	head, tail []byte
	entered    chan struct{} // closed when the first request has flushed head
	release    chan struct{} // close to let the first request finish
	fetches    atomic.Int64
}

func newBlockingOrigin(head, tail []byte) *blockingOrigin {
	return &blockingOrigin{
		head: head, tail: tail,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (o *blockingOrigin) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := o.fetches.Add(1)
		if n == 1 {
			_, _ = w.Write(o.head)
			w.(http.Flusher).Flush()
			close(o.entered)
			<-o.release
		} else {
			_, _ = w.Write(o.head)
		}
		_, _ = w.Write(o.tail)
	}
}

// A follower that joins while the leader's fetch is mid-flight must get its
// first byte from the broadcast before the leader's page completes, and its
// final bytes must be identical to the leader's.
func TestFollowerStreamsLeaderInProgressPage(t *testing.T) {
	head := []byte(strings.Repeat("H", 4096))
	tail := []byte(strings.Repeat("T", 4096))
	o := newBlockingOrigin(head, tail)
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	leaderBody := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/live")
		if err != nil {
			leaderBody <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		leaderBody <- b
	}()
	<-o.entered // origin flushed head and is now blocked

	// Join as a follower while the leader is mid-page.
	followerFirst := make(chan byte, 1)
	followerRest := make(chan []byte, 1)
	followerHdr := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/live")
		if err != nil {
			close(followerFirst)
			return
		}
		defer resp.Body.Close()
		followerHdr <- resp.Header.Get("X-Cache")
		br := bufio.NewReader(resp.Body)
		b, err := br.ReadByte()
		if err != nil {
			close(followerFirst)
			return
		}
		followerFirst <- b
		rest, _ := io.ReadAll(br)
		followerRest <- append([]byte{b}, rest...)
	}()

	// The follower's first byte must arrive while the origin — and thus
	// the leader's page — is still unfinished.
	select {
	case b, ok := <-followerFirst:
		if !ok {
			t.Fatal("follower request failed before first byte")
		}
		if b != 'H' {
			t.Fatalf("follower first byte = %q, want 'H'", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower got no byte while the leader was mid-page: live attach is not streaming")
	}
	if got := <-followerHdr; got != "COALESCE-FOLLOWER" {
		t.Fatalf("follower X-Cache = %q, want COALESCE-FOLLOWER", got)
	}

	close(o.release)
	want := append(append([]byte{}, head...), tail...)
	if got := <-leaderBody; string(got) != string(want) {
		t.Fatalf("leader body corrupted (%d bytes, want %d)", len(got), len(want))
	}
	if got := <-followerRest; string(got) != string(want) {
		t.Fatalf("follower bytes diverged from leader bytes (%d vs %d)", len(got), len(want))
	}
	if got := o.fetches.Load(); got != 1 {
		t.Fatalf("origin saw %d fetches, want 1 (mid-flight joiner must not re-fetch)", got)
	}
	if got := p.Registry().Counter("dpc.coalesced").Value(); got != 1 {
		t.Fatalf("dpc.coalesced = %d, want 1", got)
	}
}

// Followers that disconnect while parked must leave the flight: a departed
// follower must not count as a waiter nor pin the broadcast buffer.
func TestCancelledFollowerDetaches(t *testing.T) {
	o := newBlockingOrigin(nil, []byte("page")) // first request blocks before any body byte
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req := httptest.NewRequest(http.MethodGet, "/page/cancel", nil)
		p.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-o.entered

	key := coalesceKey(httptest.NewRequest(http.MethodGet, "/page/cancel", nil))
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		req := httptest.NewRequest(http.MethodGet, "/page/cancel", nil).WithContext(ctx)
		p.ServeHTTP(httptest.NewRecorder(), req)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never attached (waiting=%d)", p.flights.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower never returned")
	}
	// The leader is still in flight; the departed follower must be gone.
	if got := p.flights.waiting(key); got != 0 {
		t.Fatalf("waiting = %d after follower cancellation, want 0 (waiter leak)", got)
	}

	close(o.release)
	<-leaderDone
}

// When the leader aborts before producing a byte, parked followers must
// fall back to their own origin fetch instead of inheriting the failure or
// serving a torn page.
func TestLeaderAbortFollowersFallBack(t *testing.T) {
	const followers = 3
	var fetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1) == 1 {
			close(entered)
			<-release
			panic(http.ErrAbortHandler) // leader's fetch dies without a byte
		}
		fmt.Fprint(w, "recovered page")
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	type result struct {
		status int
		cache  string
		body   string
		err    error
	}
	results := make(chan result, followers+1)
	get := func() {
		resp, err := http.Get(ts.URL + "/page/abort")
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		results <- result{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: string(b), err: err}
	}
	go get() // leader
	<-entered
	key := clientKey(http.MethodGet, "/page/abort")
	for i := 0; i < followers; i++ {
		go get()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers parked", p.flights.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var recovered, failed int
	for i := 0; i < followers+1; i++ {
		res := <-results
		switch {
		case res.err == nil && res.status == http.StatusOK && res.body == "recovered page":
			recovered++
		default:
			failed++ // the leader's own request fails; that is expected
		}
	}
	if recovered != followers {
		t.Fatalf("%d followers recovered via their own fetch, want %d", recovered, followers)
	}
	if failed != 1 {
		t.Fatalf("%d requests failed, want exactly 1 (the leader)", failed)
	}
	if got := p.Registry().Counter("dpc.coalesce_fallbacks").Value(); got != followers {
		t.Fatalf("dpc.coalesce_fallbacks = %d, want %d", got, followers)
	}
}

// A leader abort after followers have already been fed broadcast bytes must
// not end in a clean response for anyone: committed followers abort their
// connections rather than serve a torn page.
func TestLeaderAbortMidStreamTearsCommittedFollowers(t *testing.T) {
	var fetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	head := strings.Repeat("x", 8192)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1) == 1 {
			fmt.Fprint(w, head)
			w.(http.Flusher).Flush()
			close(entered)
			<-release
			panic(http.ErrAbortHandler) // torn mid-body
		}
		fmt.Fprint(w, head+"tail")
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	leaderErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/torn")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-entered

	// Follower attaches and receives the head.
	resp, err := http.Get(ts.URL + "/page/torn")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadByte(); err != nil {
		t.Fatalf("follower never received the broadcast head: %v", err)
	}
	close(release)
	if _, err := io.ReadAll(br); err == nil {
		t.Fatal("committed follower read a clean EOF from a torn flight")
	}
	resp.Body.Close()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader read a clean EOF from a torn origin response")
	}
}

// A follower arriving after the flight's broadcast buffer exceeded its cap
// must degrade to its own origin fetch — the replay window is gone — while
// the leader streams on unaffected.
func TestLateJoinerPastBufferCapRefetches(t *testing.T) {
	head := []byte(strings.Repeat("H", 8192))
	tail := []byte("tail")
	o := newBlockingOrigin(head, tail)
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
		c.CoalesceBufferBytes = 1024 // seals after the 8KB head
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	leaderBody := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/cap")
		if err != nil {
			leaderBody <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		leaderBody <- b
	}()
	<-o.entered

	// The flight seals once the head clears the 1KB cap; the seal races
	// the leader's client write by a few instructions, so poll.
	deadline := time.Now().Add(5 * time.Second)
	var cache string
	for {
		resp, err := http.Get(ts.URL + "/page/cap")
		if err != nil {
			t.Fatal(err)
		}
		cache = resp.Header.Get("X-Cache")
		if cache == "MISS" {
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := string(head) + string(tail); string(b) != want {
				t.Fatalf("late joiner body = %d bytes, want %d", len(b), len(want))
			}
			break
		}
		resp.Body.Close() // attached before the seal; abandon and retry
		if time.Now().After(deadline) {
			t.Fatalf("late joiner never degraded to its own fetch (X-Cache=%s)", cache)
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Registry().Counter("dpc.coalesce_overflows").Value(); got == 0 {
		t.Fatal("dpc.coalesce_overflows never counted the sealed-flight refusal")
	}
	if got := o.fetches.Load(); got < 2 {
		t.Fatalf("origin saw %d fetches, want >= 2 (late joiner must fetch for itself)", got)
	}

	close(o.release)
	if got := <-leaderBody; string(got) != string(head)+string(tail) {
		t.Fatalf("leader body corrupted (%d bytes)", len(got))
	}
}

// The stale-fallback bypass page must stream through the flight broadcast
// too: followers parked behind a leader whose template went stale receive
// the recovery page without a second origin fetch.
func TestStaleBypassStreamsToFollowers(t *testing.T) {
	var templateFetches, bypassFetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(headerBypass) != "" {
			bypassFetches.Add(1)
			fmt.Fprint(w, "bypass page")
			return
		}
		if templateFetches.Add(1) == 1 {
			close(entered)
			<-release
		}
		var b strings.Builder
		enc := tmpl.Binary{}.NewEncoder(&b)
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Get(7, 3) // never SET: stale, caught in the spool
		_ = enc.Flush()
		w.Header().Set(headerTemplate, "binary")
		fmt.Fprint(w, b.String())
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
		c.Strict = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	type result struct {
		body  string
		cache string
		err   error
	}
	results := make(chan result, 2)
	get := func() {
		resp, err := http.Get(ts.URL + "/page/stalecoalesce")
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		results <- result{body: string(b), cache: resp.Header.Get("X-Cache"), err: err}
	}
	go get() // leader
	<-entered
	key := clientKey(http.MethodGet, "/page/stalecoalesce")
	go get() // follower
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < 2; i++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.body != "bypass page" {
			t.Fatalf("body = %q, want the bypass page", res.body)
		}
	}
	if got := bypassFetches.Load(); got != 1 {
		t.Fatalf("origin saw %d bypass fetches, want 1 (follower must ride the leader's recovery)", got)
	}
}

// An aborted flight's buffered bytes are a torn prefix: a follower that
// has not committed anything to its client must fall back to its own
// fetch, never be served the prefix.
func TestAbortedFlightPrefixNotServedToUncommittedFollower(t *testing.T) {
	p, err := New(Config{
		OriginURL: "http://127.0.0.1:0", Capacity: 8, PublishInterval: -1,
		Coalesce: true, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	f, leader, _ := p.flights.join("k", http.MethodGet, true)
	if !leader {
		t.Fatal("first join must lead")
	}
	f.publishHeaders("text/html", -1)
	f.append([]byte("torn prefix"))
	_, l2, fol := p.flights.join("k", http.MethodGet, true)
	if l2 || fol == nil {
		t.Fatal("second join must attach as a follower")
	}
	p.flights.finish(f, true) // leader aborts with bytes already buffered

	rec := httptest.NewRecorder()
	rs := &reqState{w: rec, r: httptest.NewRequest(http.MethodGet, "/page/x", nil)}
	out, err := p.serveFollower(rs, f, fol)
	if err != nil || out != stageNext {
		t.Fatalf("serveFollower = (%v, %v), want fallback to own fetch", out, err)
	}
	if rs.streamed || rec.Body.Len() != 0 {
		t.Fatalf("torn prefix reached the uncommitted follower: %q", rec.Body.String())
	}
	if got := p.Registry().Counter("dpc.coalesce_fallbacks").Value(); got != 1 {
		t.Fatalf("dpc.coalesce_fallbacks = %d, want 1", got)
	}
}

// The buffer cap must bound retained memory even against a follower whose
// client never reads: the laggard is shed (overrun) instead of pinning the
// whole page.
func TestStalledFollowerIsShedAndBufferStaysBounded(t *testing.T) {
	const max = 1024
	f := newFlight("k", http.MethodGet, max)
	fol := f.attach()
	if fol == nil {
		t.Fatal("attach failed on a fresh flight")
	}
	f.publishHeaders("text/html", -1)
	chunk := []byte(strings.Repeat("x", 512))
	for i := 0; i < 20; i++ { // 10 KB through a 1 KB cap, cursor frozen at 0
		f.append(chunk)
	}
	f.mu.Lock()
	bufLen, total := len(f.buf), f.total
	f.mu.Unlock()
	if total != 20*512 {
		t.Fatalf("total = %d", total)
	}
	if bufLen > max+len(chunk) {
		t.Fatalf("buffer retained %d bytes despite the %d cap: a stalled follower pins memory", bufLen, max)
	}
	c := f.next(fol, make([]byte, 64), func() bool { return false })
	if !c.overrun {
		t.Fatal("laggard follower was not shed (overrun)")
	}
	if c.n != 0 {
		t.Fatal("shed follower was handed bytes from a trimmed window")
	}
	f.close(false)
}

// BenchmarkCoalesceFollowerTTFB contrasts the completed-page handoff
// (buffered coalescing: the follower's first byte waits for the leader's
// whole page) against live attach (streaming: the follower's first byte
// tracks the leader's first chunk). Handoff TTFB scales with page size;
// live-attach TTFB must not.
func BenchmarkCoalesceFollowerTTFB(b *testing.B) {
	for _, mode := range []struct {
		name   string
		stream bool
	}{
		{"handoff", false},
		{"live", true},
	} {
		for _, pageKB := range []int{64, 512, 2048} {
			b.Run(fmt.Sprintf("%s/page=%dKB", mode.name, pageKB), func(b *testing.B) {
				benchFollowerTTFB(b, mode.stream, pageKB)
			})
		}
	}
}

type ttfbGate struct {
	headSent chan struct{}
	release  chan struct{}
}

func benchFollowerTTFB(b *testing.B, stream bool, pageKB int) {
	head := []byte(strings.Repeat("H", 512))
	tail := []byte(strings.Repeat("T", pageKB*1024-len(head)))
	var gate atomic.Pointer[ttfbGate]
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := gate.Load()
		_, _ = w.Write(head)
		w.(http.Flusher).Flush()
		close(g.headSent)
		<-g.release
		_, _ = w.Write(tail)
	}))
	defer origin.Close()

	p, err := New(Config{
		OriginURL: origin.URL, Capacity: 8, PublishInterval: -1,
		Coalesce: true, Stream: stream,
		CoalesceBufferBytes: 8 << 20, // never seal: isolate the handoff-vs-live contrast
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p)
	defer ts.Close()

	var totalTTFB time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &ttfbGate{headSent: make(chan struct{}), release: make(chan struct{})}
		gate.Store(g)
		path := fmt.Sprintf("/page/ttfb-%d", i)
		leaderDone := make(chan error, 1)
		go func() {
			resp, err := http.Get(ts.URL + path)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			leaderDone <- err
		}()
		<-g.headSent

		ttfb := make(chan time.Duration, 1)
		folErr := make(chan error, 1) // carries only failures
		folDone := make(chan struct{})
		go func() {
			defer close(folDone)
			t0 := time.Now()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				folErr <- err
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			if _, err := br.ReadByte(); err != nil {
				folErr <- err
				return
			}
			ttfb <- time.Since(t0)
			_, _ = io.Copy(io.Discard, br)
		}()

		if stream {
			// Live attach: the follower's first byte must arrive while the
			// origin is still parked on the head — the tail does not exist
			// yet, which is the whole point.
			select {
			case d := <-ttfb:
				totalTTFB += d
			case err := <-folErr:
				b.Fatal(err)
			case <-time.After(10 * time.Second):
				b.Fatal("live-attach follower got no byte while the leader was mid-page")
			}
			close(g.release)
		} else {
			// Completed-page handoff: the follower cannot see a byte until
			// the whole page exists, so release the tail once it is parked.
			key := clientKey(http.MethodGet, path)
			for p.flights.waiting(key) < 1 {
				select {
				case err := <-folErr:
					b.Fatal(err)
				default:
					time.Sleep(50 * time.Microsecond)
				}
			}
			close(g.release)
			select {
			case d := <-ttfb:
				totalTTFB += d
			case err := <-folErr:
				b.Fatal(err)
			}
		}
		<-folDone
		if err := <-leaderDone; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalTTFB.Nanoseconds())/float64(b.N), "ttfb-ns/op")
	}
}

// A HEAD request arriving while a GET fetch of the same resource is in
// flight must ride the GET broadcast: one origin fetch serves both, and
// the HEAD follower replicates the flight's committed headers with the
// exact final length and no body.
func TestHeadFollowerSharesGetFlight(t *testing.T) {
	const wantBody = "<html>shared page</html>"
	var fetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		close(entered)
		<-release
		fmt.Fprint(w, wantBody)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/shared")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-entered

	// The HEAD must attach to the GET-normalized flight key.
	keyReq := httptest.NewRequest(http.MethodHead, "/page/shared", nil)
	keyReq.Header.Set("User-Agent", "Go-http-client/1.1")
	key := flightKey(keyReq)
	headDone := make(chan *http.Response, 1)
	headErr := make(chan error, 1)
	go func() {
		resp, err := http.Head(ts.URL + "/page/shared")
		if err != nil {
			headErr <- err
			return
		}
		resp.Body.Close()
		headDone <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("HEAD never attached to the GET flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-headErr:
		t.Fatal(err)
	case resp := <-headDone:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "COALESCE-FOLLOWER" {
			t.Fatalf("HEAD X-Cache = %q, want COALESCE-FOLLOWER", got)
		}
		if got := resp.ContentLength; got != int64(len(wantBody)) {
			t.Fatalf("HEAD Content-Length = %d, want %d", got, len(wantBody))
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("origin saw %d fetches, want 1 (HEAD shared the GET flight)", got)
	}
	if got := p.Registry().Counter("dpc.coalesce_head_shared").Value(); got != 1 {
		t.Fatalf("dpc.coalesce_head_shared = %d, want 1", got)
	}
}

// The one unservable pairing: a GET arriving while a HEAD leads the key
// must fetch for itself (a HEAD response has no body to broadcast), and
// the HEAD flight must be left undisturbed.
func TestGetDoesNotRideHeadFlight(t *testing.T) {
	var fetches atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := fetches.Add(1)
		if n == 1 {
			close(entered)
			<-release
		}
		fmt.Fprint(w, "<html>page</html>")
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	headDone := make(chan error, 1)
	go func() {
		resp, err := http.Head(ts.URL + "/page/h")
		if err == nil {
			resp.Body.Close()
		}
		headDone <- err
	}()
	<-entered // a HEAD leads the flight and is parked inside the origin

	// The concurrent GET must not join it: it fetches independently and
	// completes even though the HEAD leader is still blocked.
	getDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/page/h")
		if err == nil {
			var b []byte
			b, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && string(b) != "<html>page</html>" {
				err = fmt.Errorf("GET body = %q", b)
			}
		}
		getDone <- err
	}()
	select {
	case err := <-getDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GET blocked behind the HEAD flight")
	}
	close(release)
	if err := <-headDone; err != nil {
		t.Fatal(err)
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("origin saw %d fetches, want 2 (GET fetched independently)", got)
	}
}

// Regression: a coalesce leader whose OWN client disconnects mid-body
// must keep draining the origin for committed followers instead of
// tearing the flight. Before the fix, the leader's failed client write
// aborted the fetch, every committed follower was torn, and uncommitted
// ones refetched (origin saw 2+ fetches). Now the leader flips to drain
// mode (dpc.coalesce_leader_drains) and the follower receives the full
// page off one origin fetch.
func TestLeaderClientGoneKeepsDrainingForFollowers(t *testing.T) {
	head := []byte(strings.Repeat("H", 8192))
	tail := []byte(strings.Repeat("T", 256<<10)) // several copy-buffer chunks: the dead client's write must fail mid-drain
	o := newBlockingOrigin(head, tail)
	origin := httptest.NewServer(o.handler())
	defer origin.Close()

	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Coalesce = true
		c.Stream = true
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	key := clientKey(http.MethodGet, "/page/drain")

	// Leader: a real client on a cancellable context, committed once the
	// flushed head arrives.
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	lreq, err := http.NewRequestWithContext(lctx, http.MethodGet, ts.URL+"/page/drain", nil)
	if err != nil {
		t.Fatal(err)
	}
	lresp, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	<-o.entered
	lbuf := make([]byte, 1)
	if _, err := io.ReadFull(lresp.Body, lbuf); err != nil {
		t.Fatalf("leader first byte: %v", err)
	}

	// Follower: attaches to the flight and commits to the broadcast.
	fresp, err := http.Get(ts.URL + "/page/drain")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.flights.waiting(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the flight")
		}
		time.Sleep(time.Millisecond)
	}
	fr := bufio.NewReader(fresp.Body)
	if _, err := fr.ReadByte(); err != nil {
		t.Fatalf("follower first byte: %v", err)
	}
	if err := fr.UnreadByte(); err != nil {
		t.Fatal(err)
	}

	// The leader's client walks away; the origin then finishes the page.
	lcancel()
	time.Sleep(100 * time.Millisecond) // let the closed connection surface at the server
	close(o.release)

	body, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("follower read after leader disconnect: %v", err)
	}
	want := string(head) + string(tail)
	if string(body) != want {
		t.Fatalf("follower body = %d bytes, want the full %d-byte page", len(body), len(want))
	}
	if got := o.fetches.Load(); got != 1 {
		t.Fatalf("origin saw %d fetches, want 1 (the flight must survive the leader's disconnect)", got)
	}
	deadline = time.Now().Add(5 * time.Second)
	for p.Registry().Counter("dpc.coalesce_leader_drains").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dpc.coalesce_leader_drains = %d, want 1",
				p.Registry().Counter("dpc.coalesce_leader_drains").Value())
		}
		time.Sleep(time.Millisecond)
	}
}
