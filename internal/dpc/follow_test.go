package dpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

// A proxy in front of an origin that serves no event stream — one built
// before the stream existed, or one with no monitor — serves exactly as a
// proxy that never looked for one: Join and Follow answer ErrNoStream, the
// proxy never attaches and never asks for a lease, and every response and
// every request the origin sees is the same.
func TestStreamlessOriginServesAsBefore(t *testing.T) {
	run := func(t *testing.T, join bool) (served, asked []string) {
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
		sc, _, err := site.BuildSynthetic(site.SyntheticConfig{Pages: 3, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 0.5}, repo)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(sc); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		older := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == coherency.EventsPath {
				http.NotFound(w, r)
				return
			}
			mu.Lock()
			asked = append(asked, fmt.Sprintf("%s %s lease=%q stale=%q user=%q", r.Method, r.URL.RequestURI(),
				r.Header.Get(headerLease), r.Header.Get(headerStale), r.Header.Get("X-User")))
			mu.Unlock()
			srv.ServeHTTP(w, r)
		})
		p, err := New(Config{OriginURL: "http://origin.invalid", Capacity: 64, Strict: true, PageCache: true,
			Transport: &heldLink{origin: older}, PublishInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if join {
			if err := p.Join(context.Background()); !errors.Is(err, coherency.ErrNoStream) {
				t.Fatalf("Join = %v, want ErrNoStream", err)
			}
			if err := p.Follow(context.Background()); !errors.Is(err, coherency.ErrNoStream) {
				t.Fatalf("Follow = %v, want ErrNoStream", err)
			}
		}
		for i := 0; i < 24; i++ {
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/page/synth?page=%d", i%3), nil)
			if i%2 == 1 {
				req.Header.Set("X-User", "u1")
			}
			if i == 12 {
				site.TouchFragment(repo, 0, "moved")
			}
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			served = append(served, fmt.Sprintf("%d %s %q", rec.Code, rec.Header().Get("X-Cache"), rec.Body))
		}
		if p.fabric.live() {
			t.Fatal("a proxy in front of a stream-less origin is attached")
		}
		if n := p.Registry().Counter("dpc.lease_grants").Value(); n != 0 {
			t.Fatalf("%d leases granted", n)
		}
		return served, asked
	}
	servedBefore, askedBefore := run(t, false)
	served, asked := run(t, true)
	if !reflect.DeepEqual(served, servedBefore) {
		t.Errorf("responses differ from a proxy that never joined:\n got %q\nwant %q", served, servedBefore)
	}
	if !reflect.DeepEqual(asked, askedBefore) {
		t.Errorf("origin requests differ from a proxy that never joined:\n got %q\nwant %q", asked, askedBefore)
	}

	// An origin with no monitor serves no stream either.
	srv, err := origin.New(origin.Config{Repo: repository.New(repository.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{OriginURL: "http://origin.invalid", Capacity: 8, Strict: true, Transport: &heldLink{origin: srv}, PublishInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Join(context.Background()); !errors.Is(err, coherency.ErrNoStream) {
		t.Fatalf("Join against a plain origin = %v, want ErrNoStream", err)
	}
}

// A pulled proxy serves what the fabric vouches for — a lease, or with the
// page rule an identified visitor's page under a page-scoped grant — only
// while its last answer is trusted, and again after the next answer; a
// proxy that stops following stops at once.
func TestPulledProxyLeasesOnlyWhileTrusted(t *testing.T) {
	for _, tc := range []struct {
		pageCache bool
		hit       string
	}{{false, "LEASE"}, {true, "PAGE"}} {
		t.Run(tc.hit, func(t *testing.T) {
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
			sc, _, err := site.BuildSynthetic(site.SyntheticConfig{Pages: 1, FragmentsPerPage: 2, FragmentBytes: 64, Cacheability: 1}, repo)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Register(sc); err != nil {
				t.Fatal(err)
			}
			p, err := New(Config{OriginURL: "http://origin.invalid", Capacity: 64, Strict: true, PageCache: tc.pageCache,
				Transport: &heldLink{origin: srv}, PublishInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			get := func() string {
				req := httptest.NewRequest(http.MethodGet, "/page/synth?page=0", nil)
				req.Header.Set("X-User", "u1")
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, req)
				return rec.Header().Get("X-Cache")
			}
			if get(); p.fabric.live() {
				t.Fatal("live before joining")
			}
			if err := p.Join(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; get() != tc.hit; i++ {
				if i == 6 {
					t.Fatalf("a joined proxy never served %s", tc.hit)
				}
			}
			p.fabric.trusted.Store(mono()) // the last answer's trust has just run out
			if got := get(); got == tc.hit {
				t.Fatalf("a proxy whose last answer is no longer trusted served %s", got)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- p.Follow(ctx) }()
			for deadline := time.Now().Add(5 * time.Second); !p.fabric.live(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a following proxy's next answer never came")
				}
			}
			for i := 0; get() != tc.hit; i++ {
				if i == 6 {
					t.Fatalf("a following proxy never served %s again", tc.hit)
				}
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("Follow = %v", err)
			}
			if got := get(); got == tc.hit {
				t.Fatalf("a proxy that stopped following served %s", got)
			}
			if n := p.Registry().Counter("dpc.fabric_gaps").Value(); n != 0 {
				t.Fatalf("%d gaps", n)
			}
		})
	}
}

// fakeStream answers polls of the event stream as a hub with a 40ms bound
// and no events would, after a 5ms hold, or with the status or page set in
// fail.
type fakeStream struct {
	fail  atomic.Pointer[func(http.ResponseWriter)]
	polls atomic.Int64
}

func (s *fakeStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.polls.Add(1)
	if f := s.fail.Load(); f != nil {
		(*f)(w)
		return
	}
	time.Sleep(5 * time.Millisecond)
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"inc":1,"seq":0,"sub":1,"bound_ms":40,"events":[]}`)
}

func (s *fakeStream) set(f func(http.ResponseWriter)) {
	if f == nil {
		s.fail.Store(nil)
		return
	}
	s.fail.Store(&f)
}

// An origin that says it serves no stream before its stream ever answered —
// any client error, or a page that is not JSON — leaves the proxy off the
// fabric for good. Once the stream has answered, the same answer is one more
// failed poll: Follow retries, and the next answer makes the proxy live
// again.
func TestPulledProxyTakesNoStreamAsFinalOnlyBeforeAnAnswer(t *testing.T) {
	notFound := func(w http.ResponseWriter) { http.Error(w, "no", http.StatusNotFound) }
	noStream := map[string]func(http.ResponseWriter){
		"404":  notFound,
		"401":  func(w http.ResponseWriter) { http.Error(w, "no", http.StatusUnauthorized) },
		"403":  func(w http.ResponseWriter) { http.Error(w, "no", http.StatusForbidden) },
		"400":  func(w http.ResponseWriter) { http.Error(w, "no", http.StatusBadRequest) },
		"html": func(w http.ResponseWriter) { _, _ = io.WriteString(w, "<html>") },
	}
	newFollower := func(s *fakeStream) *Proxy {
		p, err := New(Config{OriginURL: "http://origin.invalid", Capacity: 8, Strict: true,
			Transport: &heldLink{origin: s}, PublishInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	for name, f := range noStream {
		s := &fakeStream{}
		s.set(f)
		p := newFollower(s)
		if err := p.Join(context.Background()); !errors.Is(err, coherency.ErrNoStream) {
			t.Errorf("%s before any answer: Join = %v, want ErrNoStream", name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := p.Follow(ctx); !errors.Is(err, coherency.ErrNoStream) {
			t.Errorf("%s before any answer: Follow = %v, want ErrNoStream (nil: it kept polling)", name, err)
		}
		cancel()
	}

	s := &fakeStream{}
	p := newFollower(s)
	if err := p.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Follow(ctx) }()
	for name, f := range noStream {
		errs := p.Registry().Counter("dpc.fabric_poll_errors").Value()
		s.set(f)
		for deadline := time.Now().Add(5 * time.Second); p.Registry().Counter("dpc.fabric_poll_errors").Value() < errs+2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s after an answer: the proxy stopped polling", name)
			}
		}
		s.set(nil)
		select {
		case err := <-done:
			t.Fatalf("%s after an answer: Follow returned %v", name, err)
		default:
		}
		for deadline := time.Now().Add(5 * time.Second); !p.fabric.live(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s after an answer: the proxy never came back on the fabric", name)
			}
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Follow = %v", err)
	}
	if n := p.Registry().Counter("dpc.fabric_gaps").Value(); n != 0 {
		t.Fatalf("%d gaps", n)
	}
}

// Follow retries a failed poll after a third of the trust once the stream
// has answered, so that the retry comes before the trust lapses; while it
// never has, each retry waits twice as long as the one before, up to
// maxRetry.
func TestPulledProxyBacksOffUntilAnswered(t *testing.T) {
	const trust = 1500 * time.Millisecond
	var waits []time.Duration
	for w, i := time.Duration(0), 0; i < 8; i++ {
		w = retryAfter(w, trust, false)
		waits = append(waits, w)
	}
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 16 * time.Second, maxRetry, maxRetry}
	if !reflect.DeepEqual(waits, want) {
		t.Fatalf("waits before an answer %v, want %v", waits, want)
	}
	if w := retryAfter(8*time.Second, trust, true); w != trust/3 {
		t.Fatalf("wait after an answer = %v, want %v", w, trust/3)
	}
}
