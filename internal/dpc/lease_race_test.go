package dpc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/tmpl"
)

// The race referee for leases: grants, lease hits, late SETs and fabric
// events interleaved. Its rule is the fabric's promise, held to leases: no
// response that starts after Apply(ev) returned carries ev's generation.

// raceOrigin serves one page built from one fragment, slot 1, at the
// fragment's current generation g: the template is a GET of (1, g), the
// fragment's bytes are "v<g>". A lease ask is granted on that template,
// scoped by scope. A bypass gets the page plain, as it is now. /seed?g=N answers a template that SETs generation N — the current one, or
// a dead one arriving late, as a template generated before its event would.
type raceOrigin struct {
	mu  sync.Mutex
	gen uint32
	// scope follows "none" in each grant: empty for the visitor's, ";page"
	// for the page's.
	scope string
	// parkGrant, while non-nil, parks the next answer with a grant after it
	// was decided, until it is closed.
	parkGrant, parked chan struct{}
}

func pageTemplate(gen uint32) []byte {
	var b strings.Builder
	enc := tmpl.Binary{}.NewEncoder(&b)
	_ = enc.Get(1, gen)
	_ = enc.Flush()
	return []byte(b.String())
}

func (o *raceOrigin) current() uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.gen
}

func (o *raceOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/seed" {
		g, _ := strconv.ParseUint(r.URL.Query().Get("g"), 10, 32)
		var b strings.Builder
		enc := tmpl.Binary{}.NewEncoder(&b)
		_ = enc.Set(1, uint32(g), []byte(fmt.Sprintf("v%d", g)))
		_ = enc.Flush()
		w.Header().Set(headerTemplate, "binary")
		_, _ = io.WriteString(w, b.String())
		return
	}
	o.mu.Lock()
	g, park, parked, scope := o.gen, o.parkGrant, o.parked, o.scope
	bypass := r.Header.Get(headerBypass) != ""
	ask := !bypass && r.Header.Get(headerLease) != ""
	if ask {
		o.parkGrant = nil
	}
	o.mu.Unlock()
	if bypass {
		_, _ = fmt.Fprintf(w, "v%d", g)
		return
	}
	if ask && park != nil {
		close(parked)
		<-park
	}
	w.Header().Set(headerTemplate, "binary")
	if ask {
		w.Header().Set(headerLease, "none"+scope)
	}
	_, _ = w.Write(pageTemplate(g))
}

// raceRig is a strict proxy on the fabric in front of a raceOrigin; the
// test is the hub, numbering the events it applies. configure, if any,
// adjusts the proxy's configuration.
type raceRig struct {
	t   testing.TB
	o   *raceOrigin
	p   *Proxy
	seq atomic.Uint64
}

func newRaceRig(t testing.TB, configure ...func(*Config)) *raceRig {
	o := &raceOrigin{gen: 1}
	ts := httptest.NewServer(o)
	t.Cleanup(ts.Close)
	cfg := Config{OriginURL: ts.URL, Capacity: 4, Strict: true, PublishInterval: -1}
	for _, c := range configure {
		c(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	g := &raceRig{t: t, o: o, p: p}
	g.apply(coherency.Event{Kind: coherency.KindPurge, URI: "/none"}) // on the fabric from here
	return g
}

func (g *raceRig) apply(ev coherency.Event) {
	ev.Seq = g.seq.Add(1)
	g.p.Apply(ev)
}

// write moves the fragment to a new generation and applies the old one's
// event, returning the dead generation.
func (g *raceRig) write() uint32 {
	g.o.mu.Lock()
	dead := g.o.gen
	g.o.gen++
	g.o.mu.Unlock()
	g.apply(coherency.Event{Kind: coherency.KindFragment, Key: 1, Gen: dead})
	return dead
}

// get serves one GET of path through the proxy as user.
func (g *raceRig) get(path, user string) (xcache, body string) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-User", user)
	rec := httptest.NewRecorder()
	g.p.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		g.t.Errorf("GET %s as %s: status %d: %s", path, user, rec.Code, rec.Body)
	}
	return rec.Header().Get("X-Cache"), rec.Body.String()
}

func (g *raceRig) seed(gen uint32) { g.get("/seed?g="+strconv.FormatUint(uint64(gen), 10), "seeder") }

// leased brings u's lease on the page, at the current generation, into the
// table: the template with the grant, and a visit served as second says —
// LEASE, the lease's run, or PAGE where the answer carried a page-scoped
// grant and filed the page in the tier.
func (g *raceRig) leased(u, second string) {
	g.t.Helper()
	cur := g.o.current()
	g.seed(cur)
	for i, want := range []string{"MISS", second} {
		if xc, body := g.get("/page", u); xc != want || body != fmt.Sprintf("v%d", cur) {
			g.t.Fatalf("warm-up visit %d as %s: X-Cache %q body %q, want %q and v%d", i, u, xc, body, want, cur)
		}
	}
}

// The two orders, one at a time. A late SET of a dead generation — in a
// template generated before its event — arrives after the event; then the
// lease naming that generation must not resolve, whether its grant reached
// the proxy before the event or after it.
func TestLeaseRaceOrders(t *testing.T) {
	t.Run("event-before-SET", func(t *testing.T) {
		g := newRaceRig(t)
		g.leased("u1", "LEASE")
		dead := g.write()
		g.seed(dead) // late
		if xc, body := g.get("/page", "u1"); xc == "LEASE" || body == fmt.Sprintf("v%d", dead) {
			t.Fatalf("after the event for v%d and a late SET of it: X-Cache %q body %q", dead, xc, body)
		}
		if n := g.p.Registry().Snapshot()["dpc.lease_floor_voids"]; n != 1 {
			t.Fatalf("dpc.lease_floor_voids = %d, want the lease voided by its floor", n)
		}
	})
	t.Run("grant-after-event", func(t *testing.T) {
		g := newRaceRig(t)
		g.leased("u1", "LEASE") // u2's first fetch asks for its own lease
		g.o.mu.Lock()
		g.o.parkGrant, g.o.parked = make(chan struct{}), make(chan struct{})
		park, parked := g.o.parkGrant, g.o.parked
		g.o.mu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			g.get("/page", "u2") // a grant decided before the event
		}()
		<-parked
		dead := g.write()
		g.seed(dead) // late
		close(park)
		<-done // the grant is filed, after the event
		if xc, body := g.get("/page", "u2"); xc == "LEASE" || body == fmt.Sprintf("v%d", dead) {
			t.Fatalf("a grant for v%d filed after its event: X-Cache %q body %q", dead, xc, body)
		}
	})
	// Two identities share the page one page-scoped grant filed in the
	// tier, and both read while the event naming its generation lands: no
	// response that starts after the event was applied may carry that
	// generation, whoever's grant it was.
	t.Run("page-lease-shared", func(t *testing.T) {
		g := newRaceRig(t, func(c *Config) { c.PageCache = true })
		g.o.mu.Lock()
		g.o.scope = ";page"
		g.o.mu.Unlock()
		g.leased("u1", "PAGE")
		cur := g.o.current()
		stale := fmt.Sprintf("v%d", cur)
		if xc, body := g.get("/page", "u2"); xc != "PAGE" || body != stale {
			t.Fatalf("u2's first visit: X-Cache %q body %q, want u1's grant serving %s", xc, body, stale)
		}
		epoch := time.Now()
		var applied atomic.Int64 // when the event's Apply returned, since epoch; 0 before
		var wg sync.WaitGroup
		for _, u := range []string{"u1", "u2"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					started := int64(time.Since(epoch))
					xc, body := g.get("/page", u)
					if at := applied.Load(); at != 0 && at-1 < started && body == stale {
						t.Errorf("%s: a response started %v after %s's event was applied carries it (X-Cache %s)",
							u, time.Duration(started-(at-1)), stale, xc)
					}
				}
			}()
		}
		g.write()
		applied.Store(int64(time.Since(epoch)) + 1)
		wg.Wait()
		for _, u := range []string{"u1", "u2"} {
			if xc, body := g.get("/page", u); xc == "LEASE" || body == stale {
				t.Fatalf("%s after the event for %s: X-Cache %q body %q", u, stale, xc, body)
			}
		}
		if n := g.p.Registry().Snapshot()["dpc.lease_page_grants"]; n == 0 {
			t.Fatal("no page-scoped grant was filed")
		}
	})
}

// A grant the proxy cannot read is not filed: a scope it does not know is
// one it cannot honour.
func TestLeaseGrantUnknownScopeNotFiled(t *testing.T) {
	g := newRaceRig(t)
	g.o.mu.Lock()
	g.o.scope = ";street"
	g.o.mu.Unlock()
	g.seed(1)
	for i := 0; i < 4; i++ {
		if xc, body := g.get("/page", "u1"); xc == "LEASE" || body != "v1" {
			t.Fatalf("visit %d: X-Cache %q body %q, want the origin's answer v1", i, xc, body)
		}
	}
	if n := g.p.Registry().Snapshot()["dpc.lease_grants"]; n != 0 {
		t.Fatalf("dpc.lease_grants = %d for grants with an unknown scope", n)
	}
}

// Readers, a writer and a late-SET sender at once. Every response is held to
// the rule: if the event for the generation it carries had been applied
// before the response started, the response is stale.
func TestLeaseRaceConcurrent(t *testing.T) {
	g := newRaceRig(t)
	g.seed(1)
	epoch := time.Now()
	var applied [1 << 12]atomic.Int64 // per generation: when its event's Apply returned, since epoch; 0 before
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violations atomic.Int64

	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for i := 0; i < 100; i++ {
			dead := g.write()
			applied[dead].Store(int64(time.Since(epoch)) + 1)
			g.seed(g.o.current())
			time.Sleep(time.Millisecond) // time for the readers to lease the new generation
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // late SETs of recently dead generations
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cur := g.o.current(); cur > 1 {
				g.seed(cur - 1)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(user string) { // readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				started := int64(time.Since(epoch))
				xc, body := g.get("/page", user)
				v, err := strconv.ParseUint(strings.TrimPrefix(body, "v"), 10, 32)
				if err != nil || v >= uint64(len(applied)) {
					t.Errorf("%s: body %q", user, body)
					return
				}
				if at := applied[v].Load(); at != 0 && at-1 < started {
					violations.Add(1)
					t.Errorf("%s: a response started %v after v%d's event was applied carries it (X-Cache %s)",
						user, time.Duration(started-(at-1)), v, xc)
				}
			}
		}("r" + strconv.Itoa(r))
	}
	wg.Wait()
	snap := g.p.Registry().Snapshot()
	if violations.Load() == 0 && snap["dpc.lease_hits"] == 0 {
		t.Fatal("no response was served by a lease: the referee proves nothing")
	}
}
