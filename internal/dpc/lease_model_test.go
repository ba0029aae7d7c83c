package dpc

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
)

// The lease model: a proxy on the invalidation fabric in front of a real
// origin and BEM, on a fake clock, driven by seeded schedules. After every
// response a lease served, and every page-tier hit an identified visitor
// was served under the page's grant, the page must be the one the origin
// renders plain from the repository as it is now, for that visitor —
// unless the fabric went quiet (a write whose events were lost) within the
// page tier's TTL, the staleness a lease's term bounds.

// leaseModelTTL is the proxy's PageCacheTTL in the model: every lease's term.
const leaseModelTTL = 10 * time.Second

// leaseSite is one site the model drives.
type leaseSite struct {
	name string
	// capacity is the BEM's slot count: small enough that it evicts.
	capacity int
	// step is the unit of a clock step.
	step  time.Duration
	build func(repo *repository.Repo) (*script.Script, error)
	urls  []string
	users []string
	// tagged writes a row a tagged block reads; page writes one the layout
	// or an untagged block reads; spoil writes one the page a visitor gets
	// at url reads.
	tagged, page func(repo *repository.Repo, rng *rand.Rand)
	spoil        func(repo *repository.Repo, rng *rand.Rand, url, user string)
	// crossed names, for the crossed-SET episode, a page and the tagged
	// fragments on it; nil where the episode does not run.
	crossed *crossedPage
	// pageScoped says the site's runs never read the visitor, so its grants
	// are the page's and the page tier serves its identified visitors; where
	// it is false, neither may be.
	pageScoped bool
}

type crossedPage struct {
	url   string
	frags []int
}

func touch(repo *repository.Repo, j int, rng *rand.Rand) {
	site.TouchFragment(repo, j, strconv.Itoa(2+rng.Intn(1_000_000)))
}

// profile rewrites a portal user's profile: a new name and a new choice of
// modules.
func profile(repo *repository.Repo, rng *rand.Rand, user string) {
	mods := []string{"mod0", "mod1", "mod2", "mod3", "mod4", "mod5"}
	rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
	repo.Put(repository.Key{Table: "profiles", Row: user},
		map[string]string{"name": "User " + strconv.Itoa(rng.Intn(1000)), "modules": strings.Join(mods[:3], ",")})
}

// buildPrefs is a dashboard whose layout and untagged block read the
// visitor's own preferences, a row no tagged block reads: only the page's
// shell depends on it. The news items are tagged and shared.
func buildPrefs(repo *repository.Repo) (*script.Script, error) {
	for _, n := range []string{"news0", "news1", "news2"} {
		repo.Put(repository.Key{Table: "news", Row: n}, map[string]string{"title": n})
	}
	item := func(n string) script.Block {
		return script.Tagged("item-"+n, 0, nil, func(c *script.Context, w io.Writer) error {
			_, err := io.WriteString(w, "<li>"+c.Field("news", n, "title", "?")+"</li>")
			return err
		})
	}
	theme := script.Untagged("theme", func(c *script.Context, w io.Writer) error {
		_, err := io.WriteString(w, "<body class="+c.Field("prefs", c.User(), "theme", "plain")+">")
		return err
	})
	return &script.Script{Name: "prefs", Layout: func(c *script.Context) []script.Block {
		blocks := []script.Block{theme}
		for _, n := range strings.Split(c.Field("prefs", c.User(), "show", "news0"), ",") {
			blocks = append(blocks, item(n))
		}
		return blocks
	}}, nil
}

func prefs(repo *repository.Repo, rng *rand.Rand, user string) {
	items := []string{"news0", "news1", "news2"}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	repo.Put(repository.Key{Table: "prefs", Row: user}, map[string]string{
		"theme": "t" + strconv.Itoa(rng.Intn(1000)), "show": strings.Join(items[:1+rng.Intn(3)], ","),
	})
}

var leaseSites = []leaseSite{
	{
		// Fragments 0–9 are tagged and 10–15 untagged: page 2 mixes both,
		// page 3 is all page reads. Ten fragments and up to five shells in
		// fourteen slots: the BEM evicts.
		name: "synth", capacity: 14, step: 4 * time.Second,
		build: func(repo *repository.Repo) (*script.Script, error) {
			sc, _, err := site.BuildSynthetic(site.SyntheticConfig{Pages: 4, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 0.5}, repo)
			return sc, err
		},
		urls:   []string{"/page/synth?page=0", "/page/synth?page=1", "/page/synth?page=2", "/page/synth?page=3", "/page/synth?page=1&x=1"},
		users:  []string{"", "u1", "u2", "u3"},
		tagged: func(repo *repository.Repo, rng *rand.Rand) { touch(repo, rng.Intn(10), rng) },
		page:   func(repo *repository.Repo, rng *rand.Rand) { touch(repo, 10+rng.Intn(6), rng) },
		spoil: func(repo *repository.Repo, rng *rand.Rand, url, _ string) {
			_, page, _ := strings.Cut(url, "page=")
			touch(repo, 4*int(page[0]-'0')+rng.Intn(4), rng)
		},
		crossed:    &crossedPage{url: "/page/synth?page=0", frags: []int{0, 1, 2, 3}},
		pageScoped: true,
	},
	{
		// A per-user layout: the profile row the layout reads picks the
		// modules. Modules expire after an hour. Six modules, five
		// greetings and a shell in ten slots: the BEM evicts.
		name: "portal", capacity: 10, step: 20 * time.Minute,
		build: func(repo *repository.Repo) (*script.Script, error) {
			return site.BuildPortal(site.PortalConfig{Users: 4, Modules: 6, ModulesPerPage: 3, ModuleBytes: 64}, repo)
		},
		urls:  []string{"/page/portal"},
		users: []string{"", "u0", "u1", "u2", "u3", "stranger"},
		tagged: func(repo *repository.Repo, rng *rand.Rand) {
			site.UpdateModule(repo, rng.Intn(6), "body "+strconv.Itoa(rng.Intn(1000)))
		},
		page: func(repo *repository.Repo, rng *rand.Rand) { profile(repo, rng, "u"+strconv.Itoa(rng.Intn(4))) },
		spoil: func(repo *repository.Repo, rng *rand.Rand, _, user string) {
			if user == "" || user == "stranger" {
				site.UpdateModule(repo, 0, "body "+strconv.Itoa(rng.Intn(1000))) // on both their pages
				return
			}
			profile(repo, rng, user)
		},
	},
	{
		// Three news items and four preference rows in six slots: the BEM
		// evicts.
		name: "prefs", capacity: 6, step: time.Minute,
		build: buildPrefs,
		urls:  []string{"/page/prefs"},
		users: []string{"", "u0", "u1", "u2"},
		tagged: func(repo *repository.Repo, rng *rand.Rand) {
			n := "news" + strconv.Itoa(rng.Intn(3))
			repo.Put(repository.Key{Table: "news", Row: n}, map[string]string{"title": n + " " + strconv.Itoa(rng.Intn(1000))})
		},
		page:  func(repo *repository.Repo, rng *rand.Rand) { prefs(repo, rng, "u"+strconv.Itoa(rng.Intn(3))) },
		spoil: func(repo *repository.Repo, rng *rand.Rand, _, user string) { prefs(repo, rng, user) },
	},
	{
		// Section 3.2.1's catalog: the layout asks whether there is a
		// visitor, and every block that reads a row is tagged. Fourteen
		// slots hold everything the schedules reach; one fewer and the
		// BEM's evictions leave too few leases to check.
		name: "bookstore", capacity: 14, step: time.Minute,
		build: func(repo *repository.Repo) (*script.Script, error) { return site.BuildBookstore(repo), nil },
		urls: []string{"/page/catalog?categoryID=Fiction", "/page/catalog?categoryID=Science",
			"/page/catalog?categoryID=History", "/page/catalog"},
		users:  []string{"", "bob", "carol", "mallory"},
		tagged: func(repo *repository.Repo, rng *rand.Rand) { category(repo, rng, bookCategories[rng.Intn(3)]) },
		page: func(repo *repository.Repo, rng *rand.Rand) {
			repo.Put(repository.Key{Table: "users", Row: []string{"bob", "carol"}[rng.Intn(2)]},
				map[string]string{"name": "Name " + strconv.Itoa(rng.Intn(1000)), "likes": bookCategories[rng.Intn(3)]})
		},
		spoil: func(repo *repository.Repo, rng *rand.Rand, url, _ string) {
			cat := "Fiction"
			if _, c, ok := strings.Cut(url, "categoryID="); ok {
				cat = c
			}
			category(repo, rng, cat)
		},
	},
}

var bookCategories = []string{"Fiction", "Science", "History"}

// category retitles a bookstore category, which its page's tagged block
// reads.
func category(repo *repository.Repo, rng *rand.Rand, cat string) {
	repo.Put(repository.Key{Table: "categories", Row: cat},
		map[string]string{"title": cat + " " + strconv.Itoa(rng.Intn(1000)), "count": "2"})
}

// heldLink is the proxy's origin link, in memory, with two holds the
// crossed-SET episode arms: one parks the next request after the origin has
// answered it, until unpark closes; the other holds every bypass fetch
// before the origin sees it, signalling on held, until unhold closes.
type heldLink struct {
	origin http.Handler

	mu             sync.Mutex
	parked, unpark chan struct{} // parked is closed by the request it parks
	held, unhold   chan struct{}
}

func (l *heldLink) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	parked, unpark := l.parked, l.unpark
	l.parked = nil
	var held, unhold chan struct{}
	if r.Header.Get(headerBypass) != "" {
		held, unhold = l.held, l.unhold
	}
	l.mu.Unlock()
	if held != nil {
		held <- struct{}{}
		<-unhold
	}
	rec := httptest.NewRecorder()
	l.origin.ServeHTTP(rec, r)
	if parked != nil {
		close(parked)
		<-unpark
	}
	return rec.Result(), nil
}

// quietSub is the proxy's subscription with a switch that loses events, as
// a fabric that has gone quiet does.
type quietSub struct {
	p     *Proxy
	quiet atomic.Bool
}

func (q *quietSub) Apply(ev coherency.Event) uint64 {
	if q.quiet.Load() {
		return 0
	}
	return q.p.Apply(ev)
}

type leaseRig struct {
	t    testing.TB
	ls   leaseSite
	seed int64
	step int
	rng  *rand.Rand
	clk  *clock.Fake
	repo *repository.Repo
	srv  *origin.Server
	hub  *coherency.Hub
	p    *Proxy
	link *heldLink
	sub  *quietSub // the push subscription; nil on the pull path
	// stopFollow stops the proxy's Follow and waits for it to return; nil
	// on the push path.
	stopFollow func()
	quiet      time.Time // the last write whose events the fabric lost
	// checked counts the lease responses checked against a fresh render,
	// and identityPages the page-tier hits an identified visitor was served,
	// each checked too; crossedVoids counts the crossed episodes whose
	// clean run filed a lease that R2's report then voided.
	checked, identityPages, crossedVoids int
}

// newLeaseRig builds the model's rig with the proxy subscribed to the hub;
// opts adjust the proxy's configuration.
func newLeaseRig(t testing.TB, ls leaseSite, seed int64, opts ...func(*Config)) *leaseRig {
	g := buildLeaseRig(t, ls, seed, false, opts...)
	g.sub = &quietSub{p: g.p}
	g.hub.Subscribe(g.sub)
	return g
}

// newPulledLeaseRig is newLeaseRig with the proxy on the pull path: it
// joins the origin's event stream over its link and follows it, instead of
// being subscribed to the hub.
func newPulledLeaseRig(t testing.TB, ls leaseSite, seed int64) *leaseRig {
	g := buildLeaseRig(t, ls, seed, true)
	if err := g.p.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.follow()
	t.Cleanup(func() { g.stopFollow() })
	return g
}

// follow starts the proxy's Follow.
func (g *leaseRig) follow() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.p.Follow(ctx)
	}()
	g.stopFollow = func() {
		cancel()
		<-done
	}
}

// streamLink sends the proxy's polls of the event stream straight to the
// origin, around the holds of its link, which are for page fetches.
type streamLink struct{ *heldLink }

func (l streamLink) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != coherency.EventsPath {
		return l.heldLink.RoundTrip(r)
	}
	rec := httptest.NewRecorder()
	l.origin.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func buildLeaseRig(t testing.TB, ls leaseSite, seed int64, pulled bool, opts ...func(*Config)) *leaseRig {
	repo := repository.New(repository.LatencyModel{})
	clk := clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC))
	mon, err := bem.New(bem.Config{Capacity: ls.capacity, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := origin.New(origin.Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ls.build(repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}
	link := &heldLink{origin: srv}
	var transport http.RoundTripper = link
	if pulled {
		transport = streamLink{link}
	}
	cfg := Config{
		OriginURL: "http://origin.invalid", Capacity: ls.capacity, Strict: true, Transport: transport,
		PageCache: true, PageCacheTTL: leaseModelTTL, Clock: clk, PublishInterval: -1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 0 {
		// Every identity of a page in one bucket: only the full key
		// comparison keeps their leases apart.
		hashSeed := maphash.MakeSeed()
		p.leases.hash = func(key string) uint64 {
			return maphash.String(hashSeed, key[:strings.IndexByte(key, 0)+1]) // the URI and its NUL: PageKeyPrefix
		}
	}
	return &leaseRig{t: t, ls: ls, seed: seed, rng: rand.New(rand.NewSource(seed)), clk: clk,
		repo: repo, srv: srv, hub: srv.Hub(), p: p, link: link}
}

func (g *leaseRig) fatalf(format string, args ...any) {
	g.t.Helper()
	g.t.Fatalf("%s seed %d step %d: %s", g.ls.name, g.seed, g.step, fmt.Sprintf(format, args...))
}

// serve makes one GET through the proxy.
func (g *leaseRig) serve(url, user string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	g.p.ServeHTTP(rec, req)
	return rec
}

// plain is the page the origin renders now, to a caller that does not
// speak templates.
func (g *leaseRig) plain(url, user string) string {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	g.srv.ServeHTTP(rec, req)
	return rec.Body.String()
}

// visit serves url as user and holds a lease's page, and an identified
// visitor's page-tier hit, to the oracle.
func (g *leaseRig) visit(url, user string) {
	g.t.Helper()
	rec := g.serve(url, user)
	if rec.Code != http.StatusOK {
		g.fatalf("%s as %q: status %d: %s", url, user, rec.Code, rec.Body)
	}
	by := rec.Header().Get("X-Cache")
	switch {
	case by == "LEASE":
		g.checked++
	case by == "PAGE" && user != "":
		g.identityPages++
	default:
		return
	}
	if want := g.plain(url, user); rec.Body.String() != want && !g.clk.Now().Before(g.quiet.Add(leaseModelTTL)) {
		g.fatalf("%s as %q was served X-Cache %s, but the page is now\n%q\nnot\n%q", url, user, by, want, rec.Body)
	}
}

// quietWrite makes a write whose invalidations the fabric loses. On the
// pull path the proxy stops following, its polls ack the write's events
// without applying them, and it follows again from past them: lost events
// no gap reveals.
func (g *leaseRig) quietWrite(write func(*repository.Repo, *rand.Rand)) {
	if g.sub != nil {
		g.sub.quiet.Store(true)
		write(g.repo, g.rng)
		g.sub.quiet.Store(false)
		g.quiet = g.clk.Now()
		return
	}
	g.stopFollow()
	f := &g.p.fabric
	f.mu.Lock()
	c := f.cursor
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		write(g.repo, g.rng)
	}()
	for acking := true; acking; {
		select {
		case <-done:
			acking = false
		default:
		}
		c.After = g.hub.Seq()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if a := g.hub.Poll(ctx, c); a.Gap {
			g.fatalf("the hub dropped the proxy while its polls acked: %+v", a)
		}
		cancel()
	}
	f.mu.Lock()
	f.lastSeq = c.After
	f.mu.Unlock()
	g.follow()
	g.quiet = g.clk.Now()
}

// lapse is a lease outliving a fabric that went quiet: a visitor's page is
// leased, a write to a row it reads loses its events, and once the page
// tier's TTL has passed the visitor's next visit must be the page as it is
// now — the lease's term is over, whatever the TTLs of its entries.
func (g *leaseRig) lapse() {
	ls := g.ls
	url, user := ls.urls[g.rng.Intn(len(ls.urls))], ls.users[g.rng.Intn(len(ls.users))]
	g.visit(url, user)
	g.visit(url, user)
	g.quietWrite(func(repo *repository.Repo, rng *rand.Rand) { ls.spoil(repo, rng, url, user) })
	g.clk.Advance(leaseModelTTL)
	g.visit(url, user)
}

// crossed is a stale report crossing a SET, with a real origin. R1's
// template carries the SET of a fresh generation g of a tagged fragment and
// is held after the origin answered it. R2, another visitor, gets the
// GET-only template naming g and goes stale (g is not in the store yet);
// its bypass, and the stale report on it, are held. R1's SET of g then
// lands, and R3, a third visitor, gets the GET-only template naming g, runs
// it clean and files the lease its answer granted. Only then does R2's
// report reach the origin and kill g — an event — and a write moves the
// fragment's row. R3's next visit must not be served g's bytes: the event
// raised the slot's floor past g, which voids R3's lease and the page its
// grant filed.
func (g *leaseRig) crossed() {
	cp := g.ls.crossed
	users := append([]string(nil), g.ls.users...)
	g.rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	u1, u2, u3 := users[0], users[1], users[2]
	j := cp.frags[g.rng.Intn(len(cp.frags))]
	touch(g.repo, j, g.rng) // the next template SETs j's fragment

	l := g.link
	parked, unpark := make(chan struct{}), make(chan struct{})
	held, unhold := make(chan struct{}), make(chan struct{})
	l.mu.Lock()
	l.parked, l.unpark, l.held, l.unhold = parked, unpark, held, unhold
	l.mu.Unlock()
	// Each request runs until it is held, or done: a page-tier hit or a
	// lease, say, does not reach the origin, and the episode goes on
	// without it.
	runUntil := func(wg *sync.WaitGroup, user string, on <-chan struct{}) {
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			g.serve(cp.url, user)
		}()
		select {
		case <-on:
		case <-done:
		}
	}
	var r1, r2 sync.WaitGroup
	runUntil(&r1, u1, parked)
	l.mu.Lock()
	l.parked = nil // R1 did not take it if it never reached the origin
	l.mu.Unlock()
	runUntil(&r2, u2, held)
	l.mu.Lock()
	l.held = nil
	l.mu.Unlock()
	close(unpark)
	r1.Wait() // R1's SET of g has landed
	m := g.p.Registry()
	grants, voids := m.Counter("dpc.lease_grants").Value(), m.Counter("dpc.lease_floor_voids").Value()
	g.visit(cp.url, u3)
	filed := m.Counter("dpc.lease_grants").Value() > grants
	close(unhold)
	r2.Wait() // R2's report has killed g
	touch(g.repo, j, g.rng)
	g.visit(cp.url, u3)
	if filed && m.Counter("dpc.lease_floor_voids").Value() > voids {
		g.crossedVoids++
	}
}

// run drives steps operations and returns the number of lease responses
// checked.
func (g *leaseRig) run(steps int) int {
	ls := g.ls
	// The proxy joins the fabric at its first event; before it, no fetch
	// asks for a lease.
	g.hub.BroadcastPurge("/none")
	for g.step = 0; g.step < steps; g.step++ {
		switch op := g.rng.Intn(48); {
		case op < 36:
			g.visit(ls.urls[g.rng.Intn(len(ls.urls))], ls.users[g.rng.Intn(len(ls.users))])
		case op < 39:
			ls.tagged(g.repo, g.rng)
		case op < 42:
			ls.page(g.repo, g.rng)
		case op < 43:
			if g.rng.Intn(2) == 0 {
				g.quietWrite(ls.tagged)
			} else {
				g.quietWrite(ls.page)
			}
		case op < 45:
			g.clk.Advance(time.Duration(g.rng.Intn(4)) * ls.step)
		case op < 46:
			g.hub.BroadcastFlush("plan")
		case op < 47:
			g.lapse()
		case ls.crossed != nil:
			g.crossed()
		}
	}
	snap := g.p.Registry().Snapshot()
	if n := snap["dpc.errors"]; n != 0 {
		g.fatalf("dpc.errors = %d", n)
	}
	grants, hits := snap["dpc.lease_page_grants"], snap["dpc.pagecache_identity_hits"]
	if !ls.pageScoped && (grants != 0 || hits != 0) {
		g.fatalf("%d page-scoped grants and %d identified page-tier hits, on a site whose runs read the visitor", grants, hits)
	}
	return g.checked
}

// The lease against its oracle, a fresh plain render, on both sites over
// writes to rows tagged blocks read and to rows the layout and untagged
// blocks read, BEM evictions, TTL expiry, sequence gaps, plan flushes and
// a stale report crossing a SET (crossed), whose voided lease it counts.
// Each part of the lease is needed for that:
// without the floor, the shell, the shell's growing dependencies, the term
// cap or the full key comparison, some seed here serves a stale page. So is
// its scope: the synthetic site's visitors share the page-tier entry a
// page-scoped grant filed, while a site whose runs ask who the visitor is —
// the portal's, the dashboard's and the bookstore's layouts — gets no such
// grant, or some seed serves one visitor another's page.
func TestLeaseModel(t *testing.T) {
	for _, ls := range leaseSites {
		checked, identityPages, crossed := 0, 0, 0
		var voids, hits int64
		for seed := int64(1); seed <= 8; seed++ {
			g := newLeaseRig(t, ls, seed)
			checked += g.run(600)
			identityPages += g.identityPages
			crossed += g.crossedVoids
			snap := g.p.Registry().Snapshot()
			voids += snap["dpc.lease_voids"]
			hits += snap["dpc.lease_hits"]
		}
		t.Logf("%s: %d lease responses and %d identified page-tier hits checked, %d lease hits, %d voids, %d crossed leases voided",
			ls.name, checked, identityPages, hits, voids, crossed)
		if ls.crossed != nil && crossed == 0 {
			t.Errorf("%s: no crossed episode filed a lease that the crossing report voided", ls.name)
		}
		if checked+identityPages < 100 || voids == 0 {
			t.Errorf("%s: %d lease responses, %d identified page-tier hits and %d voids over 8 seeds; the model barely reaches the leases",
				ls.name, checked, identityPages, voids)
		}
		if ls.pageScoped && identityPages == 0 {
			t.Errorf("%s: no identified page-tier hit on a site whose runs never read the visitor", ls.name)
		}
	}
}

// TestLeaseModel with the proxy on the pull path: it follows the origin's
// event stream, and each write returns once the proxy's poll has acked its
// events.
func TestLeaseModelPulled(t *testing.T) {
	for _, ls := range leaseSites {
		checked, identityPages, crossed := 0, 0, 0
		var voids int64
		for seed := int64(1); seed <= 8; seed++ {
			g := newPulledLeaseRig(t, ls, seed)
			checked += g.run(600)
			identityPages += g.identityPages
			crossed += g.crossedVoids
			voids += g.p.Registry().Snapshot()["dpc.lease_voids"]
			if n := g.p.Registry().Snapshot()["dpc.fabric_gaps"]; n != 0 {
				t.Errorf("%s seed %d: %d gaps on a stream that lost nothing", ls.name, seed, n)
			}
		}
		t.Logf("%s: %d lease responses and %d identified page-tier hits checked, %d voids, %d crossed leases voided",
			ls.name, checked, identityPages, voids, crossed)
		if ls.crossed != nil && crossed == 0 {
			t.Errorf("%s: no crossed episode filed a lease that the crossing report voided", ls.name)
		}
		if checked+identityPages < 100 || voids == 0 {
			t.Errorf("%s: %d lease responses, %d identified page-tier hits and %d voids over 8 seeds; the model barely reaches the leases",
				ls.name, checked, identityPages, voids)
		}
		if ls.pageScoped && identityPages == 0 {
			t.Errorf("%s: no identified page-tier hit on a site whose runs never read the visitor", ls.name)
		}
	}
}

func FuzzLeaseModel(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, ls := range leaseSites {
			newLeaseRig(t, ls, seed).run(300)
		}
	})
}
