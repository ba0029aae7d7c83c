package site

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dpcache/internal/analytical"
	"dpcache/internal/repository"
	"dpcache/internal/script"
)

func newRepo() *repository.Repo { return repository.New(repository.LatencyModel{}) }

func TestSyntheticConfigValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Pages: 0, FragmentsPerPage: 4, FragmentBytes: 1024},
		{Pages: 1, FragmentsPerPage: 0, FragmentBytes: 1024},
		{Pages: 1, FragmentsPerPage: 1, FragmentBytes: 4},
		{Pages: 1, FragmentsPerPage: 1, FragmentBytes: 1024, Cacheability: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if err := DefaultSynthetic().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticFragmentSizesExact(t *testing.T) {
	repo := newRepo()
	cfg := DefaultSynthetic()
	sc, man, err := BuildSynthetic(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < cfg.Pages; page++ {
		ctx := script.NewContext(repo, "", map[string]string{"page": fmt.Sprint(page)})
		body, err := script.RenderPage(sc, ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := cfg.FragmentsPerPage * cfg.FragmentBytes
		if len(body) != want {
			t.Fatalf("page %d renders %d bytes, want %d", page, len(body), want)
		}
	}
	if len(man.FragmentBytes) != cfg.Pages*cfg.FragmentsPerPage {
		t.Fatalf("manifest fragments = %d", len(man.FragmentBytes))
	}
}

func TestSyntheticCacheabilityExact(t *testing.T) {
	repo := newRepo()
	cfg := DefaultSynthetic() // 40 fragments, c=0.6
	_, man, err := BuildSynthetic(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range man.Cacheable {
		if c {
			n++
		}
	}
	if got := float64(n) / float64(len(man.Cacheable)); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("cacheable fraction = %v, want 0.6 exactly", got)
	}
}

func TestSyntheticOutOfRangePageClamps(t *testing.T) {
	repo := newRepo()
	sc, _, err := BuildSynthetic(DefaultSynthetic(), repo)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"-3", "999", "junk"} {
		ctx := script.NewContext(repo, "", map[string]string{"page": p})
		if _, err := script.RenderPage(sc, ctx); err != nil {
			t.Fatalf("page=%q: %v", p, err)
		}
	}
}

func TestSyntheticTouchFragmentChangesOutput(t *testing.T) {
	repo := newRepo()
	sc, _, err := BuildSynthetic(DefaultSynthetic(), repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := func() *script.Context { return script.NewContext(repo, "", map[string]string{"page": "0"}) }
	before, _ := script.RenderPage(sc, ctx())
	TouchFragment(repo, 0, "2")
	after, _ := script.RenderPage(sc, ctx())
	if string(before) == string(after) {
		t.Fatal("TouchFragment did not change rendered output")
	}
	if len(before) != len(after) {
		t.Fatal("TouchFragment changed page size")
	}
}

func TestManifestModelRoundTrip(t *testing.T) {
	repo := newRepo()
	cfg := DefaultSynthetic()
	_, man, err := BuildSynthetic(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	access := analytical.ZipfWeights(cfg.Pages, 0)
	m := man.Model(500, 10, 0.8, access)
	// With α=0 the model must equal the closed form.
	p := analytical.Baseline()
	if got, want := m.Ratio(), p.Ratio(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("manifest model ratio %v != closed form %v", got, want)
	}
}

func TestBookstorePlainRender(t *testing.T) {
	repo := newRepo()
	sc := BuildBookstore(repo)
	body, err := script.RenderPage(sc, script.NewContext(repo, "bob", map[string]string{"categoryID": "Fiction"}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	for _, want := range []string{"Hello, Bob!", "<h1>Fiction</h1>", "The Dispossessed", "Because you like Fiction"} {
		if !strings.Contains(s, want) {
			t.Fatalf("page missing %q:\n%s", want, s)
		}
	}
}

func TestBookstoreAnonymousLayout(t *testing.T) {
	repo := newRepo()
	sc := BuildBookstore(repo)
	body, err := script.RenderPage(sc, script.NewContext(repo, "", map[string]string{"categoryID": "Science"}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	if strings.Contains(s, "Hello,") || strings.Contains(s, "Because you like") {
		t.Fatalf("anonymous page contains personalized fragments:\n%s", s)
	}
	if !strings.Contains(s, "<h1>Science</h1>") {
		t.Fatalf("missing category content:\n%s", s)
	}
}

func TestBookstoreUnknownCategoryGraceful(t *testing.T) {
	repo := newRepo()
	sc := BuildBookstore(repo)
	body, err := script.RenderPage(sc, script.NewContext(repo, "", map[string]string{"categoryID": "Nope"}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Unknown category") {
		t.Fatalf("unknown category not handled: %s", body)
	}
}

func TestBrokerageRenderAndTTLStructure(t *testing.T) {
	repo := newRepo()
	sc := BuildBrokerage(repo)
	body, err := script.RenderPage(sc, script.NewContext(repo, "", map[string]string{"ticker": "IBM"}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	for _, want := range []string{"IBM: $", "announces quarterly results", "52wk high"} {
		if !strings.Contains(s, want) {
			t.Fatalf("quote page missing %q:\n%s", want, s)
		}
	}
	// The three content elements carry the paper's three lifetimes.
	ctx := script.NewContext(repo, "", map[string]string{"ticker": "IBM"})
	var ttls []string
	for _, b := range sc.Layout(ctx) {
		if b.Cacheable {
			ttls = append(ttls, fmt.Sprintf("%s=%v", b.Name, b.TTL))
		}
	}
	want := []string{"pxquote=2s", "headlines=30m0s", "historical=720h0m0s"}
	if fmt.Sprint(ttls) != fmt.Sprint(want) {
		t.Fatalf("ttls = %v, want %v", ttls, want)
	}
}

func TestBrokerageTickQuoteChangesOnlyPrice(t *testing.T) {
	repo := newRepo()
	sc := BuildBrokerage(repo)
	render := func() string {
		b, err := script.RenderPage(sc, script.NewContext(repo, "", map[string]string{"ticker": "IBM"}))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before := render()
	TickQuote(repo, "IBM", "999.99", "10:00:00")
	after := render()
	if before == after {
		t.Fatal("tick did not change page")
	}
	if !strings.Contains(after, "$999.99") {
		t.Fatalf("new price missing: %s", after)
	}
	// Headlines and research must be unchanged.
	if !strings.Contains(after, "announces quarterly results") || !strings.Contains(after, "52wk high") {
		t.Fatal("tick disturbed other fragments")
	}
}

func TestPortalValidation(t *testing.T) {
	bad := []PortalConfig{
		{Users: 0, Modules: 5, ModulesPerPage: 2, ModuleBytes: 100},
		{Users: 1, Modules: 2, ModulesPerPage: 5, ModuleBytes: 100},
		{Users: 1, Modules: 5, ModulesPerPage: 2, ModuleBytes: 4},
	}
	for i, c := range bad {
		if _, err := BuildPortal(c, newRepo()); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPortalPerUserLayouts(t *testing.T) {
	repo := newRepo()
	cfg := DefaultPortal()
	sc, err := BuildPortal(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	u0, err := script.RenderPage(sc, script.NewContext(repo, "u0", nil))
	if err != nil {
		t.Fatal(err)
	}
	u1, err := script.RenderPage(sc, script.NewContext(repo, "u1", nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(u0) == string(u1) {
		t.Fatal("different users got identical portal pages")
	}
	if !strings.Contains(string(u0), "Welcome back, User 0") {
		t.Fatalf("u0 greeting missing: %s", u0[:120])
	}
	anon, err := script.RenderPage(sc, script.NewContext(repo, "", nil))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(anon), "Welcome back") {
		t.Fatal("anonymous portal page is personalized")
	}
}

func TestPortalModuleSizesStable(t *testing.T) {
	repo := newRepo()
	cfg := DefaultPortal()
	sc, err := BuildPortal(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := script.RenderPage(sc, script.NewContext(repo, "u3", nil))
	UpdateModule(repo, 3, "completely new body text")
	b, _ := script.RenderPage(sc, script.NewContext(repo, "u3", nil))
	if len(a) != len(b) {
		t.Fatalf("module update changed page size: %d → %d", len(a), len(b))
	}
}

func TestPadTo(t *testing.T) {
	if got := padTo("abc", 10); len(got) != 10 || !strings.HasPrefix(got, "abc") {
		t.Fatalf("padTo = %q", got)
	}
	if got := padTo("abcdef", 3); got != "abc" {
		t.Fatalf("padTo truncation = %q", got)
	}
	long := padTo("x", 200)
	if len(long) != 200 {
		t.Fatalf("padTo long = %d", len(long))
	}
}

// Every shipped site keeps the contract package script states: a page is a
// function of the request and of the rows it reads through the Context. Run
// twice on one repository, each request writes the same bytes and reads the
// same rows (WatchReads); on a second build of the site, the same bytes. The
// rows a page reads are its shell's BEM dependencies, and a lease on a
// template lives as long as those entries do, so a site that broke this
// would be served stale templates.
//
// It also holds each site to the scope its runs report. A run that did not
// read the user (ReadIdentity) is answered, for another visitor and for an
// anonymous one, with the same plain page and the same template: the origin
// leases such a template to every visitor of the page. The synthetic site
// and the brokerage never read the user; the bookstore and the portal always
// do, their layouts calling Anonymous. These are the four sites the server
// ships; examples/ registers these and defines no script of its own.
func TestSitesRenderDeterministically(t *testing.T) {
	type request struct {
		user   string
		params map[string]string
	}
	sites := []struct {
		name     string
		build    func(repo *repository.Repo) (*script.Script, error)
		requests []request
		// exact says the site's runs read the user, so its templates are
		// leased to the visitor; otherwise to the page.
		exact bool
	}{
		{"synth", func(repo *repository.Repo) (*script.Script, error) {
			cfg := SyntheticConfig{Pages: 3, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 0.5}
			sc, _, err := BuildSynthetic(cfg, repo)
			return sc, err
		}, []request{{"", map[string]string{"page": "1"}}, {"u1", map[string]string{"page": "2"}}, {"", nil}}, false},
		{"bookstore", func(repo *repository.Repo) (*script.Script, error) { return BuildBookstore(repo), nil },
			[]request{{"", map[string]string{"categoryID": "Fiction"}}, {"bob", map[string]string{"categoryID": "Computing"}}, {"mallory", nil}}, true},
		{"brokerage", func(repo *repository.Repo) (*script.Script, error) { return BuildBrokerage(repo), nil },
			[]request{{"", map[string]string{"ticker": "GE"}}, {"carol", nil}}, false},
		{"portal", func(repo *repository.Repo) (*script.Script, error) { return BuildPortal(DefaultPortal(), repo) },
			[]request{{"", nil}, {"u3", nil}, {"stranger", nil}}, true},
	}
	for _, s := range sites {
		type run struct {
			page, template string
			reads          []repository.Key
			readIdentity   bool
		}
		render := func(sc *script.Script, repo *repository.Repo, rq request) run {
			ctx := script.NewContext(repo, rq.user, rq.params)
			var r run
			ctx.WatchReads(func(k repository.Key) { r.reads = append(r.reads, k) })
			var b strings.Builder
			if err := script.Run(sc, ctx, &script.PlainSink{W: &b}); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			ctx.WatchReads(nil)
			r.page, r.readIdentity = b.String(), ctx.ReadIdentity()
			var tmpl templateSink
			if err := script.Run(sc, ctx, &tmpl); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if ctx.ReadIdentity() != r.readIdentity {
				t.Errorf("%s %+v: the plain run read the user: %v; the template run: %v", s.name, rq, r.readIdentity, ctx.ReadIdentity())
			}
			r.template = tmpl.b.String()
			return r
		}
		repoA, repoB := newRepo(), newRepo()
		a, err := s.build(repoA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.build(repoB)
		if err != nil {
			t.Fatal(err)
		}
		for _, rq := range s.requests {
			first := render(a, repoA, rq)
			again := render(a, repoA, rq)
			other := render(b, repoB, rq)
			if again.page != first.page || other.page != first.page || again.template != first.template || other.template != first.template {
				t.Errorf("%s %+v: renders differ:\n%q\n%q\n%q", s.name, rq, first.page, again.page, other.page)
			}
			if !slices.Equal(again.reads, first.reads) {
				t.Errorf("%s %+v: page reads differ: %v then %v", s.name, rq, first.reads, again.reads)
			}
			if first.readIdentity != s.exact {
				t.Errorf("%s %+v: the run read the user: %v, want %v", s.name, rq, first.readIdentity, s.exact)
			}
			if first.readIdentity {
				continue
			}
			for _, user := range []string{"someone-else", ""} {
				if as := render(a, repoA, request{user, rq.params}); as.page != first.page || as.template != first.template {
					t.Errorf("%s %+v read no user, yet as %q it renders\n%q / %q\nnot\n%q / %q",
						s.name, rq, user, as.page, as.template, first.page, first.template)
				}
			}
		}
	}
}

// templateSink writes what a template carries — the literal bytes, and each
// tagged block's fragment ID and TTL — without rendering a tagged block, as
// the origin's sink does on a BEM hit.
type templateSink struct{ b strings.Builder }

func (s *templateSink) Literal(p []byte) error {
	s.b.Write(p)
	return nil
}

func (s *templateSink) Fragment(id string, ttl time.Duration, _ *script.Renderer) error {
	fmt.Fprintf(&s.b, "\x00%s\x00%v\x00", id, ttl)
	return nil
}
