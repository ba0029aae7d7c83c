package origin

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/clock"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
)

// modelSite is one site the validator model drives: what is requested of
// it, by whom, and the writes it takes between requests.
type modelSite struct {
	name string
	// capacity is the BEM's slot count: small enough that the directory
	// evicts while the model runs. It counts a slot for each URL's shell.
	capacity int
	// step is the unit of a clock step, near the site's shortest TTL.
	step  time.Duration
	build func(repo *repository.Repo) (*script.Script, error)
	urls  []string
	users []string
	write func(repo *repository.Repo, rng *rand.Rand)
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var modelSites = []modelSite{
	{
		// Half the fragments are untagged (their rows are page reads), and
		// every tagged one expires.
		name: "synth", capacity: 5 + 5, step: time.Second,
		build: func(repo *repository.Repo) (*script.Script, error) {
			cfg := site.SyntheticConfig{Pages: 4, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 0.5, TTL: 2 * time.Second}
			sc, _, err := site.BuildSynthetic(cfg, repo)
			return sc, err
		},
		urls:  []string{"/page/synth?page=0", "/page/synth?page=1", "/page/synth?page=2", "/page/synth?page=3", "/page/synth?page=1&x=1"},
		users: []string{"", "u1", "u2"},
		write: func(repo *repository.Repo, rng *rand.Rand) {
			site.TouchFragment(repo, rng.Intn(16), strconv.Itoa(rng.Intn(1000)))
		},
	},
	{
		// A per-user layout: the profile row the layout reads picks the
		// modules, and the greeting is a fragment per user.
		name: "portal", capacity: 8 + 1, step: 20 * time.Minute,
		build: func(repo *repository.Repo) (*script.Script, error) {
			return site.BuildPortal(site.PortalConfig{Users: 4, Modules: 6, ModulesPerPage: 3, ModuleBytes: 64}, repo)
		},
		urls:  []string{"/page/portal"},
		users: []string{"", "u0", "u1", "u2", "u3", "stranger"},
		write: func(repo *repository.Repo, rng *rand.Rand) {
			if rng.Intn(2) == 0 {
				site.UpdateModule(repo, rng.Intn(6), "body "+strconv.Itoa(rng.Intn(1000)))
				return
			}
			mods := []string{"mod0", "mod1", "mod2", "mod3", "mod4", "mod5"}
			rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
			u := "u" + strconv.Itoa(rng.Intn(4))
			repo.Put(repository.Key{Table: "profiles", Row: u},
				map[string]string{"name": "User " + strconv.Itoa(rng.Intn(1000)), "modules": strings.Join(mods[:3], ",")})
		},
	},
	{
		// Every block that reads a row is tagged; the layout depends on
		// whether there is a user.
		name: "bookstore", capacity: 8 + 4, step: 10 * time.Minute,
		build: func(repo *repository.Repo) (*script.Script, error) { return site.BuildBookstore(repo), nil },
		urls: []string{"/page/catalog?categoryID=Fiction", "/page/catalog?categoryID=Science",
			"/page/catalog?categoryID=History", "/page/catalog"},
		users: []string{"", "bob", "carol", "mallory"},
		write: func(repo *repository.Repo, rng *rand.Rand) {
			cats := []string{"Fiction", "Science", "History"}
			n := strconv.Itoa(rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				repo.Put(repository.Key{Table: "users", Row: pick(rng, []string{"bob", "carol"})},
					map[string]string{"name": "Name " + n, "likes": pick(rng, cats)})
			case 1:
				cat := pick(rng, cats)
				repo.Put(repository.Key{Table: "categories", Row: cat}, map[string]string{"title": cat + " " + n, "count": "2"})
			default:
				repo.Put(repository.Key{Table: "books", Row: pick(rng, cats) + "/0"}, map[string]string{"title": "Book " + n})
			}
		},
	},
}

// carriesSet reports whether a binary template holds a SET.
func carriesSet(t testing.TB, template []byte) bool {
	t.Helper()
	dec := tmpl.Binary{}.NewDecoder(bytes.NewReader(template))
	for {
		in, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return false
		}
		if err != nil {
			t.Fatalf("decoding a template: %v", err)
		}
		if in.Op == tmpl.OpSet {
			return true
		}
	}
}

// runValidatorModel drives one site through steps operations drawn from
// seed — requests by several identities making right, stale, foreign or no
// offers, some carrying stale reports; writes to rows tagged blocks read and
// to rows the page reads; clock steps across TTLs — on a BEM small enough to
// evict. After every offer answered from a filed record, it generates the
// same request afresh: the template must be GET-only and hash to the offer.
// It returns how many offers were answered from a record, and how many
// entries the BEM evicted.
func runValidatorModel(t testing.TB, ms modelSite, seed int64, steps int) (validated, evictions int64) {
	rng := rand.New(rand.NewSource(seed))
	repo := repository.New(repository.LatencyModel{})
	clk := clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC))
	mon, err := bem.New(bem.Config{Capacity: ms.capacity, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ms.build(repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}

	type reqKey struct{ url, user string }
	seen := map[reqKey][]string{} // digests of the full templates each request got, oldest first
	var offered []reqKey          // the keys in seen
	do := func(k reqKey, have, stale string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, k.url, nil)
		req.Header.Set(HeaderCapable, "1")
		for h, v := range map[string]string{HeaderUser: k.user, HeaderHave: have, HeaderStale: stale} {
			if v != "" {
				req.Header.Set(h, v)
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s seed %d: %s as %q: status %d: %s", ms.name, seed, k.url, k.user, rec.Code, rec.Body)
		}
		return rec
	}
	answered := func() int64 { return srv.reg.Snapshot()["origin.template_refs_validated"] }

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			k := reqKey{pick(rng, ms.urls), pick(rng, ms.users)}
			have := ""
			switch rng.Intn(6) {
			case 1, 2, 3: // right: the last template this request got
				if h := seen[k]; len(h) > 0 {
					have = h[len(h)-1]
				}
			case 4: // stale: any template it got
				if h := seen[k]; len(h) > 0 {
					have = pick(rng, h)
				}
			case 5: // foreign: another request's last, as a page hint can be
				if len(offered) > 0 {
					h := seen[pick(rng, offered)]
					have = h[len(h)-1]
				}
			}
			stale := ""
			if rng.Intn(8) == 0 {
				if top := mon.TopFragments(0); len(top) > 0 {
					f := pick(rng, top)
					stale = fmt.Sprintf("%d:%d", f.DpcKey, f.Gen)
				}
			}
			before := answered()
			rec := do(k, have, stale)
			if rec.Header().Get(HeaderSame) == "" {
				if len(seen[k]) == 0 {
					offered = append(offered, k)
				}
				seen[k] = append(seen[k], hexDigest(rec.Body.String()))
				continue
			}
			if answered() == before {
				continue // hashed: compared with this request's own bytes
			}
			fresh := do(k, "", "")
			if got := hexDigest(fresh.Body.String()); got != have || carriesSet(t, fresh.Body.Bytes()) {
				t.Fatalf("%s seed %d step %d: %s as %q offered %.12s and was answered from the record, "+
					"but a fresh generation hashes to %.12s (SET: %v)",
					ms.name, seed, step, k.url, k.user, have, got, carriesSet(t, fresh.Body.Bytes()))
			}
		case op < 8:
			ms.write(repo, rng)
		default:
			clk.Advance(time.Duration(rng.Intn(4)) * ms.step)
		}
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return answered(), mon.Stats().Evictions
}

// The validator against its oracle, a fresh generation: on every site, under
// every operation the model has, an offer answered from a filed record is
// exactly the template the request would have generated. Each check the
// validator makes — the rows, the entries' generations, their TTLs, the
// user in the key — is needed for that: without any one of them some seed
// here answers a template that is no longer the request's.
func TestValidatorModel(t *testing.T) {
	for _, ms := range modelSites {
		var validated, evictions int64
		for seed := int64(1); seed <= 8; seed++ {
			v, e := runValidatorModel(t, ms, seed, 600)
			validated, evictions = validated+v, evictions+e
		}
		t.Logf("%s: %d offers answered from a record, %d BEM evictions", ms.name, validated, evictions)
		if validated < 50 {
			t.Errorf("%s: %d offers answered from a record over 8 seeds; the model barely reaches the validator", ms.name, validated)
		}
		if evictions == 0 {
			t.Errorf("%s: the BEM never evicted; the model does not reach eviction", ms.name)
		}
	}
}

func FuzzValidatorModel(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, ms := range modelSites {
			runValidatorModel(t, ms, seed, 300)
		}
	})
}

// Offers, full fetches and writes from several goroutines at once: the
// records are written and read without a lock, and once the writers stop,
// each request's offer is answered from its record with its own template.
func TestValidatorConcurrentOffersAndWrites(t *testing.T) {
	repo := repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(site.SyntheticConfig{Pages: 4, FragmentsPerPage: 4, FragmentBytes: 64, Cacheability: 0.5}, repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		t.Fatal(err)
	}
	fetch := func(url, have string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set(HeaderCapable, "1")
		if have != "" {
			req.Header.Set(HeaderHave, have)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			have := map[string]string{}
			for i := 0; i < 300; i++ {
				url := fmt.Sprintf("/page/synth?page=%d", (g+i)%4)
				if rec := fetch(url, have[url]); rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", url, rec.Code)
					return
				} else if rec.Header().Get(HeaderSame) == "" {
					have[url] = hexDigest(rec.Body.String())
				}
				if g == 0 && i%10 == 0 {
					site.TouchFragment(repo, i%16, strconv.Itoa(i))
				}
			}
		}(g)
	}
	wg.Wait()

	for p := 0; p < 4; p++ {
		url := fmt.Sprintf("/page/synth?page=%d", p)
		fetch(url, "") // SETs what the writes invalidated
		want := hexDigest(fetch(url, "").Body.String())
		fetch(url, want) // filed, if no record from before holds already
		before := srv.reg.Snapshot()["origin.template_refs_validated"]
		if rec := fetch(url, want); rec.Header().Get(HeaderSame) != "1" || srv.reg.Snapshot()["origin.template_refs_validated"] != before+1 {
			t.Fatalf("%s: the repeated offer was not answered from its record", url)
		}
		if got := hexDigest(fetch(url, "").Body.String()); got != want {
			t.Fatalf("%s: answered from the record, but the template is now %.12s, not %.12s", url, got, want)
		}
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A tagged block whose render writes the row it has just read — the write
// lands between the render's read and the BEM's Commit — must not leave its
// fragment valid with the old content: the next template carries a SET with
// what the row says now, not a GET of what it said before.
func TestCommitRaceRenderWritesItsOwnRow(t *testing.T) {
	repo := repository.New(repository.LatencyModel{})
	row := repository.Key{Table: "counter", Row: "c"}
	repo.Put(row, map[string]string{"n": "0"})
	mon, err := bem.New(bem.Config{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	self := script.Tagged("self", 0, nil, func(c *script.Context, w io.Writer) error {
		n := c.Field(row.Table, row.Row, "n", "")
		repo.Put(row, map[string]string{"n": n + "+"})
		_, err := io.WriteString(w, "n="+n)
		return err
	})
	if err := srv.Register(&script.Script{Name: "self", Layout: func(*script.Context) []script.Block {
		return []script.Block{self}
	}}); err != nil {
		t.Fatal(err)
	}
	fetch := func() string {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/page/self", nil)
		req.Header.Set(HeaderCapable, "1")
		srv.ServeHTTP(rec, req)
		return rec.Body.String()
	}
	if first := fetch(); !strings.Contains(first, "n=0") {
		t.Fatalf("first template %q does not carry the render", first)
	}
	if second := fetch(); !strings.Contains(second, "n=0+") {
		t.Fatalf("second template %q: the fragment rendered from n=0 outlived the write to n=0+", second)
	}
	if st := mon.Stats(); st.DataInvalidations != 2 {
		t.Fatalf("%d data invalidations, want one per raced Commit", st.DataInvalidations)
	}
}
