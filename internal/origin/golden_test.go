package origin

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/clock"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/template_golden.json from what the server emits now")

const goldenFile = "testdata/template_golden.json"

// goldenRequest is one step of the fixed request script.
type goldenRequest struct {
	url     string
	headers map[string]string
	// before runs ahead of the request: a repository write, or time passing.
	before func(repo *repository.Repo, clk *clock.Fake)
}

func capable(extra ...string) map[string]string {
	h := map[string]string{HeaderCapable: "1"}
	for i := 0; i+1 < len(extra); i += 2 {
		h[extra[i]] = extra[i+1]
	}
	return h
}

// goldenSite is one site with the requests made of it. The script runs
// twice against one server: the first pass meets a cold BEM (SETs), the
// second a warm one (GETs, and SETs again where a step invalidated).
type goldenSite struct {
	name string
	// capacity is the BEM's slot count. Under what the script touches,
	// slots are reclaimed and reused along the way; that is only
	// repeatable where no write invalidates two fragments at once (their
	// slots are freed in map order).
	capacity int
	build    func(repo *repository.Repo) (*script.Script, error)
	requests []goldenRequest
}

// benchShape is bench/workloads.go's siteConfig.
var benchShape = site.SyntheticConfig{Pages: 1000, FragmentsPerPage: 16, FragmentBytes: 1024, Cacheability: 0.75}

var goldenSites = []goldenSite{
	{
		name:     "synth",
		capacity: 24,
		build: func(repo *repository.Repo) (*script.Script, error) {
			sc, _, err := site.BuildSynthetic(benchShape, repo)
			return sc, err
		},
		requests: []goldenRequest{
			{url: "/page/synth?page=0", headers: capable()},
			{url: "/page/synth?page=7", headers: capable()},
			{url: "/page/synth?page=999", headers: capable(HeaderUser, "u7")},
			{url: "/page/synth?page=7", headers: capable()},
			{url: "/page/synth?page=3&page=5", headers: capable()},   // the first value wins
			{url: "/page/synth?x=1&page=%31%32", headers: capable()}, // page 12, escaped
			{url: "/page/synth?page=4;x=1", headers: capable()},      // a semicolon pair is dropped: page 0
			{url: "/page/synth?page=%zz&&=&page", headers: capable()},
			{url: "/page/synth?page=-3", headers: capable()},
			{url: "/page/synth?page=1000", headers: capable()},
			{url: "/page/synth", headers: capable()},
			{url: "/page/synth?page=7", headers: nil},                        // not capable: plain page
			{url: "/page/synth?page=7", headers: capable(HeaderBypass, "1")}, // bypass: plain page
			{url: "/page/synth?page=7", headers: capable(HeaderStale, "1:2,bogus,9:x,3:4")},
			{url: "/page/synth?page=7", headers: capable(), before: func(repo *repository.Repo, _ *clock.Fake) {
				site.TouchFragment(repo, 7*16+1, "2")  // tagged
				site.TouchFragment(repo, 7*16+3, "22") // untagged
			}},
			{url: "/page/synth?page=7", headers: capable()},
		},
	},
	{
		name:     "bookstore",
		capacity: 256,
		build:    func(repo *repository.Repo) (*script.Script, error) { return site.BuildBookstore(repo), nil },
		requests: []goldenRequest{
			{url: "/page/catalog?categoryID=Fiction", headers: capable()},
			{url: "/page/catalog?categoryID=Fiction", headers: capable(HeaderUser, "bob")},
			{url: "/page/catalog?categoryID=Computing", headers: capable(HeaderUser, "carol")},
			{url: "/page/catalog?categoryID=Nope+such%20thing", headers: capable(HeaderUser, "mallory")},
			{url: "/page/catalog", headers: capable()},
			{url: "/page/catalog?categoryID=Science", headers: map[string]string{HeaderUser: "dave"}},
			{url: "/page/catalog?categoryID=History", headers: capable(HeaderUser, "bob"), before: func(repo *repository.Repo, _ *clock.Fake) {
				repo.Put(repository.Key{Table: "users", Row: "bob"}, map[string]string{"name": "Robert", "likes": "History"})
			}},
			{url: "/page/catalog?categoryID=Fiction", headers: capable(), before: func(_ *repository.Repo, clk *clock.Fake) {
				clk.Advance(31 * time.Minute) // the category fragment's TTL
			}},
		},
	},
	{
		name:     "brokerage",
		capacity: 8,
		build:    func(repo *repository.Repo) (*script.Script, error) { return site.BuildBrokerage(repo), nil },
		requests: []goldenRequest{
			{url: "/page/quote?ticker=IBM", headers: capable()},
			{url: "/page/quote?ticker=IB%4D", headers: capable()},
			{url: "/page/quote?ticker=GE", headers: capable()},
			{url: "/page/quote", headers: capable()},
			{url: "/page/quote?ticker=ZZZZ", headers: capable()},
			{url: "/page/quote?ticker=IBM", headers: capable(), before: func(repo *repository.Repo, _ *clock.Fake) {
				site.TickQuote(repo, "IBM", "51.25", "09:30:05")
			}},
			{url: "/page/quote?ticker=GE", headers: capable(), before: func(_ *repository.Repo, clk *clock.Fake) {
				clk.Advance(3 * time.Second) // the price fragment's TTL
			}},
			{url: "/page/quote?ticker=GE", headers: capable(HeaderBypass, "1")},
		},
	},
	{
		name:     "portal",
		capacity: 256,
		build: func(repo *repository.Repo) (*script.Script, error) {
			return site.BuildPortal(site.DefaultPortal(), repo)
		},
		requests: []goldenRequest{
			{url: "/page/portal", headers: capable()},
			{url: "/page/portal", headers: capable(HeaderUser, "u0")},
			{url: "/page/portal", headers: capable(HeaderUser, "u1")},
			{url: "/page/portal", headers: capable(HeaderUser, "u49")},
			{url: "/page/portal", headers: capable(HeaderUser, "stranger")},
			{url: "/page/portal", headers: map[string]string{HeaderUser: "u1"}},
			{url: "/page/portal", headers: capable(HeaderUser, "u0"), before: func(repo *repository.Repo, _ *clock.Fake) {
				site.UpdateModule(repo, 3, "fresh body")
			}},
		},
	},
}

// Every byte the origin answers with — template or plain body and each
// response header — is what it was at commit 249a917, where the cold and
// warm hashes in testdata were generated: the proxy's plan cache keys on
// the template's SHA-256 and the paper's figures count header bytes, so a
// faster emission path may not move one of them. The ref hashes hold the
// answers to offers, by reference and in full, as they were when that
// answer shape was added.
func TestTemplateBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, gs := range goldenSites {
		for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
			repo := repository.New(repository.LatencyModel{})
			clk := clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC))
			mon, err := bem.New(bem.Config{Capacity: gs.capacity, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			mon.BindRepo(repo)
			srv, err := New(Config{Repo: repo, Monitor: mon, Codec: codec, ExtraHeaderBytes: 40})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := gs.build(repo)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Register(sc); err != nil {
				t.Fatal(err)
			}
			// The third pass makes every request of the script twice, the
			// repeat offering (HeaderHave) the body the first got: where that
			// was a GET-only template the repeat generates it again and
			// answers by reference, where it carried a SET the repeat is a
			// new template sent in full, and a plain page ignores the offer.
			for _, pass := range []string{"cold", "warm", "ref"} {
				h := sha256.New()
				refs := 0
				do := func(i int, gr goldenRequest, have string) string {
					req := httptest.NewRequest(http.MethodGet, gr.url, nil)
					for k, v := range gr.headers {
						req.Header.Set(k, v)
					}
					if have != "" {
						req.Header.Set(HeaderHave, have)
					}
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s/%s/%s request %d (%s): status %d: %s", gs.name, codec.Name(), pass, i, gr.url, rec.Code, rec.Body)
					}
					keys := make([]string, 0, len(rec.Header()))
					for k := range rec.Header() {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, k := range keys {
						fmt.Fprintf(h, "%s: %s\n", k, strings.Join(rec.Header()[k], ","))
					}
					fmt.Fprintf(h, "\n%d\n", rec.Body.Len())
					h.Write(rec.Body.Bytes())
					if rec.Header().Get(HeaderSame) != "" {
						refs++
					}
					return hexDigest(rec.Body.String())
				}
				for i, gr := range gs.requests {
					if gr.before != nil {
						gr.before(repo, clk)
					}
					if digest := do(i, gr, ""); pass == "ref" {
						do(i, gr, digest)
					}
				}
				if n := len(gs.requests); pass == "ref" && (refs == 0 || refs == n) {
					t.Errorf("%s/%s: %d of %d offers answered by reference; the script should see both answers", gs.name, codec.Name(), refs, n)
				}
				got[gs.name+"/"+codec.Name()+"/"+pass] = hex.EncodeToString(h.Sum(nil))
			}
			if err := mon.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d golden hashes, %d computed", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: responses hash to %s, at the parent commit %s", k, got[k], w)
		}
	}
}
