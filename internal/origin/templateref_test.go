package origin

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

func hexDigest(body string) string {
	sum := sha256.Sum256([]byte(body))
	return hex.EncodeToString(sum[:])
}

// The origin's half of template-by-reference: it answers with the headers
// alone exactly when the caller is template-capable, the template it has
// just generated carries no SET, and the caller named that template's
// digest. Every other offer is answered in full, as if it had not been made.
func TestTemplateRefAnswer(t *testing.T) {
	repo := testRepo()
	mon, _ := bem.New(bem.Config{Capacity: 16})
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon, ExtraHeaderBytes: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(catalogScript()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/page/catalog?categoryID=fiction"
	fetch := func(extra ...string) (*http.Response, string) {
		t.Helper()
		resp, body := get(t, url, capable(extra...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp, body
	}
	full := func(what string, resp *http.Response, body, want string) {
		t.Helper()
		if resp.Header.Get(HeaderSame) != "" || body != want {
			t.Fatalf("%s: %s=%q, body %q; want the full answer %q", what, HeaderSame, resp.Header.Get(HeaderSame), body, want)
		}
	}

	_, first := fetch() // cold directory: the template carries the SET
	if !strings.Contains(first, "[Fiction]") {
		t.Fatalf("first template carries no SET content: %q", first)
	}
	resp, second := fetch(HeaderHave, hexDigest(first)) // a stale offer
	full("offer of the SET-carrying template", resp, second, second)
	if second == first {
		t.Fatal("the second template is the first: no GET replaced the SET")
	}
	fullHeaders := resp.Header

	resp, body := fetch(HeaderHave, hexDigest(second))
	if resp.Header.Get(HeaderSame) != "1" || body != "" || resp.ContentLength != 0 {
		t.Fatalf("matching offer: %s=%q Content-Length=%d body %q; want a reference and no body",
			HeaderSame, resp.Header.Get(HeaderSame), resp.ContentLength, body)
	}
	// One header-writing path: the reference carries what the full answer
	// carried, but for its length and the mark.
	want := fullHeaders.Clone()
	want.Set(HeaderSame, "1")
	want.Set("Content-Length", "0")
	want.Del("Date")
	got := resp.Header.Clone()
	got.Del("Date")
	if !maps.EqualFunc(want, got, func(a, b []string) bool { return strings.Join(a, ",") == strings.Join(b, ",") }) {
		t.Fatalf("reference headers %v, full answer's %v", got, want)
	}

	resp, body = fetch(HeaderHave, strings.Repeat("0", 64))
	full("wrong digest", resp, body, second)
	resp, body = fetch(HeaderHave, strings.ToUpper(hexDigest(second)))
	full("digest not as a DPC writes it", resp, body, second)
	resp, body = fetch(HeaderHave, "not hex at all")
	full("malformed digest", resp, body, second)

	// An offer changes nothing about who gets a template.
	resp, plain := get(t, url, map[string]string{HeaderHave: hexDigest(second)})
	if resp.Header.Get(HeaderTemplate) != "" || resp.Header.Get(HeaderSame) != "" || !strings.Contains(plain, "[Fiction]") {
		t.Fatalf("offer without %s: headers %v body %q; want the plain page", HeaderCapable, resp.Header, plain)
	}
	resp, body = fetch(HeaderBypass, "1", HeaderHave, hexDigest(plain))
	if resp.Header.Get(HeaderSame) != "" || body != plain {
		t.Fatalf("offer on a bypass fetch: %s=%q body %q; want the plain page", HeaderSame, resp.Header.Get(HeaderSame), body)
	}

	// A write: the next template carries a SET and is never a reference,
	// whatever is offered; the GET-only template after it is a new one.
	repo.Put(repository.Key{Table: "cat", Row: "fiction"}, map[string]string{"title": "New Fiction"})
	resp, withSet := fetch(HeaderHave, hexDigest(second))
	full("after a write", resp, withSet, withSet)
	if !strings.Contains(withSet, "[New Fiction]") {
		t.Fatalf("template after the write carries no fresh SET: %q", withSet)
	}
	resp, third := fetch(HeaderHave, hexDigest(second))
	full("old digest after the re-SET", resp, third, third)
	if third == second {
		t.Fatal("the GET after a re-SET names the old generation")
	}
	if resp, body = fetch(HeaderHave, hexDigest(third)); resp.Header.Get(HeaderSame) != "1" || body != "" {
		t.Fatalf("offer of the new GET-only template: %s=%q body %q", HeaderSame, resp.Header.Get(HeaderSame), body)
	}

	snap := srv.reg.Snapshot()
	if snap["origin.template_refs"] != 2 || snap["origin.templates"] != 9 || snap["origin.plain_pages"] != 2 || snap["origin.requests"] != 11 {
		t.Fatalf("template_refs=%d templates=%d plain_pages=%d requests=%d, want 2, 9, 2, 11",
			snap["origin.template_refs"], snap["origin.templates"], snap["origin.plain_pages"], snap["origin.requests"])
	}
}

// Offers, full fetches and writes from several goroutines at once: each
// offer is compared with a template generated while the BEM and the rows
// move under it, and once the writers stop, each request's offer is
// answered by reference with its own template.
func TestTemplateRefConcurrentOffersAndWrites(t *testing.T) {
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
		before := srv.reg.Snapshot()["origin.template_refs"]
		if rec := fetch(url, want); rec.Header().Get(HeaderSame) != "1" || srv.reg.Snapshot()["origin.template_refs"] != before+1 {
			t.Fatalf("%s: the offer of its own template was not answered by reference", url)
		}
		if got := hexDigest(fetch(url, "").Body.String()); got != want {
			t.Fatalf("%s: answered by reference, but the template is now %.12s, not %.12s", url, got, want)
		}
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
