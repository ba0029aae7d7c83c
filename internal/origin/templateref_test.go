package origin

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/repository"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
)

// Lease asks, plain fetches and writes from several goroutines at once:
// each grant goes on a template generated while the BEM and the rows move
// under it, and must be one that names only fragments the caller holds.
// Once the writers stop, each page's ask is granted on its own GET-only
// template, and a fresh generation still produces those bytes.
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
	fetch := func(url string, ask bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set(HeaderCapable, "1")
		if ask {
			req.Header.Set(HeaderLease, "1")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	// getOnly reports that a template carries no SET.
	getOnly := func(template []byte) bool {
		ins, err := tmpl.DecodeAll(tmpl.Binary{}, bytes.NewReader(template))
		if err != nil {
			t.Error(err)
			return false
		}
		for _, in := range ins {
			if in.Op == tmpl.OpSet {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				url := fmt.Sprintf("/page/synth?page=%d", (g+i)%4)
				rec := fetch(url, i%2 == 0)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", url, rec.Code)
					return
				}
				if rec.Header().Get(HeaderLease) != "" && !getOnly(rec.Body.Bytes()) {
					t.Errorf("%s: a lease granted on a template that carries a SET", url)
					return
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
		fetch(url, false) // SETs what the writes invalidated
		before := srv.reg.Snapshot()["origin.leases_granted"]
		granted := fetch(url, true)
		if granted.Header().Get(HeaderLease) == "" || srv.reg.Snapshot()["origin.leases_granted"] != before+1 {
			t.Fatalf("%s: the ask on its GET-only template was not granted", url)
		}
		if got := fetch(url, false).Body.String(); got != granted.Body.String() {
			t.Fatalf("%s: granted a lease, but the template is now %q, not %q", url, got, granted.Body.String())
		}
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
