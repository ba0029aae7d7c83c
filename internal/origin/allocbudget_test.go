//go:build !race

package origin

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dpcache/internal/alloctest"
	"dpcache/internal/bem"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own). A
// budget of objects alone is counted by testing.AllocsPerRun, one of bytes
// too by alloctest.PerCall over this many windows of requests each.
const windows, requests = 5, 500

// discardWriter is a response writer that keeps nothing; each request
// gets a fresh header map, as net/http gives it one.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// benchPageServer serves the bench-shaped synthetic site (sixteen 1 KiB
// fragments a page; page 1 has twelve tagged) with every fragment of page 1 in
// the BEM's directory, and returns the template-mode request for that page.
func benchPageServer(tb testing.TB) (*Server, *http.Request) {
	tb.Helper()
	repo := repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: 16384})
	if err != nil {
		tb.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		tb.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(benchShape, repo)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Register(sc); err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/page/synth?page=1", nil)
	req.Header.Set(HeaderCapable, "1")
	for i := 0; i < 20; i++ { // SETs once, then sizes the pooled buffers
		srv.servePage(&discardWriter{h: http.Header{}}, req)
	}
	return srv, req
}

// A steady-state template fetch — Layout run, four untagged blocks rendered
// from the repository, the BEM asked about the page's shell and twelve
// tagged blocks, a 4 KiB template of thirteen GETs and four literals
// written — allocates its headers,
// its parameters and its context, and nothing that grows with the page: at
// the parent commit it was 32.9 KB in 146 objects.
func TestAllocBudgetServePageTemplate(t *testing.T) {
	srv, req := benchPageServer(t)
	bytesPer, objsPer := alloctest.PerCall(windows, requests, func() {
		srv.servePage(&discardWriter{h: http.Header{}}, req)
	})

	st := srv.Monitor().Stats()
	if st.Misses != 1+12 || srv.reg.Snapshot()["origin.templates"] != 20+windows*requests {
		t.Fatalf("bem misses=%d (want the shell's and twelve blocks') templates=%d: the requests did not take the warm template path",
			st.Misses, srv.reg.Snapshot()["origin.templates"])
	}
	t.Logf("%.0f B in %.2f objects per fetch", bytesPer, objsPer)
	if bytesPer > 2<<10 || objsPer > 40 {
		t.Fatalf("%.0f B in %.2f objects allocated per fetch, budget 2048 B in 40", bytesPer, objsPer)
	}
}

func BenchmarkServePageTemplate(b *testing.B) {
	srv, req := benchPageServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.servePage(&discardWriter{h: http.Header{}}, req)
	}
}
