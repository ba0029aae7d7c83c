//go:build !race

package origin

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dpcache/internal/bem"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own).

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
// from the repository, the BEM asked about twelve tagged ones, a 4 KiB
// template of twelve GETs and four literals written — allocates its headers,
// its parameters and its context, and nothing that grows with the page: at
// the parent commit it was 32.9 KB in 146 objects.
func TestAllocBudgetServePageTemplate(t *testing.T) {
	srv, req := benchPageServer(t)
	const requests = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		srv.servePage(&discardWriter{h: http.Header{}}, req)
	}
	runtime.ReadMemStats(&after)

	st := srv.Monitor().Stats()
	if st.Misses != 12 || srv.reg.Snapshot()["origin.templates"] != 20+requests {
		t.Fatalf("bem misses=%d templates=%d: the requests did not take the warm template path",
			st.Misses, srv.reg.Snapshot()["origin.templates"])
	}
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / requests
	objsPer := (after.Mallocs - before.Mallocs) / requests
	t.Logf("%d B in %d objects per fetch", bytesPer, objsPer)
	if bytesPer > 2<<10 || objsPer > 40 {
		t.Fatalf("%d B in %d objects allocated per fetch, budget 2048 B in 40", bytesPer, objsPer)
	}
}

// digestWriter is a discardWriter that hashes the one body it is handed.
type digestWriter struct {
	discardWriter
	digest string
}

func (d *digestWriter) Write(b []byte) (int, error) {
	d.digest = hexDigest(string(b))
	return len(b), nil
}

// The same fetch answered by reference — the caller offers the template's
// digest, the server hashes what it generated and sends no body — stays
// inside the full answer's budget: the hash and the comparison allocate
// nothing.
func TestAllocBudgetServePageTemplateRef(t *testing.T) {
	srv, req := benchPageServer(t)
	full := &digestWriter{discardWriter: discardWriter{h: http.Header{}}}
	srv.servePage(full, req)
	req.Header.Set(HeaderHave, full.digest)
	srv.servePage(&discardWriter{h: http.Header{}}, req)
	refs0 := srv.reg.Snapshot()["origin.template_refs"]

	const requests = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		srv.servePage(&discardWriter{h: http.Header{}}, req)
	}
	runtime.ReadMemStats(&after)

	if got := srv.reg.Snapshot()["origin.template_refs"] - refs0; refs0 != 1 || got != requests {
		t.Fatalf("%d then %d of %d fetches answered by reference", refs0, got, requests)
	}
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / requests
	objsPer := (after.Mallocs - before.Mallocs) / requests
	t.Logf("%d B in %d objects per fetch", bytesPer, objsPer)
	if bytesPer > 2<<10 || objsPer > 40 {
		t.Fatalf("%d B in %d objects allocated per fetch, budget 2048 B in 40", bytesPer, objsPer)
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
