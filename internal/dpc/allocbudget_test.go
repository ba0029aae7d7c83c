//go:build !race

package dpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dpcache/internal/tmpl"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own).

// discardWriter is a response writer that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// A steady-state fragment-path request — template fetched, plan hit, page
// assembled from a warm store through the spool, coalescing on — allocates
// its headers and bookkeeping and nothing page-sized: well under half a
// page per request. A fresh buffer for the template, the spool or the
// flight's broadcast copy is a page or more each and breaks the budget.
func TestAllocBudgetFragmentPathRequest(t *testing.T) {
	const frags, fragBytes = 16, 1 << 10
	body := templateBody(t, func(enc tmpl.Encoder) {
		for k := uint32(0); k < frags; k++ {
			_ = enc.Literal([]byte("<div>"))
			_ = enc.Get(k, 1)
		}
	})
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Coalesce = true
		c.Stream = true // the default 64 KiB spool, as dpcd runs
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body:   io.NopCloser(bytes.NewReader(body)),
				Header: http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}},
			}, nil
		})
	})
	for k := uint32(0); k < frags; k++ {
		if err := p.Store().Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, fragBytes)); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/page", nil)
	serve := func(n int) {
		for i := 0; i < n; i++ {
			p.ServeHTTP(&discardWriter{h: http.Header{}}, req)
		}
	}
	serve(50) // compile the plan, size the pooled buffers
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(requests)
	runtime.ReadMemStats(&after)

	snap := p.Registry().Snapshot()
	if snap["dpc.assembled"] != 50+requests || snap["dpc.plancache_hits"] != 50+requests-1 || snap["dpc.errors"] != 0 {
		t.Fatalf("assembled=%d plan hits=%d errors=%d: the requests did not take the warm fragment path",
			snap["dpc.assembled"], snap["dpc.plancache_hits"], snap["dpc.errors"])
	}
	const pageBytes = uint64(frags * (fragBytes + len("<div>")))
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d B allocated per request, page %d B", perRequest, pageBytes)
	if perRequest > pageBytes/2 {
		t.Fatalf("%d B allocated per request, budget %d B (half a %d-byte page)", perRequest, pageBytes/2, pageBytes)
	}
}
