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

// fragmentPathAllocs serves steady-state fragment-path requests — template
// fetched, plan hit, page assembled from a warm store through the spool,
// coalescing on — and returns the bytes and objects allocated per request,
// and the page's size. With byRef the origin speaks the reference protocol,
// so from the second request on the template is named and not sent.
func fragmentPathAllocs(t *testing.T, byRef bool) (bytesPer, objsPer, pageBytes uint64) {
	const frags, fragBytes = 16, 1 << 10
	body := templateBody(t, func(enc tmpl.Encoder) {
		for k := uint32(0); k < frags; k++ {
			_ = enc.Literal([]byte("<div>"))
			_ = enc.Get(k, 1)
		}
	})
	digest := hexDigest(body)
	// The origin's headers are the same maps every time, so what is counted
	// is the proxy's.
	fullHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}}
	refHeader := http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}, "X-Dpc-Same": {"1"}}
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Coalesce = true
		c.Stream = true // the default 64 KiB spool, as dpcd runs
		c.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if byRef && r.Header.Get(headerHave) == digest {
				return &http.Response{StatusCode: http.StatusOK, Request: r, Body: http.NoBody, Header: refHeader}, nil
			}
			return &http.Response{
				StatusCode: http.StatusOK, ContentLength: int64(len(body)), Request: r,
				Body: io.NopCloser(bytes.NewReader(body)), Header: fullHeader,
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
	wantRefs := int64(0)
	if byRef {
		wantRefs = 50 + requests - 1
	}
	if snap["dpc.assembled"] != 50+requests || snap["dpc.plancache_hits"] != 50+requests-1 || snap["dpc.errors"] != 0 || snap["dpc.template_refs"] != wantRefs {
		t.Fatalf("assembled=%d plan hits=%d errors=%d refs=%d: the requests did not take the warm fragment path",
			snap["dpc.assembled"], snap["dpc.plancache_hits"], snap["dpc.errors"], snap["dpc.template_refs"])
	}
	bytesPer = (after.TotalAlloc - before.TotalAlloc) / requests
	objsPer = (after.Mallocs - before.Mallocs) / requests
	pageBytes = uint64(frags * (fragBytes + len("<div>")))
	t.Logf("%d B in %d objects allocated per request, page %d B", bytesPer, objsPer, pageBytes)
	return bytesPer, objsPer, pageBytes
}

// A steady-state fragment-path request allocates its headers and
// bookkeeping and nothing page-sized: well under half a page per request. A
// fresh buffer for the template, the spool or the flight's broadcast copy
// is a page or more each and breaks the budget.
func TestAllocBudgetFragmentPathRequest(t *testing.T) {
	perRequest, _, pageBytes := fragmentPathAllocs(t, false)
	if perRequest > pageBytes/2 {
		t.Fatalf("%d B allocated per request, budget %d B (half a %d-byte page)", perRequest, pageBytes/2, pageBytes)
	}
}

// The same request with its template answered by reference stays inside
// that budget and costs no more objects than reading the template did (one
// spare, for a collector cycle's own): the offer is a hint lookup and a
// header.
func TestAllocBudgetTemplateRefRequest(t *testing.T) {
	_, fullObjs, _ := fragmentPathAllocs(t, false)
	perRequest, objs, pageBytes := fragmentPathAllocs(t, true)
	if perRequest > pageBytes/2 || objs > fullObjs+1 {
		t.Fatalf("%d B in %d objects allocated per request by reference; budget %d B (half a %d-byte page) and the full path's %d objects",
			perRequest, objs, pageBytes/2, pageBytes, fullObjs)
	}
}
