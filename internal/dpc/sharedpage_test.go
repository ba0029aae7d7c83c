package dpc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
)

// sharedFrag is the content of fragment key at gen: longer than a span, so
// a page filed while it is resident references it.
func sharedFrag(key, gen uint32) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("<frag %d@%d>", key, gen)), 8)
}

// sharedOrigin answers every page with a template over fragments 0–3 and
// follows the generation of each, as a BEM would: a fragment the proxy was
// not yet sent at its current generation is a SET, any other a GET. A
// bypass request is answered with every fragment SET, and a page whose
// path is /stale first GETs fragment 7, which the proxy never holds.
type sharedOrigin struct {
	mu   sync.Mutex
	gen  [8]uint32
	sent [8]uint32 // the generation last SET to the proxy
}

func newSharedOrigin() *sharedOrigin {
	o := &sharedOrigin{}
	for k := range o.gen {
		o.gen[k] = 1
	}
	return o
}

// write moves fragment key to a new generation and returns the event the
// fabric would deliver for the one it killed.
func (o *sharedOrigin) write(seq uint64, key uint32) coherency.Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gen[key]++
	return coherency.Event{Seq: seq, Kind: coherency.KindFragment, Key: key, Gen: o.gen[key] - 1}
}

func (o *sharedOrigin) RoundTrip(r *http.Request) (*http.Response, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	bypass := r.Header.Get(headerBypass) != ""
	var b bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&b)
	_ = enc.Literal([]byte("<html><h1>" + r.URL.Path + "</h1>"))
	if r.URL.Path == "/stale" && !bypass {
		_ = enc.Get(7, 1)
	}
	for k := uint32(0); k < 4; k++ {
		_ = enc.Literal([]byte("<div>"))
		if g := o.gen[k]; bypass || o.sent[k] != g {
			_ = enc.Set(k, g, sharedFrag(k, g))
			o.sent[k] = g
		} else {
			_ = enc.Get(k, g)
		}
		_ = enc.Literal([]byte("</div>"))
	}
	_ = enc.Literal([]byte("</html>"))
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK, ContentLength: int64(b.Len()), Request: r,
		Body: io.NopCloser(&b), Header: http.Header{"X-Dpc-Template": {"binary"}, "Content-Type": {"text/html"}},
	}, nil
}

// servesCaptured visits path as user (anonymous when "") once, which must
// fill the tier, then three times more, each of which must be a page-tier
// hit serving the first visit's body under the tag computed over it. It
// checks that the fill referenced fragment bytes (dpc.pagecache_shared_bytes
// moved) exactly when shared says so, and returns the first body.
func servesCaptured(t *testing.T, p *Proxy, path, user string, shared bool) []byte {
	t.Helper()
	visit := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if user != "" {
			r.Header.Set("X-User", user)
		}
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, r)
		return rec
	}
	counter := p.Registry().Counter("dpc.pagecache_shared_bytes")
	sharedBefore, fills := counter.Value(), p.m.pageFills.Value()
	first := visit()
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") == "PAGE" {
		t.Fatalf("%s: first visit %d X-Cache %q, want a fill", path, first.Code, first.Header().Get("X-Cache"))
	}
	if p.m.pageFills.Value() != fills+1 {
		t.Fatalf("%s: the first visit filed no page", path)
	}
	if moved := counter.Value() - sharedBefore; (moved > 0) != shared {
		t.Fatalf("%s: dpc.pagecache_shared_bytes moved by %d, want shared=%v", path, moved, shared)
	}
	body := first.Body.Bytes()
	etag := pageETag(body, first.Header().Get("Content-Type"))
	for i := 0; i < 3; i++ {
		rec := visit()
		if rec.Header().Get("X-Cache") != "PAGE" || !bytes.Equal(rec.Body.Bytes(), body) || rec.Header().Get("ETag") != etag {
			t.Fatalf("%s: hit %d X-Cache %q ETag %s body %q; want PAGE, ETag %s and the first-served body %q",
				path, i, rec.Header().Get("X-Cache"), rec.Header().Get("ETag"), rec.Body, etag, body)
		}
	}
	return body
}

// Every fill that can share does, and every later hit serves the bytes the
// fill captured, under the tag computed over them: a first visit carrying
// SETs, a GET-only refetch, a refill after a fragment write (which voids
// the shared entry as it would a flat one), the stale fallback's second
// assembly, and an identified visitor's fill under a page-scoped grant. A
// tiered store whose fragments are on disk only shares nothing.
func TestSharedPageServesCapturedBytes(t *testing.T) {
	o := newSharedOrigin()
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Strict, c.Coalesce, c.Stream = true, true, true
		c.PageCache, c.PageCacheTTL = true, time.Hour
		c.Transport = o
	})

	first := servesCaptured(t, p, "/a", "", true) // the SETs of fragments 0–3
	servesCaptured(t, p, "/b", "", true)          // GETs only

	p.Apply(o.write(1, 1))
	refill := servesCaptured(t, p, "/a", "", true) // voided, refetched with fragment 1's new SET
	if bytes.Equal(refill, first) || !bytes.Contains(refill, sharedFrag(1, 2)) {
		t.Fatalf("after fragment 1's write /a served %q, want its new generation", refill)
	}
	if n := p.Registry().Counter("dpc.pagecache_invalidations").Value(); n != 1 {
		t.Fatalf("dpc.pagecache_invalidations = %d, want 1: the shared entry, voided by the write", n)
	}

	servesCaptured(t, p, "/stale", "", true)
	if n := p.Registry().Counter("dpc.stale_fallbacks").Value(); n != 1 {
		t.Fatalf("dpc.stale_fallbacks = %d: /stale was not filed by the fallback's assembly", n)
	}

	t.Run("identified", func(t *testing.T) {
		origin, warm := pageLeaseOrigin(t, "none;page")
		p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
			origin(c)
			c.PageCache, c.PageCacheTTL = true, time.Hour
		})
		warm(p)
		servesCaptured(t, p, "/page", "u1", true)
		if n := p.Registry().Counter("dpc.pagecache_identity_hits").Value(); n != 3 {
			t.Fatalf("dpc.pagecache_identity_hits = %d, want the 3 hits", n)
		}
	})

	t.Run("disk", func(t *testing.T) {
		// A RAM tier smaller than one 1 KiB fragment: every fragment is on
		// disk only, so a fill finds none to reference and files flat.
		store, err := fragstore.New(fragstore.Config{
			Backend: fragstore.BackendTiered, Capacity: 32, ByteBudget: 512, Eviction: "lru",
			DiskPath: filepath.Join(t.TempDir(), "shared.heap"),
		})
		if err != nil {
			t.Fatal(err)
		}
		origin, warm := pageLeaseOrigin(t, "none")
		p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
			origin(c)
			c.Store = store
			c.PageCache, c.PageCacheTTL = true, time.Hour
		})
		t.Cleanup(func() { _ = store.(io.Closer).Close() })
		warm(p)
		servesCaptured(t, p, "/page", "", false)
	})
}

// A write to any fragment a shared entry references voids it: the entry's
// record names every fragment it was assembled from, shared or not, as a
// flat entry's does.
func TestSharedPageVoidedByItsFragments(t *testing.T) {
	for key := uint32(0); key < 4; key++ {
		o := newSharedOrigin()
		p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
			c.Strict = true
			c.PageCache, c.PageCacheTTL = true, time.Hour
			c.Transport = o
		})
		old := servesCaptured(t, p, "/a", "", true)
		p.Apply(o.write(1, key))
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/a", nil))
		if rec.Header().Get("X-Cache") == "PAGE" || bytes.Equal(rec.Body.Bytes(), old) {
			t.Fatalf("fragment %d written: /a served X-Cache %q, %q", key, rec.Header().Get("X-Cache"), rec.Body)
		}
	}
}

// Clients read pages the tier shares with the fragment store while a
// writer moves fragments to new generations through Apply — dropping the
// slots the shared entries reference, which SETs then refill. Every answer
// must still be a whole page: each fragment's bytes are one generation's,
// intact.
func TestSharedPageConcurrentHitsAndWrites(t *testing.T) {
	const clients, visits, writes = 4, 300, 100
	o := newSharedOrigin()
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Strict, c.Coalesce, c.Stream = true, true, true
		c.PageCache, c.PageCacheTTL = true, time.Hour
		c.Transport = o
	})
	wellFormed := func(path string, body []byte) error {
		rest, ok := bytes.CutPrefix(body, []byte("<html><h1>"+path+"</h1>"))
		for k := uint32(0); ok && k < 4; k++ {
			var seg []byte
			if rest, ok = bytes.CutPrefix(rest, []byte("<div>")); !ok {
				break
			}
			if seg, rest, ok = bytes.Cut(rest, []byte("</div>")); !ok {
				break
			}
			var key, gen uint32
			if _, err := fmt.Sscanf(string(seg), "<frag %d@%d>", &key, &gen); err != nil || key != k || !bytes.Equal(seg, sharedFrag(k, gen)) {
				return fmt.Errorf("fragment %d reads %q", k, seg)
			}
		}
		if !ok || string(rest) != "</html>" {
			return fmt.Errorf("malformed page %q", body)
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < visits; i++ {
				path := fmt.Sprintf("/p%d", (c+i)%4)
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
				if err := wellFormed(path, rec.Body.Bytes()); err != nil {
					t.Errorf("%s (X-Cache %s): %v", path, rec.Header().Get("X-Cache"), err)
					return
				}
			}
		}(c)
	}
	for seq := uint64(1); seq <= writes; seq++ {
		p.Apply(o.write(seq, uint32(seq%4)))
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	if p.Registry().Counter("dpc.pagecache_shared_bytes").Value() == 0 || p.m.pageHits.Value() == 0 {
		t.Fatal("no page was filed shared and hit")
	}
}

// Admission's stale path gathers a lapsed shared entry's body as the tier's
// hit path does: under a full origin bound the entry is served STALE with
// the bytes its fill captured.
func TestSharedPageServedStale(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
		c.Strict = true
		c.Admission, c.MaxOriginInFlight = true, 1
		c.PageCache, c.PageCacheTTL = true, time.Second
		c.Clock = fake
		c.Transport = newSharedOrigin()
	})
	body := servesCaptured(t, p, "/a", "", true)
	fake.Advance(2 * time.Second)
	defer p.admit.acquire("")() // the origin bound is taken

	rec := httptest.NewRecorder()
	rs := &reqState{w: rec, r: httptest.NewRequest(http.MethodGet, "/a", nil), start: time.Now()}
	if out, err := p.stagePageCache(rs); out != stageNext || err != nil {
		t.Fatalf("pagecache stage on the lapsed entry: %v %v; want a miss", out, err)
	}
	if out, err := p.stageAdmission(rs); out != stageRespond || err != nil {
		t.Fatalf("admission stage: %v %v, want the stale entry", out, err)
	}
	if _, err := p.stageRespond(rs); err != nil {
		t.Fatal(err)
	}
	if got := rec.Header().Get("X-Cache"); got != "STALE" || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("X-Cache %q body %q; want STALE and the captured %q", got, rec.Body, body)
	}
}
