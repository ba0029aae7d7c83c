package pagecache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/fragstore"
	"dpcache/internal/fragstore/storetest"
)

// The page cache is a wrapper over the sharded keyed store — no private
// cache implementation. The fragment-store conformance suite must hold
// against its backing store, through the same adapter every keyed tier
// shares.
func TestPageCacheStoreConformance(t *testing.T) {
	storetest.Run(t, "pagecache", func(capacity int) (fragstore.FragmentStore, error) {
		c, err := NewCache(fragstore.KeyedConfig{MaxEntries: 1 << 20})
		if err != nil {
			return nil, err
		}
		return c.Store().(*fragstore.KeyedStore).AsFragmentStore(capacity)
	})
}

func TestCacheByteBudgetEvicts(t *testing.T) {
	c, err := NewCache(fragstore.KeyedConfig{ByteBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.PutTagged(fmt.Sprintf("/p%d", i), make([]byte, 100), "text/html", "", "", time.Minute)
	}
	if got := c.Bytes(); got > 1000 {
		t.Fatalf("resident %d bytes, over the 1000 budget", got)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions under over-budget puts")
	}
}

func newOriginServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		user := r.Header.Get("X-User")
		if user == "" {
			fmt.Fprintf(w, "<html>anon page %s</html>", r.URL.RawQuery)
			return
		}
		fmt.Fprintf(w, "<html>Hello, %s! %s</html>", user, r.URL.RawQuery)
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func newProxy(t *testing.T, originURL string, ttl time.Duration, clk clock.Clock) *httptest.Server {
	t.Helper()
	p, err := New(Config{OriginURL: originURL, TTL: ttl, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts
}

func fetch(t *testing.T, url, user string) (string, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.Header.Get("X-Cache")
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{TTL: time.Second}); err == nil {
		t.Fatal("missing origin accepted")
	}
	if _, err := New(Config{OriginURL: "http://x"}); err == nil {
		t.Fatal("zero TTL accepted")
	}
}

func TestCachesByURL(t *testing.T) {
	origin, hits := newOriginServer(t)
	proxy := newProxy(t, origin.URL, time.Minute, nil)
	b1, s1 := fetch(t, proxy.URL+"/page?q=1", "")
	b2, s2 := fetch(t, proxy.URL+"/page?q=1", "")
	if s1 != "MISS" || s2 != "HIT" {
		t.Fatalf("states = %s, %s", s1, s2)
	}
	if b1 != b2 {
		t.Fatal("cached page differs")
	}
	if hits.Load() != 1 {
		t.Fatalf("origin hits = %d", hits.Load())
	}
}

func TestDistinctURLsDistinctEntries(t *testing.T) {
	origin, hits := newOriginServer(t)
	proxy := newProxy(t, origin.URL, time.Minute, nil)
	fetch(t, proxy.URL+"/page?q=1", "")
	fetch(t, proxy.URL+"/page?q=2", "")
	if hits.Load() != 2 {
		t.Fatalf("origin hits = %d", hits.Load())
	}
}

// The deliberate flaw, reproduced: Alice gets Bob's page.
func TestServesWrongPageAcrossUsers(t *testing.T) {
	origin, _ := newOriginServer(t)
	proxy := newProxy(t, origin.URL, time.Minute, nil)
	bob, _ := fetch(t, proxy.URL+"/page?q=1", "bob")
	if !strings.Contains(bob, "Hello, bob!") {
		t.Fatalf("bob page = %q", bob)
	}
	alice, state := fetch(t, proxy.URL+"/page?q=1", "") // anonymous, same URL
	if state != "HIT" {
		t.Fatalf("alice state = %s", state)
	}
	if !strings.Contains(alice, "Hello, bob!") {
		t.Fatalf("expected the baseline to serve Bob's page to Alice (that is its documented flaw); got %q", alice)
	}
}

func TestTTLExpiry(t *testing.T) {
	origin, hits := newOriginServer(t)
	fake := clock.NewFake(time.Unix(0, 0))
	proxy := newProxy(t, origin.URL, 30*time.Second, fake)
	fetch(t, proxy.URL+"/p", "")
	fake.Advance(31 * time.Second)
	_, state := fetch(t, proxy.URL+"/p", "")
	if state != "MISS" {
		t.Fatalf("state after expiry = %s", state)
	}
	if hits.Load() != 2 {
		t.Fatalf("origin hits = %d", hits.Load())
	}
}

func TestErrorsPassThroughUncached(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	proxy := newProxy(t, ts.URL, time.Minute, nil)
	resp, err := http.Get(proxy.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(proxy.URL + "/missing")
	resp.Body.Close()
	if resp.Header.Get("X-Cache") == "HIT" {
		t.Fatal("error response was cached")
	}
}

func TestFlush(t *testing.T) {
	origin, hits := newOriginServer(t)
	p, err := New(Config{OriginURL: origin.URL, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()
	fetch(t, ts.URL+"/p", "")
	p.Flush()
	fetch(t, ts.URL+"/p", "")
	if hits.Load() != 2 {
		t.Fatalf("origin hits after flush = %d", hits.Load())
	}
}

func TestMetrics(t *testing.T) {
	origin, _ := newOriginServer(t)
	p, err := New(Config{OriginURL: origin.URL, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()
	fetch(t, ts.URL+"/p", "")
	fetch(t, ts.URL+"/p", "")
	if p.Registry().Counter("pagecache.hits").Value() != 1 ||
		p.Registry().Counter("pagecache.misses").Value() != 1 {
		t.Fatal("hit/miss accounting wrong")
	}
}

// Tagged entries carry their entity tag and record alongside the content
// type; an entry stored with neither reads back with neither, the
// separator never leaks into a field, and a record may hold any byte.
func TestCacheTaggedEntries(t *testing.T) {
	c, err := NewCache(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const record = "\x00\x01rec\x00"
	c.PutTagged("/p", []byte("body"), "text/html", `"abc123"`, record, time.Minute)
	pg, ok := c.Lookup("/p", Fresh)
	if !ok || string(pg.Body) != "body" || pg.ContentType != "text/html" || pg.ETag != `"abc123"` || pg.Record != record {
		t.Fatalf("Lookup = %+v, %v", pg, ok)
	}
	c.PutTagged("/q", []byte("other"), "text/plain", "", "", time.Minute)
	if pg, ok := c.Lookup("/q", Fresh); !ok || pg.ContentType != "text/plain" || pg.ETag != "" || pg.Record != "" {
		t.Fatalf("an entry stored with no tag or record reads back %+v, %v", pg, ok)
	}
	c.PutTagged("/r", []byte("x"), "text/plain", "", record, time.Minute)
	if pg, ok := c.Lookup("/r", Fresh); !ok || pg.ContentType != "text/plain" || pg.ETag != "" || pg.Record != record {
		t.Fatalf("an untagged entry with a record reads back %+v, %v", pg, ok)
	}
}

// Each mode reads through its own getter: Fresh removes an expired entry,
// Keep leaves it for a Stale read, and Stale reports how far past its TTL
// the entry is.
func TestCacheLookupModes(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	c, err := NewCache(fragstore.KeyedConfig{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	c.PutTagged("/p", []byte("body"), "text/html", `"e"`, "rec", time.Second)
	if pg, ok := c.Lookup("/p", Stale); !ok || pg.Age >= 0 || pg.Record != "rec" {
		t.Fatalf("fresh entry read stale: %+v, %v", pg, ok)
	}
	clk.Advance(3 * time.Second)
	if _, ok := c.Lookup("/p", Keep); ok || c.Len() != 1 {
		t.Fatalf("Keep: ok=%v resident=%d, want a miss that keeps the entry", ok, c.Len())
	}
	if pg, ok := c.Lookup("/p", Stale); !ok || pg.Age != 2*time.Second || string(pg.Body) != "body" || pg.ETag != `"e"` {
		t.Fatalf("Stale = %+v, %v, want the entry 2s past its TTL", pg, ok)
	}
	if _, ok := c.Lookup("/p", Fresh); ok || c.Len() != 0 {
		t.Fatalf("Fresh: ok=%v resident=%d, want a miss that removes the entry", ok, c.Len())
	}
}

// Deleting a key removes only that entry; DeleteFunc drops by predicate.
func TestCacheDelete(t *testing.T) {
	c, err := NewCache(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.PutTagged("GET\x00/a\x00fr", []byte("x"), "", "", "", time.Minute)
	c.PutTagged("GET\x00/a\x00en", []byte("x"), "", "", "", time.Minute)
	c.PutTagged("GET\x00/b\x00", []byte("x"), "", "", "", time.Minute)
	if !c.Delete("GET\x00/b\x00") || c.Delete("GET\x00/b\x00") {
		t.Fatal("Delete did not report residency correctly")
	}
	n := c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, "GET\x00/a\x00") })
	if n != 2 || c.Len() != 0 {
		t.Fatalf("DeleteFunc dropped %d, %d resident", n, c.Len())
	}
}

// Capture reservations count against the page tier's budget: a burst of
// in-flight captures must evict resident pages rather than let
// resident + in-flight exceed the ledger.
func TestCacheReserveCapture(t *testing.T) {
	c, err := NewCache(fragstore.KeyedConfig{ByteBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.PutTagged("/hot", make([]byte, 800), "", "", "", time.Minute)
	c.ReserveCapture(800)
	if c.Len() != 0 {
		t.Fatalf("resident = %d under capture pressure, want 0", c.Len())
	}
	c.ReserveCapture(-800)
	c.PutTagged("/hot", make([]byte, 800), "", "", "", time.Minute)
	if c.Len() != 1 {
		t.Fatal("release did not restore headroom")
	}
}

// A shared entry holds its literal runs and references the fragments its
// layout names, reads back as the whole page, and is charged the page's
// length, as a flat copy of it would be: the ledger, the byte count and the
// eviction order do not depend on the shape.
func TestSharedEntryChargedItsLength(t *testing.T) {
	c, err := NewCache(fragstore.KeyedConfig{ByteBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	frag := bytes.Repeat([]byte("f"), 2*SpanBytes)
	layout := &Layout{Spans: []Span{{Lit: 3, Frag: frag}, {Lit: 0, Frag: frag}}, Len: 3 + 2*len(frag) + 4}
	lit := []byte("<p>tail")
	c.PutShared("/shared", lit, layout, "text/html", `"e"`, "rec", time.Minute)
	c.PutTagged("/flat", make([]byte, layout.Len), "text/html", "", "", time.Minute)
	copy(lit, "XXXXXXX") // PutShared copies the literal runs
	pg, ok := c.Lookup("/shared", Fresh)
	want := "<p>" + string(frag) + string(frag) + "tail"
	if !ok || pg.Layout == nil || pg.Len() != len(want) || string(pg.AppendBody([]byte("x"))) != "x"+want {
		t.Fatalf("shared page = %q (len %d), %v; want %q", pg.AppendBody(nil), pg.Len(), ok, want)
	}
	if pg.ContentType != "text/html" || pg.ETag != `"e"` || pg.Record != "rec" {
		t.Fatalf("shared page meta = %q %q %q", pg.ContentType, pg.ETag, pg.Record)
	}
	if flat, _ := c.Lookup("/flat", Fresh); flat.Layout != nil || flat.Len() != layout.Len {
		t.Fatalf("flat page: layout %v, len %d", flat.Layout, flat.Len())
	}
	if got := c.Bytes(); got != 2*int64(layout.Len) || c.Store().BudgetUsed() != got {
		t.Fatalf("resident %d bytes, ledger %d; want both pages charged their %d bytes", got, c.Store().BudgetUsed(), layout.Len)
	}
}
