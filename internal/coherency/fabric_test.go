package coherency_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/pagecache"
	"dpcache/internal/tmpl"
)

// A fragment invalidation retires exactly the whole-response entries built
// from it — nothing more: pageA and pageB carry fragment 5:9, pageC carries
// 6:1. pageB's template carries a max-age, which opts no assembled page
// into the tier, so the page rule files it like the others. Each dead
// entry is dropped by the read that finds it, and no event flushes.
func TestTierSubscriberDropsDependents(t *testing.T) {
	var gen atomic.Uint32 // of fragment 5, which pageA and pageB SET
	gen.Store(9)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		switch r.URL.Path {
		case "/pageC":
			_ = enc.Set(6, 1, []byte("c"))
		case "/pageB":
			w.Header().Set("Cache-Control", "max-age=60")
			fallthrough
		default:
			_ = enc.Set(5, gen.Load(), []byte("ab"))
		}
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()
	p := newProxy(t, nil, func(c *dpc.Config) {
		c.OriginURL = origin.URL
		c.PageCache, c.PageCacheTTL = true, time.Minute
	})
	get := func(path string) string {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Header().Get("X-Cache")
	}
	want := map[string]string{"/pageA": "PAGE", "/pageB": "PAGE", "/pageC": "PAGE"}
	for path, hit := range want {
		get(path)
		if got := get(path); got != hit {
			t.Fatalf("%s revisit X-Cache = %q, want %q", path, got, hit)
		}
	}

	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	hub.Subscribe(p)
	hub.Broadcast("frag", 5, gen.Add(1)-1)
	for path, hit := range want {
		if got := get(path); (got == hit) != (path == "/pageC") {
			t.Fatalf("after fragment 5:9's event %s was answered X-Cache %q", path, got)
		}
	}
	dropped, flushes := counter(p, "dpc.pagecache_invalidations"), counter(p, "dpc.pagecache_flushes")
	if dropped != 2 || flushes != 0 {
		t.Fatalf("dropped=%d flushes=%d, want 2/0", dropped, flushes)
	}
	// A fragment no entry was built from is a surgical no-op.
	hub.Broadcast("other", 7, 1)
	for path, hit := range want {
		if got := get(path); got != hit {
			t.Fatalf("a no-dependent event disturbed %s: X-Cache %q", path, got)
		}
	}
	if flushes := counter(p, "dpc.pagecache_flushes"); flushes != 0 {
		t.Fatalf("a no-dependent event flushed the tier %d times", flushes)
	}
}

// A sequence gap (lost event) must flush the tier once, counted as a gap
// flush; the epoch it ends voids in-flight fills too (internal/dpc's
// TestRefusedFillNamesItsCause).
func TestTierSubscriberGapFlushes(t *testing.T) {
	p := newProxy(t, nil)
	tier := p.Pages()
	tier.PutTagged("p", []byte("x"), "", "", "", time.Minute)

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 0, Gen: 1})
	p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFragment, Key: 1, Gen: 1}) // 2 lost
	if tier.Len() != 0 {
		t.Fatal("gap did not flush the tier")
	}
	if n, gaps := counter(p, "dpc.pagecache_flushes"), counter(p, "dpc.pagecache_gap_flushes"); n != 1 || gaps != 1 {
		t.Fatalf("flushes = %d, gap flushes = %d, want 1 of 1", n, gaps)
	}
	// Duplicates after the gap are idempotent.
	_ = p.Store().Set(1, 2, []byte("refilled"))
	if acked := p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFragment, Key: 1, Gen: 1}); acked != 3 {
		t.Fatalf("duplicate acked %d, want 3", acked)
	}
	if p.Store().Resident() != 1 {
		t.Fatal("duplicate event applied twice")
	}
}

// A purge event drops every variant of one URI — and only that URI —
// by the tier's key prefix (dpc.PageKeyPrefix).
func TestTierSubscriberPurgeDropsVariants(t *testing.T) {
	p := newProxy(t, nil)
	tier := p.Pages()
	tier.PutTagged("/a\x00GET\x00fr", []byte("x"), "", "", "", time.Minute)
	tier.PutTagged("/a\x00GET\x00en", []byte("x"), "", "", "", time.Minute)
	tier.PutTagged("/ab\x00GET\x00", []byte("x"), "", "", "", time.Minute)

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/a"})
	if tier.Len() != 1 {
		t.Fatalf("purge left %d entries, want 1 (/ab must survive)", tier.Len())
	}
	if _, ok := tier.Lookup("/ab\x00GET\x00", pagecache.Fresh); !ok {
		t.Fatal("purge of /a dropped /ab")
	}
	if n := counter(p, "dpc.pagecache_invalidations"); n != 2 {
		t.Fatalf("dropped = %d, want 2", n)
	}
}

// Flush events respect scope: "page" and "static" both name the one
// whole-response tier, "" names every tier, and another tier's scope
// leaves it alone.
func TestTierSubscriberFlushScope(t *testing.T) {
	p := newProxy(t, nil)
	tier := p.Pages()
	for seq, scope := range []string{"static", "page", ""} {
		tier.PutTagged("p", []byte("x"), "", "", "", time.Minute)
		p.Apply(coherency.Event{Seq: uint64(3*seq + 1), Kind: coherency.KindFlush, Scope: "plan"})
		p.Apply(coherency.Event{Seq: uint64(3*seq + 2), Kind: coherency.KindFlush, Scope: "store"})
		if tier.Len() != 1 {
			t.Fatal("another tier's flush emptied the whole-response tier")
		}
		p.Apply(coherency.Event{Seq: uint64(3*seq + 3), Kind: coherency.KindFlush, Scope: scope})
		if tier.Len() != 0 {
			t.Fatalf("%q-scoped flush did not empty the whole-response tier", scope)
		}
	}
	if n := counter(p, "dpc.pagecache_event_flushes"); n != 3 {
		t.Fatalf("event flushes = %d, want 3", n)
	}
}

// Fragment events with an authoritative empty dependent set are no-ops
// for the tier — a plain asset the origin opted in is never assembled
// from fragments, and flushing the tier per invalidation would defeat the
// opt-in entirely.
func TestStaticSubscriberFragmentNoop(t *testing.T) {
	p := newProxy(t, nil)
	tier := p.Pages()
	tier.PutTagged("/asset.css\x00", []byte("body"), "", "", "", time.Minute)
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 3, Gen: 7})
	if flushes := counter(p, "dpc.pagecache_flushes"); tier.Len() != 1 || flushes != 0 {
		t.Fatalf("fragment event disturbed an opted-in asset: len=%d flushes=%d", tier.Len(), flushes)
	}
}

// Fanout must deliver to every member and ack the minimum, so the hub's
// gap semantics hold for the slowest member behind one endpoint.
func TestFanoutAcksMinimum(t *testing.T) {
	fast := &recorder{}
	slow := &lossySubscriber{inner: &recorder{}, drop: map[uint64]bool{2: true}}
	f := coherency.Fanout(fast, slow)
	if got := f.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 0}); got != 1 {
		t.Fatalf("ack = %d, want 1", got)
	}
	if got := f.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 1}); got != 1 {
		t.Fatalf("ack = %d after a lossy member, want 1 (min)", got)
	}
	if n := len(fast.events()); n != 2 {
		t.Fatalf("fast member saw %d events, want 2", n)
	}
}

// The fragment store advances with the proxy's cursor over events meant
// for other tiers (a purge, a page-scoped flush) without treating them as
// gaps or dropping slots; an unscoped flush empties it.
func TestStoreSubscriberSkipsKeyedEvents(t *testing.T) {
	p := newProxy(t, nil)
	store := p.Store()
	_ = store.Set(2, 1, []byte("frag"))
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/x"})
	if store.Resident() != 1 {
		t.Fatal("purge event touched the fragment store")
	}
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 2, Gen: 1})
	if store.Resident() != 0 {
		t.Fatal("in-order fragment event after purge not applied")
	}
	if n := counter(p, "dpc.pagecache_gap_flushes"); n != 0 {
		t.Fatal("purge event mistaken for a gap")
	}
	_ = store.Set(2, 2, []byte("frag"))
	p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFlush, Scope: "page"})
	if store.Resident() != 1 {
		t.Fatal("page-scoped flush applied to the fragment store")
	}
	p.Apply(coherency.Event{Seq: 4, Kind: coherency.KindFlush})
	if store.Resident() != 0 {
		t.Fatal("unscoped flush did not drop the store")
	}
}

// The HTTP bridge must carry the generalized payloads: a purge event
// posted to an edge endpoint drops the keyed variants there.
func TestHTTPBridgeCarriesPurge(t *testing.T) {
	p := newProxy(t, nil)
	tier := p.Pages()
	tier.PutTagged("/p\x00GET\x00", []byte("x"), "", "", "", time.Minute)
	edge := httptest.NewServer(coherency.Handler(p))
	defer edge.Close()

	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := coherency.NewHub(mon)
	hub.Subscribe(&coherency.RemoteSubscriber{URL: edge.URL})
	hub.BroadcastPurge("/p")
	if tier.Len() != 0 {
		t.Fatal("purge did not cross the HTTP bridge")
	}
	if hub.AckedThrough() != 1 {
		t.Fatalf("AckedThrough = %d", hub.AckedThrough())
	}
}

// Fragment events arriving from the BEM carry their invalidation reason.
func TestHubEventCarriesReason(t *testing.T) {
	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := coherency.NewHub(mon)
	rec := &recorder{}
	hub.Subscribe(rec)
	if _, err := mon.Lookup("f", 0); err != nil {
		t.Fatal(err)
	}
	mon.Invalidate("f")
	evs := rec.events()
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Kind != coherency.KindFragment || evs[0].Reason != string(bem.ReasonExplicit) {
		t.Fatalf("event = %+v, want explicit fragment invalidation", evs[0])
	}
	if !strings.Contains(evs[0].FragmentID, "f") {
		t.Fatalf("fragment id = %q", evs[0].FragmentID)
	}
}
