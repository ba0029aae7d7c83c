package coherency_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/depindex"
	"dpcache/internal/dpc"
	"dpcache/internal/tmpl"
)

// A fragment invalidation must drop exactly the whole-response entries the
// dependency index recorded as composed from it — nothing more.
func TestTierSubscriberDropsDependents(t *testing.T) {
	p := newProxy(t, nil)
	tier, ix := p.Pages(), p.DepIndex()
	tier.PutTagged("pageA", []byte("a"), "", "", time.Minute)
	tier.PutTagged("pageB", []byte("b"), "", "", time.Minute)
	tier.PutTagged("pageC", []byte("c"), "", "", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(5, 9)}, "pageA", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(5, 9)}, "pageB", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(6, 1)}, "pageC", time.Minute)

	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := coherency.NewHub(mon)
	hub.Subscribe(p)

	hub.Broadcast("frag", 5, 9)
	if _, _, _, ok := tier.GetTagged("pageA"); ok {
		t.Fatal("pageA survived its fragment's invalidation")
	}
	if _, _, _, ok := tier.GetTagged("pageB"); ok {
		t.Fatal("pageB survived its fragment's invalidation")
	}
	if _, _, _, ok := tier.GetTagged("pageC"); !ok {
		t.Fatal("pageC dropped though its fragment is alive")
	}
	dropped, flushes := counter(p, "dpc.pagecache_invalidations"), counter(p, "dpc.pagecache_flushes")
	if dropped != 2 || flushes != 0 {
		t.Fatalf("dropped=%d flushes=%d, want 2/0", dropped, flushes)
	}
	// A fragment with no recorded dependents is a surgical no-op.
	hub.Broadcast("other", 7, 1)
	if flushes := counter(p, "dpc.pagecache_flushes"); tier.Len() != 1 || flushes != 0 {
		t.Fatalf("no-dependent event disturbed the tier: len=%d flushes=%d", tier.Len(), flushes)
	}
}

// When the index sheds a fragment's record under byte pressure, the pages
// that record named leave the tier with it: the tier never holds a page
// the index has forgotten, and a later event on that fragment finds
// nothing left to drop and flushes nothing.
func TestTierSubscriberShedDropsVictimPage(t *testing.T) {
	// Page n is one fragment, (n, 1), set by the origin's template.
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Set(uint32(n), 1, []byte("fragment "+strconv.Itoa(n)))
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()
	p := newProxy(t, nil, func(c *dpc.Config) {
		c.OriginURL, c.Capacity = origin.URL, 64
		c.PageCache, c.PageCacheTTL = true, time.Minute
		c.DepIndexBudget = 1024 // about eight of these pages
	})
	front := httptest.NewServer(p)
	defer front.Close()
	get := func(n int) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/page?n=%d", front.URL, n))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Cache")
	}

	const pages = 40
	for n := 0; n < pages; n++ {
		get(n)
	}
	tier, ix := p.Pages(), p.DepIndex()
	st, shed := ix.Stats(), counter(p, "dpc.pagecache_shed_drops")
	if fills := counter(p, "dpc.pagecache_fills"); fills != pages || st.Evictions < 16 {
		t.Fatalf("test setup: %d fills, %+v", fills, st)
	}
	// Each shed record named one resident page, and every page the index
	// still names is resident.
	if shed != st.Evictions || tier.Len() != pages-int(shed) || tier.Len() != st.Keys {
		t.Fatalf("%d records shed, %d pages dropped: the tier holds %d pages, the index names %d",
			st.Evictions, shed, tier.Len(), st.Keys)
	}
	// Page 0 was filed first; sixteen sheds visit every shard of the index.
	if keys := ix.Lookup(depindex.MakeID(0, 1)); len(keys) != 0 {
		t.Fatalf("the oldest page's record survived: %v", keys)
	}
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 0, Gen: 1})
	if flushes, dropped := counter(p, "dpc.pagecache_flushes"), counter(p, "dpc.pagecache_invalidations"); flushes != 0 || dropped != 0 {
		t.Fatalf("an event on a shed fragment: %d flushes, %d drops, want none", flushes, dropped)
	}
	if tier.Len() != pages-int(shed) {
		t.Fatal("an event on a shed fragment disturbed the tier")
	}
	if cache := get(0); cache == "PAGE" {
		t.Fatal("the shed page was served from the tier")
	}
}

// One tier holds both admission rules' entries, so one fragment event asks
// the index once — one lookup — and drops the page and the
// opted-in assembled page built from the dead fragment together.
func TestTierSubscribersShareOneIndex(t *testing.T) {
	p := newProxy(t, nil)
	tier, ix := p.Pages(), p.DepIndex()
	ref := []depindex.ID{depindex.MakeID(5, 9)}
	tier.PutTagged("/p\x00GET\x00", []byte("p"), "", "", time.Minute)
	tier.PutTagged("/opt\x00", []byte("s"), "", "", time.Minute)
	tier.PutTagged("/asset.css\x00", []byte("a"), "", "", time.Minute)
	ix.File(ref, "/p\x00GET\x00", time.Minute)
	ix.File(ref, "/opt\x00", time.Minute)

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 5, Gen: 9})
	if tier.Len() != 1 {
		t.Fatalf("after one event: %d entries resident, want the unrelated asset only", tier.Len())
	}
	dropped, flushes := counter(p, "dpc.pagecache_invalidations"), counter(p, "dpc.pagecache_flushes")
	if flushes != 0 || dropped != 2 {
		t.Fatalf("flushes = %d, dropped = %d, want 2 surgical drops", flushes, dropped)
	}
	if n := ix.Stats().Lookups; n != 1 {
		t.Fatalf("index lookups = %d for one event, want 1", n)
	}
}

// A sequence gap (lost event) must flush the tier and bump the index
// epoch so in-flight fills discard too.
func TestTierSubscriberGapFlushes(t *testing.T) {
	p := newProxy(t, nil)
	tier, ix := p.Pages(), p.DepIndex()
	tier.PutTagged("p", []byte("x"), "", "", time.Minute)
	e0 := ix.Epoch()

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 0, Gen: 1})
	p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFragment, Key: 1, Gen: 1}) // 2 lost
	if tier.Len() != 0 {
		t.Fatal("gap did not flush the tier")
	}
	if n := counter(p, "dpc.pagecache_flushes"); n != 1 {
		t.Fatalf("flushes = %d", n)
	}
	if ix.Epoch() == e0 || ix.BumpCause() != dpc.FlushGap {
		t.Fatalf("gap flush: epoch %d → %d, cause %q", e0, ix.Epoch(), ix.BumpCause())
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
	tier.PutTagged("/a\x00GET\x00fr", []byte("x"), "", "", time.Minute)
	tier.PutTagged("/a\x00GET\x00en", []byte("x"), "", "", time.Minute)
	tier.PutTagged("/ab\x00GET\x00", []byte("x"), "", "", time.Minute)

	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/a"})
	if tier.Len() != 1 {
		t.Fatalf("purge left %d entries, want 1 (/ab must survive)", tier.Len())
	}
	if _, _, _, ok := tier.GetTagged("/ab\x00GET\x00"); !ok {
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
		tier.PutTagged("p", []byte("x"), "", "", time.Minute)
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
	tier.PutTagged("/asset.css\x00", []byte("body"), "", "", time.Minute)
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
	tier.PutTagged("/p\x00GET\x00", []byte("x"), "", "", time.Minute)
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
