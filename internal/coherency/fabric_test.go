package coherency

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/depindex"
	"dpcache/internal/fragstore"
	"dpcache/internal/pagecache"
)

func newTier(t *testing.T) *pagecache.Cache {
	t.Helper()
	c, err := pagecache.NewCache(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A fragment invalidation must drop exactly the keyed entries the
// dependency index recorded as composed from it — nothing more.
func TestTierSubscriberDropsDependents(t *testing.T) {
	tier := newTier(t)
	ix := depindex.New(depindex.Config{})
	tier.Put("pageA", []byte("a"), "", time.Minute)
	tier.Put("pageB", []byte("b"), "", time.Minute)
	tier.Put("pageC", []byte("c"), "", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(5, 9)}, "pageA", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(5, 9)}, "pageB", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(6, 1)}, "pageC", time.Minute)

	sub := NewPageSubscriber(tier, ix)
	mon, _ := bem.New(bem.Config{Capacity: 8})
	hub := NewHub(mon)
	hub.Subscribe(sub)

	hub.Broadcast("frag", 5, 9)
	if _, _, ok := tier.Get("pageA"); ok {
		t.Fatal("pageA survived its fragment's invalidation")
	}
	if _, _, ok := tier.Get("pageB"); ok {
		t.Fatal("pageB survived its fragment's invalidation")
	}
	if _, _, ok := tier.Get("pageC"); !ok {
		t.Fatal("pageC dropped though its fragment is alive")
	}
	if sub.Dropped() != 2 || sub.Flushes() != 0 {
		t.Fatalf("dropped=%d flushes=%d, want 2/0", sub.Dropped(), sub.Flushes())
	}
	// The invalidated ref is tombstoned for in-flight fills.
	if !ix.AnyInvalid([]depindex.ID{depindex.MakeID(5, 9)}) {
		t.Fatal("invalidated ref not tombstoned")
	}
	// A fragment with no recorded dependents is a surgical no-op.
	hub.Broadcast("other", 7, 1)
	if tier.Len() != 1 || sub.Flushes() != 0 {
		t.Fatalf("no-dependent event disturbed the tier: len=%d flushes=%d", tier.Len(), sub.Flushes())
	}
}

// When the index evicted the edge under byte pressure, the subscriber
// cannot know which pages held the fragment — it must flush the tier
// (the documented fallback) rather than risk serving stale bytes.
func TestTierSubscriberEvictionFallbackFlushes(t *testing.T) {
	tier := newTier(t)
	// A budget small enough that recording evicts earlier fragments.
	ix := depindex.New(depindex.Config{Shards: 1, ByteBudget: 256})
	tier.Put("victim-page", []byte("stale bytes"), "", time.Minute)
	ix.File([]depindex.ID{depindex.MakeID(1, 1)}, "victim-page", time.Minute)
	for i := uint32(2); i < 40; i++ {
		ix.File([]depindex.ID{depindex.MakeID(i, 1)}, "some-other-rather-long-page-key", time.Minute)
	}
	if ix.Stats().Evictions == 0 {
		t.Fatal("test setup: no evictions occurred")
	}

	sub := NewPageSubscriber(tier, ix)
	var causes []string
	sub.OnFlush = func(cause string) { causes = append(causes, cause) }
	sub.Apply(Event{Seq: 1, Kind: KindFragment, Key: 1, Gen: 1})
	if _, _, ok := tier.Get("victim-page"); ok {
		t.Fatal("evicted-edge invalidation left the dependent page resident")
	}
	if sub.Fallbacks() != 1 || sub.Flushes() != 1 {
		t.Fatalf("fallbacks=%d flushes=%d, want 1/1", sub.Fallbacks(), sub.Flushes())
	}
	// The flush is observable and explained, to the wiring layer and to
	// the fills it refused.
	if len(causes) != 1 || causes[0] != FlushFallback || ix.BumpCause() != FlushFallback {
		t.Fatalf("OnFlush saw %v, index says %q, want one %q", causes, ix.BumpCause(), FlushFallback)
	}
}

// The page and static tiers share one index and each asks it about every
// event: the first subscriber's lookup must leave the edges in place for
// the second, or a static entry built from the dead fragment survives.
func TestTierSubscribersShareOneIndex(t *testing.T) {
	pages, static := newTier(t), newTier(t)
	ix := depindex.New(depindex.Config{})
	ref := []depindex.ID{depindex.MakeID(5, 9)}
	pages.Put("page-key", []byte("p"), "", time.Minute)
	static.Put("static-key", []byte("s"), "", time.Minute)
	ix.File(ref, "page-key", time.Minute)
	ix.File(ref, "static-key", time.Minute)

	pageSub, staticSub := NewPageSubscriber(pages, ix), NewStaticSubscriber(static, ix)
	Fanout(pageSub, staticSub).Apply(Event{Seq: 1, Kind: KindFragment, Key: 5, Gen: 9})
	if pages.Len() != 0 || static.Len() != 0 {
		t.Fatalf("after one event: %d pages, %d static entries resident, want none", pages.Len(), static.Len())
	}
	if pageSub.Flushes() != 0 || staticSub.Flushes() != 0 {
		t.Fatalf("flushes = %d / %d, want surgical drops", pageSub.Flushes(), staticSub.Flushes())
	}
}

// Fills racing invalidations, by the protocol the proxy's fillers follow
// (check tombstones and epoch, file edges, put — all under Filing): once
// the writer has invalidated a page's fragment, no filler may leave the
// page in the tier built from that generation.
func TestConcurrentFillsAndInvalidations(t *testing.T) {
	const pages, writes, fillers = 16, 400, 4
	tier := newTier(t)
	ix := depindex.New(depindex.Config{})
	sub := NewPageSubscriber(tier, ix)
	pageKey := func(p uint32) string { return fmt.Sprintf("page-%d", p) }
	// live[p] is the generation of page p's one fragment.
	var live [pages]atomic.Uint32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < fillers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := f; ; i += fillers {
				select {
				case <-stop:
					return
				default:
				}
				p := uint32(i % pages)
				epoch := ix.Epoch()
				gen := live[p].Load() // the fragment is read early …
				ids := []depindex.ID{depindex.MakeID(p, gen)}
				filing := ix.Filing() // … and the page filed late
				filing.Lock()
				if !ix.AnyInvalid(ids) && ix.Epoch() == epoch {
					ix.File(ids, pageKey(p), time.Minute)
					tier.Put(pageKey(p), []byte(strconv.Itoa(int(gen))), "", time.Minute)
				}
				filing.Unlock()
			}
		}(f)
	}
	for seq := uint64(1); seq <= writes; seq++ {
		p := uint32(seq % pages)
		dead := live[p].Add(1) - 1
		sub.Apply(Event{Seq: seq, Kind: KindFragment, Key: p, Gen: dead})
	}
	close(stop)
	wg.Wait()
	for p := uint32(0); p < pages; p++ {
		body, _, ok := tier.Get(pageKey(p))
		if want := strconv.Itoa(int(live[p].Load())); ok && string(body) != want {
			t.Errorf("page %d is resident built from generation %s, the live one is %s", p, body, want)
		}
	}
	if sub.Flushes() != 0 {
		t.Errorf("%d tier flushes: the index answered inexactly", sub.Flushes())
	}
}

// A sequence gap (lost event) must flush the tier and bump the index
// epoch so in-flight fills discard too.
func TestTierSubscriberGapFlushes(t *testing.T) {
	tier := newTier(t)
	ix := depindex.New(depindex.Config{})
	tier.Put("p", []byte("x"), "", time.Minute)
	sub := NewPageSubscriber(tier, ix)
	e0 := ix.Epoch()

	sub.Apply(Event{Seq: 1, Kind: KindFragment, Key: 0, Gen: 1})
	sub.Apply(Event{Seq: 3, Kind: KindFragment, Key: 1, Gen: 1}) // 2 lost
	if tier.Len() != 0 {
		t.Fatal("gap did not flush the tier")
	}
	if sub.Flushes() != 1 {
		t.Fatalf("flushes = %d", sub.Flushes())
	}
	if ix.Epoch() == e0 || ix.BumpCause() != FlushGap {
		t.Fatalf("gap flush: epoch %d → %d, cause %q", e0, ix.Epoch(), ix.BumpCause())
	}
	// Duplicates after the gap are idempotent.
	before := sub.Applied()
	sub.Apply(Event{Seq: 3, Kind: KindFragment, Key: 1, Gen: 1})
	if sub.Applied() != before {
		t.Fatal("duplicate event applied twice")
	}
}

// A purge event drops every variant of one URI — and only that URI —
// using the tier's key-prefix schema supplied by the wiring layer.
func TestTierSubscriberPurgeDropsVariants(t *testing.T) {
	tier := newTier(t)
	tier.Put("GET\x00/a\x00fr", []byte("x"), "", time.Minute)
	tier.Put("GET\x00/a\x00en", []byte("x"), "", time.Minute)
	tier.Put("GET\x00/ab\x00", []byte("x"), "", time.Minute)
	sub := NewPageSubscriber(tier, nil)
	sub.KeyPrefix = func(uri string) string { return "GET\x00" + uri + "\x00" }

	sub.Apply(Event{Seq: 1, Kind: KindPurge, URI: "/a"})
	if tier.Len() != 1 {
		t.Fatalf("purge left %d entries, want 1 (/ab must survive)", tier.Len())
	}
	if _, _, ok := tier.Get("GET\x00/ab\x00"); !ok {
		t.Fatal("purge of /a dropped /ab")
	}
	if sub.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", sub.Dropped())
	}
}

// Flush events respect scope: a "static" flush must not touch a page
// tier, a "" flush empties everything.
func TestTierSubscriberFlushScope(t *testing.T) {
	tier := newTier(t)
	tier.Put("p", []byte("x"), "", time.Minute)
	sub := NewPageSubscriber(tier, nil)
	sub.Apply(Event{Seq: 1, Kind: KindFlush, Scope: "static"})
	if tier.Len() != 1 {
		t.Fatal("static-scoped flush emptied the page tier")
	}
	sub.Apply(Event{Seq: 2, Kind: KindFlush, Scope: "page"})
	if tier.Len() != 0 {
		t.Fatal("page-scoped flush did not empty the page tier")
	}
}

// The static subscriber treats fragment events with an authoritative
// empty dependent set as no-ops — static entries are never assembled
// from fragments, and flushing the static tier per invalidation would
// defeat it entirely.
func TestStaticSubscriberFragmentNoop(t *testing.T) {
	tier := newTier(t)
	ix := depindex.New(depindex.Config{})
	tier.Put("/asset.css\x00", []byte("body"), "", time.Minute)
	sub := NewStaticSubscriber(tier, ix)
	sub.Apply(Event{Seq: 1, Kind: KindFragment, Key: 3, Gen: 7})
	if tier.Len() != 1 || sub.Flushes() != 0 {
		t.Fatalf("fragment event disturbed the static tier: len=%d flushes=%d", tier.Len(), sub.Flushes())
	}
}

// Fanout must deliver to every member and ack the minimum, so the hub's
// gap semantics hold for the slowest tier behind one endpoint.
func TestFanoutAcksMinimum(t *testing.T) {
	fast := NewStoreSubscriber(newStore(t, 4))
	slow := &lossySubscriber{inner: NewStoreSubscriber(newStore(t, 4)), drop: map[uint64]bool{2: true}}
	f := Fanout(fast, slow)
	if got := f.Apply(Event{Seq: 1, Kind: KindFragment, Key: 0}); got != 1 {
		t.Fatalf("ack = %d, want 1", got)
	}
	if got := f.Apply(Event{Seq: 2, Kind: KindFragment, Key: 1}); got != 1 {
		t.Fatalf("ack = %d after a lossy member, want 1 (min)", got)
	}
}

// A store subscriber must advance its cursor over keyed-tier events
// (purge) without treating them as gaps or dropping slots.
func TestStoreSubscriberSkipsKeyedEvents(t *testing.T) {
	store := newStore(t, 4)
	_ = store.Set(2, 1, []byte("frag"))
	sub := NewStoreSubscriber(store)
	sub.Apply(Event{Seq: 1, Kind: KindPurge, URI: "/x"})
	if store.Resident() != 1 {
		t.Fatal("purge event touched the fragment store")
	}
	sub.Apply(Event{Seq: 2, Kind: KindFragment, Key: 2, Gen: 1})
	if store.Resident() != 0 {
		t.Fatal("in-order fragment event after purge not applied")
	}
	if sub.Flushes() != 0 {
		t.Fatal("purge event mistaken for a gap")
	}
	sub.Apply(Event{Seq: 3, Kind: KindFlush, Scope: "page"})
	if sub.Flushes() != 0 {
		t.Fatal("page-scoped flush applied to the fragment store")
	}
	sub.Apply(Event{Seq: 4, Kind: KindFlush})
	if sub.Flushes() != 1 {
		t.Fatal("unscoped flush did not drop the store")
	}
}

// The HTTP bridge must carry the generalized payloads: a purge event
// posted to an edge endpoint drops the keyed variants there.
func TestHTTPBridgeCarriesPurge(t *testing.T) {
	tier, err := pagecache.NewCache(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tier.Put("GET\x00/p\x00", []byte("x"), "", time.Minute)
	sub := NewPageSubscriber(tier, nil)
	sub.KeyPrefix = func(uri string) string { return "GET\x00" + uri + "\x00" }
	edge := httptest.NewServer(Handler(sub))
	defer edge.Close()

	mon, _ := bem.New(bem.Config{Capacity: 4})
	hub := NewHub(mon)
	hub.Subscribe(&RemoteSubscriber{URL: edge.URL})
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
	hub := NewHub(mon)
	if _, err := mon.Lookup("f", 0); err != nil {
		t.Fatal(err)
	}
	mon.Invalidate("f")
	evs, ok := hub.Events(0)
	if !ok || len(evs) != 1 {
		t.Fatalf("events = %v, %v", evs, ok)
	}
	if evs[0].Kind != KindFragment || evs[0].Reason != string(bem.ReasonExplicit) {
		t.Fatalf("event = %+v, want explicit fragment invalidation", evs[0])
	}
	if !strings.Contains(evs[0].FragmentID, "f") {
		t.Fatalf("fragment id = %q", evs[0].FragmentID)
	}
}
