package core

import (
	"dpcache/internal/dpc"
	"sync"
	"testing"
	"time"
)

// The pipeline knobs must thread from SystemConfig through to the proxy:
// a coalescing system whose pages outgrow its look-ahead spool, and so
// stream, serves them byte-identical to a system holding every page whole,
// cold and warm.
func TestStreamingSystemServesIdenticalPages(t *testing.T) {
	buffered := startSynthetic(t, ModeCached, Config{Capacity: 256, Seed: 1, Proxy: dpc.Config{Strict: true, StreamSpoolBytes: -1}})
	streaming := startSynthetic(t, ModeCached, Config{
		Capacity: 256,
		Seed:     1,
		Proxy:    dpc.Config{Strict: true, StreamSpoolBytes: 512, Coalesce: true},
	})
	for i := 0; i < 3; i++ { // cold (SETs), warm (GETs), warm again
		for page := 0; page < 4; page++ {
			url := "/page/synth?page=" + string(rune('0'+page))
			want := fetch(t, buffered.FrontURL()+url, "u1")
			got := fetch(t, streaming.FrontURL()+url, "u1")
			if want != got {
				t.Fatalf("round %d page %d: streaming page diverged from buffered\nbuffered:  %q\nstreaming: %q",
					i, page, want, got)
			}
		}
	}
	if streaming.Registry.Counter("dpc.streamed").Value() == 0 {
		t.Fatal("streaming system never streamed a page")
	}
	if n := buffered.Registry.Counter("dpc.streamed").Value(); n != 0 {
		t.Fatalf("whole-page system committed %d responses before assembly finished", n)
	}
}

// SystemConfig.PageCache must thread through to the proxy: an anonymous
// revisit is served from the whole-page tier (one origin request), and
// identified traffic still takes the fragment path.
func TestSystemPageCacheServesAnonymousRevisits(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{
		Capacity: 256,
		Seed:     1,
		Proxy:    dpc.Config{Strict: true, PageCache: true, PageCacheTTL: time.Minute},
	})
	want := fetch(t, sys.FrontURL()+"/page/synth?page=0", "")
	origin0 := sys.Registry.Counter("origin.requests").Value()
	for i := 0; i < 5; i++ {
		if got := fetch(t, sys.FrontURL()+"/page/synth?page=0", ""); got != want {
			t.Fatalf("revisit %d diverged from the first page", i)
		}
	}
	if d := sys.Registry.Counter("origin.requests").Value() - origin0; d != 0 {
		t.Fatalf("anonymous revisits cost %d origin requests, want 0", d)
	}
	if hits := sys.Registry.Counter("dpc.pagecache_hits").Value(); hits != 5 {
		t.Fatalf("dpc.pagecache_hits = %d, want 5", hits)
	}
	// Identified traffic bypasses the tier (and must still be correct).
	if got := fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1"); got != want {
		// The synthetic site's layout is user-independent, so the bodies
		// match; what matters is the path taken.
		t.Fatalf("identified fetch diverged: %q", got)
	}
	if b := sys.Registry.Counter("dpc.pagecache_bypass_identity").Value(); b != 1 {
		t.Fatalf("dpc.pagecache_bypass_identity = %d, want 1", b)
	}
}

// A concurrent burst of identical requests against a coalescing system
// must serve everyone the same intact page.
func TestCoalescingSystemSurvivesStorm(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{Capacity: 256, Seed: 1, Proxy: dpc.Config{Coalesce: true}})
	want := fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1")
	var wg sync.WaitGroup
	pages := make([]string, 16)
	for i := range pages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pages[i] = fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1")
		}(i)
	}
	wg.Wait()
	for i, page := range pages {
		if page != want {
			t.Fatalf("storm response %d diverged: %q != %q", i, page, want)
		}
	}
}

// Each proxy's background store publisher must refresh dpc.store.* gauges
// and be stopped by System.Close.
func TestSystemPublishesStoreGauges(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{
		Capacity: 256,
		Seed:     1,
		Proxy:    dpc.Config{PublishInterval: 5 * time.Millisecond},
	})
	fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1") // populate the store
	deadline := time.Now().Add(5 * time.Second)
	for sys.Registry.Gauge("dpc.store.resident").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dpc.store.resident never refreshed without a stats scrape")
		}
		time.Sleep(time.Millisecond)
	}
}
