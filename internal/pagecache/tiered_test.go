package pagecache

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpcache/internal/diskstore"
	"dpcache/internal/fragstore"
)

// newTieredCache mounts the page cache on the disk-backed tiered store
// through Over — the wiring the DPC uses for a disk-backed page tier.
func newTieredCache(t *testing.T, ramBudget int64) (*Cache, *fragstore.TieredKeyed) {
	t.Helper()
	ts, err := fragstore.NewTieredKeyed(fragstore.TieredConfig{
		RAM:  fragstore.KeyedConfig{Shards: 1, ByteBudget: ramBudget},
		Disk: diskstore.Config{Path: filepath.Join(t.TempDir(), "pages.heap")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return Over(ts), ts
}

// TestTieredPageCache drives whole pages across the tier boundary: a
// page demoted to disk must come back with its content type entity
// tag and record intact, and purges must reach disk-resident pages.
func TestTieredPageCache(t *testing.T) {
	c, ts := newTieredCache(t, 64)
	pageA := bytes.Repeat([]byte("A"), 48)
	pageB := bytes.Repeat([]byte("B"), 48)
	c.PutTagged("GET /a", pageA, "text/html", `"etag-a"`, "rec\x00a", time.Minute)
	c.PutTagged("GET /b", pageB, "text/html", `"etag-b"`, "", time.Minute)
	if st := ts.TierStats(); st.Disk.Resident != 1 {
		t.Fatalf("setup: want one page demoted, got %+v", st)
	}
	// The first read of /a off the disk serves it from there: RAM is full,
	// and one read has not earned /a the place /b holds. The second has:
	// /a is copied into RAM and /b written to disk to make room.
	for touch, wantPromotions := range []int64{0, 1} {
		pg, ok := c.Lookup("GET /a", Fresh)
		if !ok || !bytes.Equal(pg.Body, pageA) || pg.ContentType != "text/html" || pg.ETag != `"etag-a"` || pg.Record != "rec\x00a" {
			t.Fatalf("demoted page lost its envelope: ok=%v ctype=%q etag=%q record=%q", ok, pg.ContentType, pg.ETag, pg.Record)
		}
		if st := ts.TierStats(); st.Promotions != wantPromotions || st.DiskHits != int64(touch)+1 {
			t.Fatalf("touch %d of /a: %d promotions, want %d: %+v", touch+1, st.Promotions, wantPromotions, st)
		}
	}

	// A scoped purge (key-prefix DeleteFunc, the TierSubscriber's purge
	// path) must drop pages from both tiers, counting a page both tiers
	// hold once: /a was promoted and keeps its disk copy, /b was written to
	// disk to make room.
	if st := ts.TierStats(); st.Disk.Resident != 2 || st.Disk.Twinned != 1 || c.Len() != 2 {
		t.Fatalf("want /a twinned and /b on disk before purge, got len=%d %+v", c.Len(), st)
	}
	if n := c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, "GET /") }); n != 2 {
		t.Fatalf("purge removed %d pages, want 2", n)
	}
	if c.Len() != 0 || ts.TierStats().Disk.Resident != 0 {
		t.Fatalf("purge left residue: len=%d %+v", c.Len(), ts.TierStats())
	}

	// Delete of a disk-resident page reports true.
	c.PutTagged("GET /a", pageA, "text/html", "", "", time.Minute)
	c.PutTagged("GET /b", pageB, "text/html", "", "", time.Minute)
	if _, ok := c.Lookup("GET /a", Keep); !ok {
		t.Fatal("page lost")
	}
	if ts.TierStats().Disk.Resident == 0 {
		t.Fatal("no page on disk")
	}
	// One of the two keys is disk-resident; Delete must find both.
	for _, k := range []string{"GET /a", "GET /b"} {
		if !c.Delete(k) {
			t.Fatalf("Delete(%q) missed a resident page", k)
		}
	}
}
