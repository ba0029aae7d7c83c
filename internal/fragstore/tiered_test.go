package fragstore_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/diskstore"
	"dpcache/internal/fragstore"
	"dpcache/internal/fragstore/storetest"
)

// tieredFactory builds a tiered fragment store over a fresh heap file
// per call (the conformance suite constructs many stores).
func tieredFactory(t *testing.T, ramBudget int64) storetest.Factory {
	t.Helper()
	dir := t.TempDir()
	n := 0
	return func(capacity int) (fragstore.FragmentStore, error) {
		n++
		return fragstore.New(fragstore.Config{
			Backend:    fragstore.BackendTiered,
			Capacity:   capacity,
			ByteBudget: ramBudget,
			Eviction:   "lru",
			DiskPath:   filepath.Join(dir, fmt.Sprintf("conf-%d.heap", n)),
		})
	}
}

func TestTieredConformance(t *testing.T) {
	storetest.Run(t, "tiered", tieredFactory(t, 0))
	// A 64-byte RAM budget forces nearly every Set through a demotion
	// and every Get through a disk hit, served in place or promoted, so the
	// conformance contract must hold while entries bounce across the tier
	// boundary.
	storetest.Run(t, "tiered-tiny-ram", tieredFactory(t, 64))
}

// A page's shell is a fragment with no bytes, and on a RAM tier smaller
// than the site it crosses the tier boundary like any other: demoted to
// disk, then promoted back on its first touch (it costs RAM nothing, so it
// always has room), and a hit at its generation with no bytes throughout.
func TestTieredZeroLengthFragmentCrossesTheBoundary(t *testing.T) {
	s, err := fragstore.New(fragstore.Config{
		Backend:    fragstore.BackendTiered,
		Capacity:   8,
		ByteBudget: 16, // two 8-byte fragments
		Eviction:   "lru",
		DiskPath:   filepath.Join(t.TempDir(), "shell.heap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.(io.Closer).Close() })
	const shell, gen = 0, 5
	if err := s.Set(shell, gen, nil); err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 3; k++ {
		if err := s.Set(k, 1, bytes.Repeat([]byte{'a' + byte(k)}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() fragstore.TieredStats {
		st, ok := fragstore.DiskStats(s)
		if !ok {
			t.Fatal("no disk tier")
		}
		return st
	}
	if st := stats(); st.Demotions == 0 || st.Disk.Resident == 0 {
		t.Fatalf("the empty fragment was not demoted: %+v", st)
	}
	get := func(what string) {
		t.Helper()
		if got, ok := s.Get(shell, gen, true); !ok || len(got) != 0 {
			t.Fatalf("%s: Get = %q, %v; want a hit with no bytes", what, got, ok)
		}
	}
	get("first touch, from disk")
	if st := stats(); st.DiskHits != 1 || st.Promotions != 1 {
		t.Fatalf("first touch: want a disk hit promoted: %+v", st)
	}
	before := stats()
	get("from RAM")
	if st := stats(); st.DiskHits != before.DiskHits || st.RAM.Hits != before.RAM.Hits+1 {
		t.Fatalf("the promoted empty fragment was not served from RAM: %+v", st)
	}
	if _, ok := s.Get(shell, gen+1, true); ok {
		t.Fatal("the empty fragment matched another generation")
	}
}

func newTiered(t *testing.T, ram fragstore.KeyedConfig, disk diskstore.Config) *fragstore.TieredKeyed {
	t.Helper()
	if disk.Path == "" {
		disk.Path = filepath.Join(t.TempDir(), "tiered.heap")
	}
	ts, err := fragstore.NewTieredKeyed(fragstore.TieredConfig{RAM: ram, Disk: disk})
	if err != nil {
		t.Fatalf("NewTieredKeyed: %v", err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// TestTieredDemotionOrder checks that RAM evicts its coldest entry into
// the disk tier (not dropping it), that a disk hit is served in place on
// its first touch and promoted — a copy, the disk's left where it is — on
// its second, that a victim the disk has never seen is written once, and
// that a victim the disk still holds is evicted clean.
func TestTieredDemotionOrder(t *testing.T) {
	val := func(s string) fragstore.KeyedEntry { return fragstore.KeyedEntry{Value: []byte(s)} }
	// Budget fits exactly two 8-byte values.
	ts := newTiered(t, fragstore.KeyedConfig{Shards: 1, ByteBudget: 16}, diskstore.Config{})
	get := func(k string) {
		t.Helper()
		if e, ok := ts.Get(k); !ok || e.Value[0] != k[0] || len(e.Value) != 8 {
			t.Fatalf("%s lost or corrupt across the tier boundary: ok=%v %q", k, ok, e.Value)
		}
	}
	ts.Put("a", val("aaaaaaaa"), 0)
	ts.Put("b", val("bbbbbbbb"), 0)
	ts.Put("c", val("cccccccc"), 0) // a is coldest → demoted to disk
	st := ts.TierStats()
	if st.Demotions != 1 || st.Disk.Resident != 1 || st.RAM.Resident != 2 || st.Disk.Twinned != 0 {
		t.Fatalf("after 3 puts: %+v", st)
	}
	// Get(a): a disk hit, and a's first; RAM is full, so admitting a would
	// cost b its place on the strength of one read. Served in place.
	get("a")
	st = ts.TierStats()
	if st.DiskHits != 1 || st.Promotions != 0 || st.ServedInPlace != 1 {
		t.Fatalf("first touch: want one disk hit served in place: %+v", st)
	}
	if st.Demotions != 1 || st.RAM.Resident != 2 || st.Disk.Twinned != 0 || st.RAM.Evictions != 1 {
		t.Fatalf("first touch moved something across the boundary: %+v", st)
	}
	// Get(a) again: the second touch. Promoted, the disk copy kept as a's
	// twin; b (now coldest, never on disk) is written to make room.
	get("a")
	st = ts.TierStats()
	if st.DiskHits != 2 || st.Promotions != 1 || st.ServedInPlace != 1 {
		t.Fatalf("second touch: promotion not counted: %+v", st)
	}
	if st.Demotions != 2 || st.CleanEvictions != 0 || st.Disk.Resident != 2 || st.Disk.Twinned != 1 {
		t.Fatalf("after promoting a: want a twinned and b written: %+v", st)
	}
	get("a") // from RAM now
	if got := ts.TierStats(); got.DiskHits != 2 || got.RAM.Hits != st.RAM.Hits+1 {
		t.Fatalf("a not served from RAM after its promotion: %+v", got)
	}
	// Three distinct entries, a counted once although both tiers hold it.
	if n, by := ts.Len(), ts.Bytes(); n != 3 || by != 16+int64(len("b")+8) {
		t.Fatalf("aggregate counts a twice: Len=%d Bytes=%d", n, by)
	}
	if used := ts.BudgetUsed(); used != st.RAM.Bytes+st.Disk.Bytes {
		t.Fatalf("BudgetUsed %d, tiers charge %d + %d", used, st.RAM.Bytes, st.Disk.Bytes)
	}
	// b twice: promoted on the second read; c (coldest, never on disk) is
	// written. c twice: promoted; a is coldest and the disk still holds its
	// copy, so its eviction is clean — nothing is written.
	for _, k := range []string{"b", "b", "c", "c"} {
		get(k)
	}
	st = ts.TierStats()
	if st.Promotions != 3 || st.ServedInPlace != 3 || st.DiskHits != 6 {
		t.Fatalf("want each of a, b, c served in place once and promoted once: %+v", st)
	}
	if st.Demotions != 3 || st.CleanEvictions != 1 || st.Disk.Puts != 3 {
		t.Fatalf("a's eviction should have been clean: %+v", st)
	}
	if st.Disk.Resident != 3 || st.Disk.Twinned != 2 || ts.Len() != 3 {
		t.Fatalf("want all three on disk, b and c twinned: %+v (Len %d)", st, ts.Len())
	}
	// From here on the store is in steady state: every entry is on disk and
	// no sequence of reads writes anything. Each promotion displaces one
	// entry, cleanly.
	for i := 0; i < 24; i++ {
		get(string("aabbcc"[i%6]))
	}
	st = ts.TierStats()
	if st.Disk.Puts != 3 || st.Demotions != 3 {
		t.Fatalf("steady-state reads wrote to disk: %+v", st)
	}
	if st.Promotions == 3 || st.CleanEvictions != st.Promotions-2 || st.DiskHits != st.Promotions+st.ServedInPlace {
		t.Fatalf("steady state: want every promotion paid for by one clean eviction: %+v", st)
	}
	if ag := ts.Stats(); ag.Evictions != 0 {
		t.Fatalf("aggregate evictions should be zero while disk is unbounded: %+v", ag)
	}
}

// TestTieredDiskLRUVictims fills past both budgets: the disk tier's own
// budget must drop its least-recently-used entries — the only true
// evictions a tiered store has.
func TestTieredDiskLRUVictims(t *testing.T) {
	ts := newTiered(t,
		fragstore.KeyedConfig{Shards: 1, ByteBudget: 64},
		diskstore.Config{ByteBudget: 300})
	v := make([]byte, 64)
	for i := 0; i < 10; i++ {
		ts.Put(fmt.Sprintf("k%d", i), fragstore.KeyedEntry{Value: v}, 0)
	}
	st := ts.TierStats()
	if st.Disk.Evictions == 0 {
		t.Fatalf("disk tier never evicted under its budget: %+v", st)
	}
	if got := ts.Stats().Evictions; got != st.Disk.Evictions {
		t.Fatalf("aggregate evictions %d != disk evictions %d", got, st.Disk.Evictions)
	}
	if ts.Bytes() > 64+300 {
		t.Fatalf("combined budgets exceeded: %d bytes resident", ts.Bytes())
	}
	// Most recent keys must have survived somewhere.
	if _, ok := ts.Get("k9"); !ok {
		t.Fatal("most recent key evicted")
	}
}

// TestTieredOversizedForRAM: entries too large for the RAM ledger go
// straight to disk and are served from there without promotion churn.
func TestTieredOversizedForRAM(t *testing.T) {
	ts := newTiered(t, fragstore.KeyedConfig{Shards: 1, ByteBudget: 32}, diskstore.Config{})
	big := bytes.Repeat([]byte("x"), 100)
	ts.Put("big", fragstore.KeyedEntry{Value: big}, 0)
	st := ts.TierStats()
	if st.Disk.Resident != 1 || st.RAM.Resident != 0 {
		t.Fatalf("oversized entry not routed to disk: %+v", st)
	}
	for i := 0; i < 3; i++ {
		e, ok := ts.Get("big")
		if !ok || !bytes.Equal(e.Value, big) {
			t.Fatalf("oversized entry not served from disk (i=%d)", i)
		}
	}
	st = ts.TierStats()
	if st.Promotions != 0 {
		t.Fatalf("oversized entry must not be promoted into a budget that cannot hold it: %+v", st)
	}
	if st.Disk.Resident != 1 {
		t.Fatalf("oversized entry lost: %+v", st)
	}
}

// TestTieredTTLAcrossTiers: a TTL set at Put keeps counting down on
// disk; expired entries are not served from either tier.
func TestTieredTTLAcrossTiers(t *testing.T) {
	fc := clock.NewFake(time.Unix(9000, 0))
	ts := newTiered(t,
		fragstore.KeyedConfig{Shards: 1, ByteBudget: 16, Clock: fc},
		diskstore.Config{Clock: fc})
	ts.Put("ttl", fragstore.KeyedEntry{Value: []byte("12345678")}, time.Minute)
	ts.Put("pad1", fragstore.KeyedEntry{Value: []byte("aaaaaaaa")}, 0)
	ts.Put("pad2", fragstore.KeyedEntry{Value: []byte("bbbbbbbb")}, 0) // ttl demoted
	if st := ts.TierStats(); st.Disk.Resident != 1 {
		t.Fatalf("setup: ttl entry not on disk: %+v", st)
	}
	// Still fresh: a stale probe on disk reports the time it has left, as
	// the RAM tier would.
	if _, age, ok := ts.GetStale("ttl"); !ok || age != -time.Minute {
		t.Fatalf("GetStale of a fresh demoted entry: age=%v ok=%v, want -1m0s true", age, ok)
	}
	// And it is served from disk.
	if e, ok := ts.Get("ttl"); !ok || string(e.Value) != "12345678" {
		t.Fatalf("fresh demoted entry not served: ok=%v", ok)
	}
	// Demote it again, then let it lapse.
	ts.Put("pad3", fragstore.KeyedEntry{Value: []byte("cccccccc")}, 0)
	ts.Put("pad4", fragstore.KeyedEntry{Value: []byte("dddddddd")}, 0)
	fc.Advance(2 * time.Minute)
	if _, ok := ts.Get("ttl"); ok {
		t.Fatal("expired entry served from disk")
	}
	// GetStale still reaches the lapsed copy wherever it lives, with age.
	ts.Put("stale", fragstore.KeyedEntry{Value: []byte("stale-v")}, time.Second)
	fc.Advance(10 * time.Second)
	e, age, ok := ts.GetStale("stale")
	if !ok || string(e.Value) != "stale-v" || age != 9*time.Second {
		t.Fatalf("GetStale: ok=%v age=%v", ok, age)
	}
}

// TestTieredInvalidationDropsDiskResident is the coherency guarantee at
// the tier boundary: a fabric Drop must remove an entry resident only
// on disk, and the key must stay gone even though a demotion for it may
// be in flight.
func TestTieredInvalidationDropsDiskResident(t *testing.T) {
	factory := tieredFactory(t, 16)
	fs, err := factory(64)
	if err != nil {
		t.Fatal(err)
	}
	// Fill so key 1 is demoted to disk (RAM holds 2 newest 8-byte values).
	for k := uint32(1); k <= 3; k++ {
		if err := fs.Set(k, 7, []byte("88888888")); err != nil {
			t.Fatal(err)
		}
	}
	tierStats := func() fragstore.TieredStats {
		ts, ok := fragstore.DiskStats(fs)
		if !ok {
			t.Fatal("tiered backend reports no disk tier")
		}
		return ts
	}
	if st := tierStats(); st.Disk.Resident != 1 {
		t.Fatalf("setup: want key 1 disk-resident: %+v", st)
	}
	// The fabric invalidation path is FragmentStore.Drop.
	fs.Drop(1)
	if _, ok := fs.Get(1, 7, true); ok {
		t.Fatal("invalidated disk-resident entry still served")
	}
	st := tierStats()
	if st.Disk.Resident != 0 {
		t.Fatalf("invalidated entry still on disk: %+v", st)
	}
	// DropAll must clear both tiers too.
	for k := uint32(1); k <= 3; k++ {
		fs.Set(k, 7, []byte("88888888"))
	}
	fs.DropAll()
	if fs.Resident() != 0 {
		t.Fatalf("DropAll left %d resident", fs.Resident())
	}
	for k := uint32(1); k <= 3; k++ {
		if _, ok := fs.Get(k, 7, false); ok {
			t.Fatalf("key %d survived DropAll", k)
		}
	}
}

// TestTieredDeleteFunc drops matching keys from both tiers.
func TestTieredDeleteFunc(t *testing.T) {
	ts := newTiered(t, fragstore.KeyedConfig{Shards: 1, ByteBudget: 16}, diskstore.Config{})
	ts.Put("page/a", fragstore.KeyedEntry{Value: []byte("11111111")}, 0)
	ts.Put("page/b", fragstore.KeyedEntry{Value: []byte("22222222")}, 0)
	ts.Put("other", fragstore.KeyedEntry{Value: []byte("33333333")}, 0)
	// One of the page/* keys is now on disk, one in RAM.
	n := ts.DeleteFunc(func(k string) bool { return len(k) > 5 && k[:5] == "page/" })
	if n != 2 {
		t.Fatalf("DeleteFunc removed %d, want 2", n)
	}
	for _, k := range []string{"page/a", "page/b"} {
		if _, ok := ts.Get(k); ok {
			t.Fatalf("%s survived DeleteFunc", k)
		}
	}
	if _, ok := ts.Get("other"); !ok {
		t.Fatal("unmatched key dropped")
	}
}

// TestTieredGetKeepAcrossTiers mirrors the KeyedStore GetKeep contract
// over the boundary: an expired disk entry misses but stays resident
// for GetStale.
func TestTieredGetKeepAcrossTiers(t *testing.T) {
	fc := clock.NewFake(time.Unix(100, 0))
	ts := newTiered(t,
		fragstore.KeyedConfig{Shards: 1, ByteBudget: 16, Clock: fc},
		diskstore.Config{Clock: fc})
	ts.Put("k", fragstore.KeyedEntry{Value: []byte("kkkkkkkk")}, time.Second)
	ts.Put("p1", fragstore.KeyedEntry{Value: []byte("11111111")}, 0)
	ts.Put("p2", fragstore.KeyedEntry{Value: []byte("22222222")}, 0) // k → disk
	fc.Advance(time.Minute)
	if _, ok := ts.GetKeep("k"); ok {
		t.Fatal("GetKeep served an expired disk entry")
	}
	if _, _, ok := ts.GetStale("k"); !ok {
		t.Fatal("GetKeep removed the stale copy it promised to keep")
	}
	// A fresh disk entry is promoted by GetKeep.
	if _, ok := ts.GetKeep("p1"); !ok && ts.TierStats().Disk.Resident > 0 {
		t.Fatal("GetKeep missed a fresh entry")
	}
}

// TestTieredLedgerRace is the keyed ledger-race test aimed across the
// boundary: concurrent puts, gets, deletes, and flushes while demotion
// and promotion traffic crosses tiers. At quiescence both ledgers must
// be exact and within budget.
func TestTieredLedgerRace(t *testing.T) {
	ts := newTiered(t,
		fragstore.KeyedConfig{Shards: 4, ByteBudget: 4 << 10},
		diskstore.Config{ByteBudget: 16 << 10, PageBytes: diskstore.MinPageBytes})
	const (
		workers = 8
		ops     = 300
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				switch rng.Intn(12) {
				case 0:
					ts.Delete(k)
				case 1:
					ts.Flush()
				case 2:
					ts.GetStale(k)
				case 3, 4, 5:
					if e, ok := ts.Get(k); ok && e.Meta != k {
						t.Errorf("key %s served meta %s", k, e.Meta)
					}
				default:
					v := make([]byte, 16+rng.Intn(512))
					ts.Put(k, fragstore.KeyedEntry{Value: v, Meta: k}, 0)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := ts.TierStats()
	if st.RAM.Bytes > 4<<10 {
		t.Fatalf("RAM budget exceeded at quiescence: %d", st.RAM.Bytes)
	}
	if st.Disk.Bytes > 16<<10 {
		t.Fatalf("disk budget exceeded at quiescence: %d", st.Disk.Bytes)
	}
	if used := ts.BudgetUsed(); used != st.RAM.Bytes+st.Disk.Bytes && st.RAM.Bytes >= 0 {
		// RAM BudgetUsed may include scratch (none reserved here), so it
		// must equal resident bytes exactly.
		t.Fatalf("ledger drift: BudgetUsed=%d resident=%d", used, st.RAM.Bytes+st.Disk.Bytes)
	}
	// Deleted keys must stay deleted: no transit resurrection.
	ts.Put("victim", fragstore.KeyedEntry{Value: make([]byte, 8<<10), Meta: "victim"}, 0)
	ts.Delete("victim")
	if _, ok := ts.Get("victim"); ok {
		t.Fatal("deleted key resurrected")
	}
}

// TestTieredWarmRestart: closing and reopening over the same heap file
// serves previously-demoted entries without any refill.
func TestTieredWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.heap")
	open := func() *fragstore.TieredKeyed {
		ts, err := fragstore.NewTieredKeyed(fragstore.TieredConfig{
			RAM:  fragstore.KeyedConfig{Shards: 1, ByteBudget: 32},
			Disk: diskstore.Config{Path: path},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	ts := open()
	for i := 0; i < 20; i++ {
		ts.Put(fmt.Sprintf("k%d", i), fragstore.KeyedEntry{Value: bytes.Repeat([]byte{byte(i)}, 16), Meta: fmt.Sprintf("m%d", i)}, 0)
	}
	if ts.TierStats().Disk.Resident == 0 {
		t.Fatal("setup: nothing demoted")
	}
	// Close drains the RAM tier through to disk, so the WHOLE resident
	// set — including the hot RAM-tier entries — survives the restart.
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := open()
	defer ts2.Close()
	st := ts2.TierStats()
	if st.Disk.RecoveredEntries != 20 {
		t.Fatalf("recovered %d, want all 20", st.Disk.RecoveredEntries)
	}
	for i := 0; i < 20; i++ {
		e, ok := ts2.Get(fmt.Sprintf("k%d", i))
		if !ok {
			t.Fatalf("k%d lost across restart", i)
		}
		if !bytes.Equal(e.Value, bytes.Repeat([]byte{byte(i)}, 16)) || e.Meta != fmt.Sprintf("m%d", i) {
			t.Fatalf("k%d corrupt after restart", i)
		}
	}
}

func TestTieredConfigValidation(t *testing.T) {
	base := fragstore.Config{Backend: fragstore.BackendTiered, Capacity: 16, DiskPath: "x.heap"}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid tiered config rejected: %v", err)
	}
	noPath := base
	noPath.DiskPath = ""
	if err := noPath.Validate(); err == nil {
		t.Fatal("tiered without DiskPath accepted")
	}
	badPage := base
	badPage.DiskPageBytes = 17
	if err := badPage.Validate(); err == nil {
		t.Fatal("bad page size accepted")
	}
	leak := fragstore.Config{Backend: fragstore.BackendSharded, Capacity: 16, DiskPath: "x.heap"}
	if err := leak.Validate(); err == nil {
		t.Fatal("disk options on sharded backend accepted")
	}
}
