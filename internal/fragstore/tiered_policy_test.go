package fragstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dpcache/internal/diskstore"
)

// The tests in this file state the tier boundary's admission rule — a disk
// hit is copied into RAM when RAM has room or the key was also read from
// disk within the last quarter-RAM-tier's-worth of disk reads — in counts,
// never in time.

// zipfStream returns n draws from Zipf(s=1.0) over ranks [0, keys): rank r
// with weight 1/(r+1). (math/rand's Zipf needs s > 1.)
func zipfStream(seed int64, keys, n int) []int {
	cdf := make([]float64, keys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
	}
	return out
}

// newPolicyStore returns a tiered store holding keys entries of valueSize
// bytes each, under a RAM budget of ramBudget bytes and a buffer pool that
// holds the whole heap file — the tests on it count, they do not wait — and
// the keys' names, by rank.
func newPolicyStore(t *testing.T, keys, valueSize int, ramBudget int64) (*TieredKeyed, []string) {
	t.Helper()
	ts, err := NewTieredKeyed(TieredConfig{
		RAM:  KeyedConfig{ByteBudget: ramBudget},
		Disk: diskstore.Config{Path: filepath.Join(t.TempDir(), "policy.heap"), PoolPages: keys * valueSize / diskstore.DefaultPageBytes * 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	value := make([]byte, valueSize)
	name := make([]string, keys)
	for i := range name {
		name[i] = fmt.Sprintf("k%05d", i)
		ts.put(name[i], KeyedEntry{Value: value})
	}
	return ts, name
}

// TestTieredScanResistance: RAM for an eighth of 12 000 one-KiB keys under
// a Zipf(1.0) stream, against always-promote — which is plain LRU over the
// same stream, run here as a KeyedStore filled on every miss. Earning the
// place must cost no hits, and one sequential pass over every key, which
// flushes the LRU, must leave five sixths of the RAM tier where it was and
// the hit ratio after it above the LRU's.
func TestTieredScanResistance(t *testing.T) {
	const (
		keys      = 12_000
		valueSize = 1 << 10
		ramBudget = keys / 8 * valueSize
		warm      = 60_000 // reads before anything is counted
		counted   = 30_000 // reads on each side of the scan
		// The pass is a touch like any other, so it promotes the keys it
		// finds on probation: read from disk by the stream, for the first
		// time, within a quarter-RAM-tier's-worth of disk reads before the
		// pass reached them — and its own reads run that window out within
		// its first thirty-second. On this stream that is 28 keys (209 with
		// a whole tier's window), each of which the stream's next read of it
		// would have promoted anyway, against the 1 456 of 1 500 that
		// always-promote loses.
		maxDisplaced = 40
	)
	value := make([]byte, valueSize)
	ts, name := newPolicyStore(t, keys, valueSize, ramBudget)
	lru, err := NewKeyed(KeyedConfig{ByteBudget: ramBudget})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range name {
		lru.Put(k, KeyedEntry{Value: value}, 0)
	}
	read := func(k string) {
		if _, ok := TieredGet(ts, k); !ok {
			t.Fatalf("%s lost", k)
		}
		if _, ok := lru.Get(k); !ok {
			lru.Put(k, KeyedEntry{Value: value}, 0)
		}
	}
	ramHits := func() (tiered, alwaysPromote int64) {
		return ts.TierStats().RAM.Hits, lru.Stats().Hits
	}
	resident := func(s *KeyedStore) map[string]bool {
		in := make(map[string]bool)
		s.Range(func(key string, _ KeyedEntry, _ time.Time) bool {
			in[key] = true
			return true
		})
		return in
	}
	displaced := func(before, after map[string]bool) (n int) {
		for k := range before {
			if !after[k] {
				n++
			}
		}
		return n
	}

	stream := zipfStream(7, keys, warm+2*counted)
	for _, r := range stream[:warm] {
		read(name[r])
	}
	t0, l0 := ramHits()
	for _, r := range stream[warm : warm+counted] {
		read(name[r])
	}
	t1, l1 := ramHits()
	before, lruBefore := resident(ts.ram), resident(lru)
	promotions := ts.TierStats().Promotions
	for _, k := range name { // the scan
		read(k)
	}
	scanPromotions := ts.TierStats().Promotions - promotions
	lost, lruLost := displaced(before, resident(ts.ram)), displaced(lruBefore, resident(lru))
	t2, l2 := ramHits()
	for _, r := range stream[warm+counted:] {
		read(name[r])
	}
	t3, l3 := ramHits()

	t.Logf("RAM hit ratio before the scan: %.3f, always-promote %.3f; after it: %.3f, always-promote %.3f",
		float64(t1-t0)/counted, float64(l1-l0)/counted, float64(t3-t2)/counted, float64(l3-l2)/counted)
	t.Logf("the scan displaced %d of %d RAM-resident keys (%d promotions), always-promote %d of %d",
		lost, len(before), scanPromotions, lruLost, len(lruBefore))
	if t1-t0 < l1-l0 || t3-t2 < l3-l2 {
		t.Errorf("RAM hits %d then %d in %d reads; always-promote reaches %d then %d on the same stream",
			t1-t0, t3-t2, counted, l1-l0, l3-l2)
	}
	if lost > maxDisplaced {
		t.Errorf("one pass over every key displaced %d of %d RAM-resident keys, want at most %d", lost, len(before), maxDisplaced)
	}
	// The reference's only survivors are residents the pass happened to reach last.
	if lruLost < len(lruBefore)*9/10 {
		t.Errorf("the reference is not always-promote: the pass displaced %d of its %d residents", lruLost, len(lruBefore))
	}
	if st := ts.TierStats(); st.DiskHits != st.Promotions+st.ServedInPlace || st.Demotions != st.Disk.Puts {
		t.Errorf("disk hits %d ≠ promotions %d + in-place serves %d, or reads wrote to disk: %+v",
			st.DiskHits, st.Promotions, st.ServedInPlace, st)
	}
}

// TestTieredSecondTouchPromotes: with RAM full a key is served from disk
// on its first read and is in RAM after its second, and a look at the disk
// copy that leaves its touch stamp alone (Peek) is not a read.
func TestTieredSecondTouchPromotes(t *testing.T) {
	ts := newTransitStore(t, 16) // two 8-byte entries
	inRAM := func(key string) bool {
		_, _, ok := ts.ram.lookup(key, serveLapsed)
		return ok
	}
	ts.put("k", entryOf("kkkkkkkk"))
	evictAll(ts) // on disk only, RAM full of padding

	for i := 0; i < 3; i++ {
		if e, ok := ts.disk.Peek("k"); !ok || string(e.Value) != "kkkkkkkk" {
			t.Fatalf("Peek(k) = %q, %v", e.Value, ok)
		}
	}
	mustGet(t, ts, "k", "kkkkkkkk")
	if st := ts.TierStats(); inRAM("k") || st.ServedInPlace != 1 || st.Promotions != 0 {
		t.Fatalf("first read of k after three Peeks: want it served in place — a Peek is not a read: %+v", st)
	}
	mustGet(t, ts, "k", "kkkkkkkk")
	if st := ts.TierStats(); !inRAM("k") || st.Promotions != 1 || st.Disk.Twinned != 1 {
		t.Fatalf("k read twice in succession is not in RAM: %+v", st)
	}
}

// TestTieredPromotesIntoSpareRoom: earning a place is about whose place it
// costs. A RAM tier with room — a restarted proxy's is empty — admits a
// disk hit on its first touch.
func TestTieredPromotesIntoSpareRoom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "room.heap")
	open := func() *TieredKeyed {
		ts, err := NewTieredKeyed(TieredConfig{
			RAM:  KeyedConfig{Shards: 1, ByteBudget: 16},
			Disk: diskstore.Config{Path: path, PageBytes: diskstore.MinPageBytes},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	ts := open()
	for _, k := range []string{"a", "b", "c"} {
		ts.put(k, entryOf(k+"-------"))
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts = open()
	defer ts.Close()
	mustGet(t, ts, "a", "a-------")
	mustGet(t, ts, "b", "b-------")
	if st := ts.TierStats(); st.Promotions != 2 || st.ServedInPlace != 0 || st.RAM.Resident != 2 {
		t.Fatalf("an empty RAM tier did not admit first touches: %+v", st)
	}
	mustGet(t, ts, "c", "c-------") // full now: c waits for its second touch
	if st := ts.TierStats(); st.Promotions != 2 || st.ServedInPlace != 1 || st.RAM.Evictions != 0 {
		t.Fatalf("a full RAM tier admitted a first touch: %+v", st)
	}
}

// TestTieredHotSetShift is the promotion window's curve on the same
// harness as TestTieredScanResistance: after a Zipf(1.0) stream has warmed
// the tiers, the steady RAM hit ratio, and then — every rank moved to the
// key half the key space away, so the hot set is keys that have sat on
// disk only — how many reads it takes until a 10 000-read bucket's RAM hit
// ratio is back at 0.76. A narrower window promotes fewer keys that were
// read twice by chance, and so holds more of the hot set, but it also
// admits a new hot set more slowly. windowShare's comment has the sweep.
// The gates: a steady ratio of at least 0.766, what a whole RAM tier's
// window reads before the scan in TestTieredScanResistance, and recovery
// within 90 000 reads of the shift.
func TestTieredHotSetShift(t *testing.T) {
	const (
		keys      = 12_000
		valueSize = 1 << 10
		ramBudget = keys / 8 * valueSize
		warm      = 120_000
		counted   = 30_000
		bucket    = 10_000
		horizon   = 200_000 // reads after the shift before giving up
		// Gates.
		minSteady   = 0.766
		recovered   = 0.76
		maxRecovery = 90_000
	)
	ts, name := newPolicyStore(t, keys, valueSize, ramBudget)
	stream := zipfStream(7, keys, warm+counted+horizon)
	read := func(r int) {
		if _, ok := TieredGet(ts, name[r]); !ok {
			t.Fatalf("%s lost", name[r])
		}
	}
	ramHits := func() int64 { return ts.TierStats().RAM.Hits }
	for _, r := range stream[:warm] {
		read(r)
	}
	h0 := ramHits()
	for _, r := range stream[warm : warm+counted] {
		read(r)
	}
	steady := float64(ramHits()-h0) / counted
	shifted, recovery := stream[warm+counted:], -1
	for i := 0; i < horizon && recovery < 0; i += bucket {
		h := ramHits()
		for _, r := range shifted[i : i+bucket] {
			read((r + keys/2) % keys)
		}
		if float64(ramHits()-h)/bucket >= recovered {
			recovery = i + bucket
		}
	}
	t.Logf("window 1/%d of the RAM tier (%d disk reads): steady RAM hit ratio %.3f; after the shift, a bucket at %.2f after %d reads (-1: not within %d)",
		windowShare, ts.window(), steady, recovered, recovery, horizon)
	if steady < minSteady {
		t.Errorf("steady RAM hit ratio %.3f, want at least %.3f", steady, minSteady)
	}
	if recovery < 0 || recovery > maxRecovery {
		t.Errorf("after the hot set moved, no %d-read bucket reached a RAM hit ratio of %.2f within %d reads (took %d)",
			bucket, recovered, maxRecovery, recovery)
	}
	if st := ts.TierStats(); st.DiskHits != st.Promotions+st.ServedInPlace || st.Demotions != st.Disk.Puts {
		t.Errorf("disk hits %d ≠ promotions %d + in-place serves %d, or reads wrote to disk: %+v",
			st.DiskHits, st.Promotions, st.ServedInPlace, st)
	}
}
