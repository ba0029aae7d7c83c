package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "test.heap")
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("empty Path accepted")
	}
	if err := (Config{Path: "x", PageBytes: 100}).Validate(); err == nil {
		t.Fatal("tiny PageBytes accepted")
	}
	if err := (Config{Path: "x", ByteBudget: -1}).Validate(); err == nil {
		t.Fatal("negative budget accepted")
	}
	if err := (Config{Path: "x", PageBytes: 8192}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openTemp(t, Config{})
	if !s.Put("k1", Entry{Value: []byte("hello"), Gen: 7}) {
		t.Fatal("Put refused")
	}
	e, ok := s.Get("k1")
	if !ok {
		t.Fatal("Get miss")
	}
	if string(e.Value) != "hello" || e.Gen != 7 {
		t.Fatalf("roundtrip mismatch: %+v", e)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("hit on absent key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Resident != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEmptyValueAndOverwrite(t *testing.T) {
	s := openTemp(t, Config{})
	if !s.Put("k", Entry{Value: nil, Gen: 1}) {
		t.Fatal("empty value refused")
	}
	e, ok := s.Get("k")
	if !ok || len(e.Value) != 0 || e.Gen != 1 {
		t.Fatalf("empty roundtrip: %+v ok=%v", e, ok)
	}
	if !s.Put("k", Entry{Value: []byte("second"), Gen: 2}) {
		t.Fatal("overwrite refused")
	}
	e, ok = s.Get("k")
	if !ok || string(e.Value) != "second" || e.Gen != 2 {
		t.Fatalf("overwrite: %+v ok=%v", e, ok)
	}
	if s.Len() != 1 || s.Bytes() != int64(len("k")+len("second")) {
		t.Fatalf("occupancy after overwrite: len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestMultiPageValue(t *testing.T) {
	s := openTemp(t, Config{PageBytes: MinPageBytes})
	val := make([]byte, 3*MinPageBytes+123)
	for i := range val {
		val[i] = byte(i * 31)
	}
	if !s.Put("big", Entry{Value: val}) {
		t.Fatal("Put refused")
	}
	e, ok := s.Get("big")
	if !ok || !bytes.Equal(e.Value, val) {
		t.Fatalf("multi-page roundtrip failed (ok=%v, len=%d)", ok, len(e.Value))
	}
	if st := s.Stats(); st.Pages < 4 {
		t.Fatalf("expected >=4 pages, got %d", st.Pages)
	}
}

func TestDeleteAndPageReuse(t *testing.T) {
	s := openTemp(t, Config{PageBytes: MinPageBytes})
	val := make([]byte, MinPageBytes/2)
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			if !s.Put(fmt.Sprintf("k%d", i), Entry{Value: val}) {
				t.Fatal("Put refused")
			}
		}
		for i := 0; i < 8; i++ {
			if !s.Delete(fmt.Sprintf("k%d", i)) {
				t.Fatal("Delete missed")
			}
		}
	}
	if s.Delete("k0") {
		t.Fatal("double delete reported true")
	}
	st := s.Stats()
	if st.Resident != 0 || st.Deletes != 160 {
		t.Fatalf("stats after churn: %+v", st)
	}
	// The free list must recycle pages: 20 rounds of 8 half-page values
	// would need ~80+ pages without reuse.
	if st.Pages > 20 {
		t.Fatalf("heap file grew without reuse: %d pages", st.Pages)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	val := make([]byte, 100)
	charge := int64(len("k0") + 100)
	s := openTemp(t, Config{ByteBudget: 3 * charge})
	s.Put("k0", Entry{Value: val})
	s.Put("k1", Entry{Value: val})
	s.Put("k2", Entry{Value: val})
	// Touch k0 so k1 is now the least recently used.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	s.Put("k3", Entry{Value: val})
	if _, ok := s.Get("k1"); ok {
		t.Fatal("k1 should have been the LRU victim")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBytes != charge {
		t.Fatalf("eviction stats: %+v", st)
	}
}

// TestTwinProbe: Twin answers presence without reading a page, counts the
// records a faster tier also holds, and — the part a clean eviction relies
// on — refreshes the record's LRU position, so a copy whose twin lived in
// RAM for an hour is not the first the budget reclaims.
func TestTwinProbe(t *testing.T) {
	val := make([]byte, 100)
	charge := int64(len("k0") + 100)
	s := openTemp(t, Config{ByteBudget: 3 * charge})
	s.Put("k0", Entry{Value: val})
	s.Put("k1", Entry{Value: val})
	s.Put("k2", Entry{Value: val})
	if s.Twin("absent", true) {
		t.Fatal("Twin reported a key the store does not hold")
	}
	before := s.Stats()
	if !s.Twin("k0", true) || !s.Twin("k0", true) { // idempotent
		t.Fatal("Twin missed k0")
	}
	st := s.Stats()
	if st.Twinned != 1 || st.TwinnedBytes != charge {
		t.Fatalf("twin counters after marking k0: %+v", st)
	}
	if st.PoolHits != before.PoolHits || st.PoolLoads != before.PoolLoads || st.Hits != before.Hits {
		t.Fatalf("the probe read a page or counted a hit: %+v → %+v", before, st)
	}
	// k0 was the least recently used until the probe touched it.
	s.Put("k3", Entry{Value: val})
	if !s.Twin("k0", false) {
		t.Fatal("the probed record was the LRU victim")
	}
	if s.Twin("k1", false) {
		t.Fatal("k1 should have been the LRU victim")
	}
	if st := s.Stats(); st.Twinned != 0 || st.TwinnedBytes != 0 {
		t.Fatalf("twin counters after clearing k0: %+v", st)
	}
	// A record removed while flagged leaves the counters with it.
	s.Twin("k2", true)
	s.Delete("k2")
	if st := s.Stats(); st.Twinned != 0 || st.TwinnedBytes != 0 {
		t.Fatalf("twin counters after deleting a flagged record: %+v", st)
	}
	if st := s.Stats(); st.FileBytes != int64(st.Pages*st.PageBytes) || st.FileBytes == 0 {
		t.Fatalf("FileBytes %d with %d pages of %d B", st.FileBytes, st.Pages, st.PageBytes)
	}
}

// TestReadReportsSecondTouch: ReadInto tells a faster tier whether the
// record was also read within the last window reads — the index entry is
// the ghost list — while Peek and Twin are not reads, and a rewritten
// record starts over.
func TestReadReportsSecondTouch(t *testing.T) {
	s := openTemp(t, Config{})
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Put(k, Entry{Value: []byte("value-" + k)})
	}
	read := func(key string, window uint64, want bool) {
		t.Helper()
		e, again, ok := s.ReadInto(key, window, nil)
		if !ok || string(e.Value) != "value-"+key {
			t.Fatalf("ReadInto(%s) = %q, %v", key, e.Value, ok)
		}
		if again != want {
			t.Fatalf("ReadInto(%s, window %d): again = %v, want %v", key, window, again, want)
		}
	}
	read("a", 2, false) // read 1: never read before
	read("a", 2, true)  // read 2: last read one ago
	read("b", 2, false) // read 3
	read("c", 2, false) // read 4
	read("a", 2, false) // read 5: last read three ago
	read("a", 0, false) // read 6: an empty window holds nothing
	// Neither a Peek nor a Twin is a read: b's stamp and the clock stay put.
	if _, ok := s.Peek("b"); !ok || !s.Twin("b", true) {
		t.Fatal("b lost")
	}
	read("d", 5, false) // read 7
	read("b", 5, true)  // read 8: last read five ago
	// A rewritten record has never been read.
	s.Put("a", Entry{Value: []byte("value-a")})
	read("a", 5, false)
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedRefused(t *testing.T) {
	s := openTemp(t, Config{ByteBudget: 64})
	if s.Put("k", Entry{Value: make([]byte, 100)}) {
		t.Fatal("oversized entry admitted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Resident != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFlushEmptiesAndTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.heap")
	s := openTemp(t, Config{Path: path})
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), Entry{Value: make([]byte, 500)})
	}
	s.Flush()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("flush left %d entries / %d bytes", s.Len(), s.Bytes())
	}
	if _, ok := s.Get("k0"); ok {
		t.Fatal("entry survived flush")
	}
	// Post-flush writes land on a clean file.
	s.Put("after", Entry{Value: []byte("x")})
	if e, ok := s.Get("after"); !ok || string(e.Value) != "x" {
		t.Fatal("post-flush put lost")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTemp(t, Config{Path: path})
	if s2.Len() != 1 {
		t.Fatalf("reopen after flush: %d entries, want 1", s2.Len())
	}
	if _, ok := s2.Get("after"); !ok {
		t.Fatal("post-flush entry not recovered")
	}
}

func TestWarmReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.heap")
	big := make([]byte, 2*DefaultPageBytes)
	for i := range big {
		big[i] = byte(i)
	}
	s := openTemp(t, Config{Path: path})
	s.Put("small", Entry{Value: []byte("sv"), Gen: 3})
	s.Put("big", Entry{Value: big, Gen: 4})
	s.Put("gone", Entry{Value: []byte("x")})
	s.Put("rewritten", Entry{Value: []byte("old")})
	s.Put("rewritten", Entry{Value: []byte("new")})
	s.Delete("gone")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTemp(t, Config{Path: path})
	st := s2.Stats()
	if st.RecoveredEntries != 3 || st.ChecksumDiscards != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if e, ok := s2.Get("small"); !ok || string(e.Value) != "sv" || e.Gen != 3 {
		t.Fatalf("small not recovered: %+v ok=%v", e, ok)
	}
	if e, ok := s2.Get("big"); !ok || !bytes.Equal(e.Value, big) || e.Gen != 4 {
		t.Fatal("big not recovered intact")
	}
	if _, ok := s2.Get("gone"); ok {
		t.Fatal("deleted entry resurrected by clean reopen")
	}
	if e, ok := s2.Get("rewritten"); !ok || string(e.Value) != "new" {
		t.Fatalf("overwrite not recovered at latest version: %+v ok=%v", e, ok)
	}
}

// TestPutWritesEachPageOnce: first-time Puts append to the open tail, and
// a page is written when a Put seals it, not once per record staged on it;
// the tail is written at Close. Reads during the fill are served from the
// tail's frame and from sealed pages loaded back through a small pool.
func TestPutWritesEachPageOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fill.heap")
	s, err := Open(Config{Path: path, PageBytes: MinPageBytes, PoolPages: 4})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 300
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < n; i++ {
		if !s.Put(key(i), Entry{Value: entryFor(i, 1000), Gen: uint64(i)}) {
			t.Fatalf("Put %s refused", key(i))
		}
		for _, j := range []int{i, i / 2} {
			if e, ok := s.Get(key(j)); !ok || !bytes.Equal(e.Value, entryFor(j, 1000)) {
				t.Fatalf("after Put %s: Get %s = %v, want its value", key(i), key(j), ok)
			}
		}
	}
	st := s.Stats()
	k := int64(st.Pages)
	if k < 10 || st.PoolLoads == 0 {
		t.Fatalf("setup: want a fill over many pages, read back through the pool: %+v", st)
	}
	if st.PageWrites != k-1 {
		t.Fatalf("%d first-time Puts over %d pages wrote %d pages before Close, want %d: each sealed page once", n, k, st.PageWrites, k-1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Stats().PageWrites; got != k {
		t.Fatalf("after Close: %d page writes, want %d (the tail once more)", got, k)
	}
	s = openTemp(t, Config{Path: path, PageBytes: MinPageBytes})
	if st := s.Stats(); st.RecoveredEntries != n || st.ChecksumDiscards != 0 || st.PageWrites != 0 {
		t.Fatalf("reopen: %+v", st)
	}
	for i := 0; i < n; i++ {
		if e, ok := s.Get(key(i)); !ok || !bytes.Equal(e.Value, entryFor(i, 1000)) || e.Gen != uint64(i) {
			t.Fatalf("after reopen: Get %s = %v, want its value and gen %d", key(i), ok, i)
		}
	}
}

func TestPoolBoundAndReload(t *testing.T) {
	// 4 frames over a file that needs dozens of pages: reads must
	// reload evicted pages and still verify.
	s := openTemp(t, Config{PageBytes: MinPageBytes, PoolPages: 4})
	val := make([]byte, MinPageBytes/2)
	const n = 40
	for i := 0; i < n; i++ {
		rand.New(rand.NewSource(int64(i))).Read(val)
		if !s.Put(fmt.Sprintf("k%d", i), Entry{Value: append([]byte(nil), val...)}) {
			t.Fatal("Put refused")
		}
	}
	for i := 0; i < n; i++ {
		rand.New(rand.NewSource(int64(i))).Read(val)
		e, ok := s.Get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(e.Value, val) {
			t.Fatalf("k%d corrupted through pool churn", i)
		}
	}
	st := s.Stats()
	if st.PoolEvictions == 0 || st.PoolLoads == 0 {
		t.Fatalf("pool never cycled: %+v", st)
	}
}

func TestConcurrentChurn(t *testing.T) {
	s := openTemp(t, Config{PageBytes: MinPageBytes, ByteBudget: 256 << 10, PoolPages: 8})
	const (
		workers = 8
		ops     = 400
		keys    = 48
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				ki := rng.Intn(keys)
				k := fmt.Sprintf("k%d", ki)
				switch rng.Intn(10) {
				case 0:
					s.Delete(k)
				case 1:
					s.Flush()
				default:
					if rng.Intn(2) == 0 {
						v := make([]byte, rng.Intn(3*MinPageBytes))
						s.Put(k, Entry{Value: v, Gen: uint64(ki)})
					} else {
						if e, ok := s.Get(k); ok && e.Gen != uint64(ki) {
							t.Errorf("cross-key read: key %s got gen %d", k, e.Gen)
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Accounting must be internally consistent at quiescence, and no frame
	// may share its buffer with the free list after concurrent reuse.
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var sum int64
	for _, d := range s.index {
		sum += d.charge
	}
	got, n := s.bytes, len(s.index)
	s.mu.Unlock()
	if got != sum {
		t.Fatalf("byte ledger drifted: accounted %d, recomputed %d over %d entries", got, sum, n)
	}
	if budget := int64(256 << 10); got > budget {
		t.Fatalf("budget exceeded at quiescence: %d > %d", got, budget)
	}
}
