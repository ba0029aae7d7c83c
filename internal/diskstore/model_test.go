package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// checkInvariants verifies what must hold whenever no operation is in
// flight: no frame keeps a pin except the unsealed tail, which is resident
// and pinned exactly once; the clock ring holds exactly the resident
// frames; the free list is within its bound and holds no buffer a frame
// still reachable — resident (which a frame being written back is), on
// the ring or dirty — reads or writes through; and the per-page live
// counts, the byte ledger and the LRU list agree with the index, as do the
// twin counters with the twin flags.
func (s *Store) checkInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.freeBufs); n > s.cfg.PoolPages {
		return fmt.Errorf("free list holds %d buffers, bound is %d", n, s.cfg.PoolPages)
	}
	free := make(map[*byte]bool, len(s.freeBufs))
	for _, buf := range s.freeBufs {
		if len(buf) != s.pageBytes || free[&buf[0]] {
			return fmt.Errorf("free list holds a %d-byte or duplicate buffer", len(buf))
		}
		free[&buf[0]] = true
	}
	inUse := func(where string, f *frame) error {
		if f.data == nil || free[&f.data[0]] {
			return fmt.Errorf("page %d: frame %s has no buffer of its own (nil or on the free list)", f.page, where)
		}
		return nil
	}
	for _, f := range s.frames {
		if err := inUse("resident", f); err != nil {
			return err
		}
	}
	onRing := 0
	for f := s.clockNext(&s.clock); f != nil; f = s.clockNext(f) {
		if err := inUse("on the clock ring", f); err != nil {
			return err
		}
		onRing++
	}
	for _, f := range s.dirty {
		if err := inUse("dirty", f); err != nil {
			return err
		}
	}
	for page, f := range s.frames {
		want := 0
		if page == s.tail {
			want = 1
		}
		if f.pins != want {
			return fmt.Errorf("page %d (tail %d): %d pins, want %d", page, s.tail, f.pins, want)
		}
		if f.prev == nil {
			return fmt.Errorf("page %d: resident frame is off the clock ring", page)
		}
	}
	if onRing != s.clockLen || onRing != len(s.frames) {
		return fmt.Errorf("clock ring holds %d frames (counted %d), %d are resident", onRing, s.clockLen, len(s.frames))
	}
	if s.tail >= 0 {
		f, pi := s.frames[s.tail], s.pages[s.tail]
		if f == nil || f.loading != nil {
			return fmt.Errorf("tail page %d is not resident", s.tail)
		}
		if pi == nil || pi.sealed || pi.free {
			return fmt.Errorf("tail page %d is sealed or free: %+v", s.tail, pi)
		}
	}
	live := make(map[int]int)
	var charged, twinBytes int64
	twinned := 0
	for key, d := range s.index {
		charged += d.charge
		if d.twin {
			twinned++
			twinBytes += d.charge
		}
		for _, loc := range d.segs {
			pi := s.pages[loc.page]
			if pi == nil || pi.free || pi.gen != loc.pgen {
				return fmt.Errorf("%q points at dead page %d", key, loc.page)
			}
			live[loc.page]++
		}
	}
	for page, pi := range s.pages {
		if pi.live != live[page] {
			return fmt.Errorf("page %d: live = %d, index holds %d segments", page, pi.live, live[page])
		}
	}
	ring := 0
	for d := s.lru.next; d != &s.lru; d = d.next {
		if s.index[d.key] != d || d.next.prev != d {
			return fmt.Errorf("LRU ring holds %q, which the index does not, or its links disagree", d.key)
		}
		if d.touch > s.reads {
			return fmt.Errorf("%q touched at read %d, the store has served %d", d.key, d.touch, s.reads)
		}
		ring++
	}
	if charged != s.bytes || ring != len(s.index) {
		return fmt.Errorf("ledger %d B / LRU %d entries, index holds %d B / %d entries",
			s.bytes, ring, charged, len(s.index))
	}
	if twinned != s.twinned || twinBytes != s.twinBytes {
		return fmt.Errorf("twin counters %d / %d B, index flags %d / %d B", s.twinned, s.twinBytes, twinned, twinBytes)
	}
	return nil
}

const modelKeys = 12

// tailDirty reports whether the open tail holds anything its page on disk
// lacks.
func (s *Store) tailDirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail >= 0 && s.dirty[s.tail] != nil
}

// onTail reports whether key's record has a segment on the open tail.
func (s *Store) onTail(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.index[key]; d != nil {
		for _, loc := range d.segs {
			if loc.page == s.tail {
				return true
			}
		}
	}
	return false
}

// crash copies the heap file's bytes to cfg.Path without Close, drops s
// as a crash leaves it — its file closed, nothing written back — and
// returns a store opened on the copy.
func (s *Store) crash(t *testing.T, cfg Config) *Store {
	t.Helper()
	img, err := os.ReadFile(s.cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.file.Close()
	if err := os.WriteFile(cfg.Path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	return c
}

// runModel decodes ops into a Put / Get / Peek / Delete / Twin / reopen /
// crash sequence and applies it to a store with MinPageBytes pages and
// poolPages frames — the shape that forces a pool eviction on almost every
// page touch — and to a plain map, checking after every operation that the
// two agree and that the store's invariants hold. A crash copies the heap
// file as it stands, without Close, and goes on with a store opened on the
// copy: every key must read its latest value there, except one whose
// latest record was staged on the open tail since that page was last
// written, which may read absent or any value it held since then.
func runModel(t *testing.T, poolPages int, ops []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		Path:      filepath.Join(dir, "model.heap"),
		PageBytes: MinPageBytes,
		PoolPages: poolPages,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { s.Close() }()

	oracle := make(map[string]Entry)
	// since holds, for each key Put since the open tail was last written,
	// the values it held since then: its value at that write, if it had
	// one, and each value Put after it.
	since := make(map[string][]Entry)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	check := func(what, key string, got Entry, ok bool) {
		t.Helper()
		want, present := oracle[key]
		if ok != present {
			t.Fatalf("%s(%q) present = %v, oracle says %v", what, key, ok, present)
		}
		if ok && (!bytes.Equal(got.Value, want.Value) || got.Gen != want.Gen) {
			t.Fatalf("%s(%q) = %d B gen %d, oracle holds %d B gen %d",
				what, key, len(got.Value), got.Gen, len(want.Value), want.Gen)
		}
	}

	for step := 0; len(ops) > 0; step++ {
		op, key := next()%8, fmt.Sprintf("key%d", next()%modelKeys)
		what := "Put"
		switch op {
		case 0, 1, 2:
			// Sizes run from empty to two pages, so records span pages.
			n := next()
			e := Entry{Value: bytes.Repeat([]byte{byte(step)}, n*n/8), Gen: uint64(step)}
			if !s.Put(key, e) {
				t.Fatalf("step %d: Put(%q, %d B) refused", step, key, len(e.Value))
			}
			if _, ok := since[key]; !ok {
				if old, present := oracle[key]; present {
					since[key] = []Entry{old}
				}
			}
			since[key] = append(since[key], e)
			oracle[key] = e
		case 3, 4:
			what = "Get"
			got, ok := s.Get(key)
			check(what, key, got, ok)
		case 5:
			what = "Peek"
			got, ok := s.Peek(key)
			check(what, key, got, ok)
		case 6:
			what = "Delete"
			_, present := oracle[key]
			delete(oracle, key)
			if got := s.Delete(key); got != present {
				t.Fatalf("step %d: Delete(%q) = %v, oracle says %v", step, key, got, present)
			}
		default:
			switch next() % 8 {
			case 0:
				what = "reopen"
				if err := s.Close(); err != nil {
					t.Fatalf("step %d: Close: %v", step, err)
				}
				if s, err = Open(cfg); err != nil {
					t.Fatalf("step %d: reopen: %v", step, err)
				}
			case 1:
				what = "crash"
				var unsure []string
				for key := range since {
					if s.onTail(key) {
						unsure = append(unsure, key)
					}
				}
				cfg.Path = filepath.Join(dir, fmt.Sprintf("crash%d.heap", step))
				s = s.crash(t, cfg)
				for _, key := range unsure {
					got, ok := s.Peek(key)
					if ok && !slices.ContainsFunc(since[key], func(e Entry) bool {
						return e.Gen == got.Gen && bytes.Equal(e.Value, got.Value)
					}) {
						t.Fatalf("step %d: after crash %q = %d B gen %d, a value it never held since the tail was last written",
							step, key, len(got.Value), got.Gen)
					}
					if ok {
						oracle[key] = got
					} else {
						delete(oracle, key)
					}
				}
				for k := 0; k < modelKeys; k++ {
					key := fmt.Sprintf("key%d", k)
					got, ok := s.Peek(key)
					check("Peek after crash", key, got, ok)
				}
			default:
				// Twin answers presence and moves no bytes; the flags it
				// leaves behind are checked by checkInvariants.
				what = "Twin"
				_, present := oracle[key]
				if got := s.Twin(key, next()%2 == 0); got != present {
					t.Fatalf("step %d: Twin(%q) = %v, oracle says %v", step, key, got, present)
				}
			}
		}
		if !s.tailDirty() {
			clear(since)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("step %d, after %s(%q): %v", step, what, key, err)
		}
		if got := s.Len(); got != len(oracle) {
			t.Fatalf("step %d, after %s(%q): %d entries resident, oracle holds %d", step, what, key, got, len(oracle))
		}
	}
	for key := range oracle {
		got, ok := s.Peek(key)
		check("final Peek", key, got, ok)
	}
}

func modelOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestModelAgainstMapOracle runs seeded random operation sequences at
// every pool size that makes the tail compete for a frame.
func TestModelAgainstMapOracle(t *testing.T) {
	for poolPages := 1; poolPages <= 3; poolPages++ {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("pool%d/seed%d", poolPages, seed), func(t *testing.T) {
				runModel(t, poolPages, modelOps(seed, 900))
			})
		}
	}
}

// FuzzModel feeds the same operation encoding to the fuzzer.
func FuzzModel(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(modelOps(seed, 120), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte, pool uint8) {
		runModel(t, 1+int(pool%3), ops)
	})
}

// ringOrder lists the keys on the LRU ring, front (most recent) first.
func (s *Store) ringOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for d := s.lru.next; d != &s.lru; d = d.next {
		keys = append(keys, d.key)
	}
	return keys
}

// TestModelLRUOrder runs seeded Put / Get / Peek / Twin / Delete / Flush /
// reopen sequences against an oracle of the LRU ring's order, with and
// without a byte budget. Under a budget a record moves to the front when it
// is written, read (Peek included) or twinned, and the budget evicts from
// the back: the least recently read or twinned record first. Without one
// only budget enforcement would read the order, so reads and Twin leave it
// alone and the ring stays in write order; Delete, Flush and reopen unlink
// and rebuild it as under a budget, and the invariants hold throughout.
func TestModelLRUOrder(t *testing.T) {
	const (
		keys   = 8
		size   = 100
		charge = 3 + size // every key is three bytes
	)
	for _, budget := range []int64{0, 5 * charge} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("budget%d/seed%d", budget, seed), func(t *testing.T) {
				cfg := Config{Path: filepath.Join(t.TempDir(), "lru.heap"), PageBytes: MinPageBytes, PoolPages: 2, ByteBudget: budget}
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { s.Close() }()
				// ring is the oracle's order, front first; written the
				// resident keys in write order, which replay restores.
				var ring, written []string
				drop := func(list []string, key string) []string {
					if i := slices.Index(list, key); i >= 0 {
						return slices.Delete(list, i, i+1)
					}
					return list
				}
				use := func(key string) {
					if budget > 0 {
						ring = append([]string{key}, drop(ring, key)...)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 400; step++ {
					key := fmt.Sprintf("k%02d", rng.Intn(keys))
					present := slices.Contains(ring, key)
					var what string
					switch op := rng.Intn(16); {
					case op < 5:
						what = "Put"
						if !s.Put(key, Entry{Value: make([]byte, size), Gen: uint64(step)}) {
							t.Fatalf("step %d: Put(%q) refused", step, key)
						}
						ring = append([]string{key}, drop(ring, key)...)
						written = append([]string{key}, drop(written, key)...)
						for budget > 0 && int64(len(ring))*charge > budget {
							victim := ring[len(ring)-1]
							ring, written = ring[:len(ring)-1], drop(written, victim)
						}
					case op < 9:
						what = "Get"
						if _, ok := s.Get(key); ok != present {
							t.Fatalf("step %d: Get(%q) = %v, oracle says %v", step, key, ok, present)
						}
						if present {
							use(key)
						}
					case op < 10:
						what = "Peek"
						if _, ok := s.Peek(key); ok != present {
							t.Fatalf("step %d: Peek(%q) = %v, oracle says %v", step, key, ok, present)
						}
						if present {
							use(key)
						}
					case op < 13:
						what = "Twin"
						if got := s.Twin(key, rng.Intn(2) == 0); got != present {
							t.Fatalf("step %d: Twin(%q) = %v, oracle says %v", step, key, got, present)
						}
						if present {
							use(key)
						}
					case op < 14:
						what = "Delete"
						if got := s.Delete(key); got != present {
							t.Fatalf("step %d: Delete(%q) = %v, oracle says %v", step, key, got, present)
						}
						ring, written = drop(ring, key), drop(written, key)
					case op < 15:
						what = "Flush"
						s.Flush()
						ring, written = nil, nil
					default:
						what = "reopen"
						if err := s.Close(); err != nil {
							t.Fatalf("step %d: Close: %v", step, err)
						}
						if s, err = Open(cfg); err != nil {
							t.Fatalf("step %d: reopen: %v", step, err)
						}
						ring = slices.Clone(written)
					}
					if budget == 0 && !slices.Equal(ring, written) {
						t.Fatalf("step %d: the oracle of an unbudgeted store left write order", step)
					}
					if got := s.ringOrder(); !slices.Equal(got, ring) {
						t.Fatalf("step %d, after %s(%q): ring %v, want %v", step, what, key, got, ring)
					}
					if err := s.checkInvariants(); err != nil {
						t.Fatalf("step %d, after %s(%q): %v", step, what, key, err)
					}
				}
			})
		}
	}
}
