package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dpcache/internal/clock"
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

// runModel decodes ops into a Put / Get / Peek / Twin / Delete / DeleteFunc
// / expire / reopen sequence and applies it to a store with MinPageBytes
// pages and poolPages frames — the shape that forces a pool eviction on
// almost every page touch — and to a plain map, checking after every
// operation that the two agree and that the store's invariants hold.
func runModel(t *testing.T, poolPages int, ops []byte) {
	t.Helper()
	fc := clock.NewFake(time.Unix(1_000, 0))
	cfg := Config{
		Path:      filepath.Join(t.TempDir(), "model.heap"),
		PageBytes: MinPageBytes,
		PoolPages: poolPages,
		Clock:     fc,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { s.Close() }()

	oracle := make(map[string]Entry)
	expired := func(e Entry) bool { return !e.Deadline.IsZero() && !fc.Now().Before(e.Deadline) }
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
		if ok && (!bytes.Equal(got.Value, want.Value) || got.Meta != want.Meta ||
			got.Gen != want.Gen || !got.Deadline.Equal(want.Deadline)) {
			t.Fatalf("%s(%q) = %d B meta %q gen %d deadline %v, oracle holds %d B meta %q gen %d deadline %v",
				what, key, len(got.Value), got.Meta, got.Gen, got.Deadline,
				len(want.Value), want.Meta, want.Gen, want.Deadline)
		}
	}

	for step := 0; len(ops) > 0; step++ {
		op, key := next()%9, fmt.Sprintf("key%d", next()%modelKeys)
		what := "Put"
		switch op {
		case 0, 1, 2:
			// Sizes run from empty to two pages, so records span pages.
			n := next()
			e := Entry{
				Value: bytes.Repeat([]byte{byte(step)}, n*n/8),
				Meta:  fmt.Sprintf("m%d", step%5),
				Gen:   uint64(step),
			}
			if next()%4 == 0 {
				e.Deadline = fc.Now().Add(time.Duration(1+next()%8) * time.Second)
			}
			if !s.Put(key, e) {
				t.Fatalf("step %d: Put(%q, %d B) refused", step, key, len(e.Value))
			}
			oracle[key] = e
		case 3:
			what = "Get"
			if expired(oracle[key]) {
				delete(oracle, key)
			}
			got, ok := s.Get(key)
			check(what, key, got, ok)
		case 4:
			what = "Peek"
			got, ok := s.Peek(key)
			check(what, key, got, ok)
		case 5:
			what = "Delete"
			_, present := oracle[key]
			delete(oracle, key)
			if got := s.Delete(key); got != present {
				t.Fatalf("step %d: Delete(%q) = %v, oracle says %v", step, key, got, present)
			}
		case 6:
			what = "DeleteFunc"
			pred := func(k string) bool { return k[len(k)-1]%3 == key[len(key)-1]%3 }
			want := 0
			for k := range oracle {
				if pred(k) {
					delete(oracle, k)
					want++
				}
			}
			if got := s.DeleteFunc(pred); got != want {
				t.Fatalf("step %d: DeleteFunc dropped %d, oracle says %d", step, got, want)
			}
		case 7:
			// Twin answers presence (lapsed or not) and moves no bytes; the
			// flags it leaves behind are checked by checkInvariants.
			what = "Twin"
			_, present := oracle[key]
			if got := s.Twin(key, next()%2 == 0); got != present {
				t.Fatalf("step %d: Twin(%q) = %v, oracle says %v", step, key, got, present)
			}
		default:
			if next()%4 != 0 {
				what = "expire"
				fc.Advance(time.Duration(1+next()%4) * time.Second)
				break
			}
			what = "reopen"
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			if s, err = Open(cfg); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			for k, e := range oracle {
				if expired(e) {
					delete(oracle, k) // replay drops what lapsed
				}
			}
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
