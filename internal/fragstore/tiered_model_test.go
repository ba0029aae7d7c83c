package fragstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/diskstore"
)

const (
	tieredModelKeys  = 10
	tieredModelEntry = 64  // nominal value size; RAM budgets are multiples of it
	tieredModelDisk  = 320 // well under ten entries: the disk tier must evict
)

type modelEntry struct {
	e        KeyedEntry
	deadline time.Time // zero = none
}

// tieredModel drives one TieredKeyed and a map oracle through the same
// operations. The oracle cannot predict which entries the disk tier's LRU
// reclaims, so after every step it reconciles instead: a key may have
// vanished only if it had lapsed or a disk eviction accounts for it.
type tieredModel struct {
	t       *testing.T
	cfg     TieredConfig
	fc      *clock.Fake
	ts      *TieredKeyed
	oracle  map[string]modelEntry
	evicted int64 // disk evictions already accounted for
}

func (m *tieredModel) open() {
	ts, err := NewTieredKeyed(m.cfg)
	if err != nil {
		m.t.Fatalf("NewTieredKeyed: %v", err)
	}
	// The eviction counter restarts with the store; what the closing drain
	// evicted has not been reconciled yet and stays owed.
	if m.ts != nil {
		m.evicted -= m.ts.disk.Stats().Evictions
	}
	m.ts = ts
}

func (m *tieredModel) lapsed(e modelEntry) bool {
	return !e.deadline.IsZero() && !m.fc.Now().Before(e.deadline)
}

// tiers reads both tiers' contents for the model's keys, past the public
// surface: what RAM holds, and what the disk holds.
func (m *tieredModel) tiers() (ram, disk map[string]modelEntry) {
	ram, disk = make(map[string]modelEntry), make(map[string]modelEntry)
	m.ts.ram.Range(func(key string, e KeyedEntry, deadline time.Time) bool {
		ram[key] = modelEntry{e, deadline}
		return true
	})
	for i := 0; i < tieredModelKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		if e, ok := m.ts.disk.Peek(key); ok {
			disk[key] = modelEntry{fromDisk(e), e.Deadline}
		}
	}
	return ram, disk
}

func sameEntry(a, b modelEntry) bool {
	return bytes.Equal(a.e.Value, b.e.Value) && a.e.Meta == b.e.Meta && a.e.Gen == b.e.Gen &&
		a.deadline.Equal(b.deadline)
}

// check verifies, with no operation in flight: (b) where both tiers hold a
// key the copies are identical; (c) Len, Bytes and Stats count each key
// once, BudgetUsed is the tiers' own charges, and the twin counters are the
// overlap — twinned == |RAM ∩ disk|, twinBytes its disk charge — which is
// what keeps a promotion racing an eviction from leaving the flag and the
// RAM tier in disagreement; (d) a key the oracle does not hold is in neither tier; and that
// every held key carries the oracle's version. Keys that vanished are
// reconciled against lapse and the disk tier's eviction counter.
func (m *tieredModel) check(step int, what string) {
	m.t.Helper()
	fail := func(format string, args ...any) {
		m.t.Helper()
		m.t.Fatalf("step %d, after %s: %s", step, what, fmt.Sprintf(format, args...))
	}
	if n := len(m.ts.transit) + len(m.ts.bulks); n != 0 {
		fail("%d crossings still registered", n)
	}
	ram, disk := m.tiers()
	var bytesOnce, twinBytes int64
	twinned, distinct := 0, len(ram)
	for key, r := range ram {
		bytesOnce += int64(len(r.e.Value))
		if d, both := disk[key]; both {
			twinned++
			twinBytes += int64(len(key) + len(d.e.Meta) + len(d.e.Value))
			if !sameEntry(r, d) {
				fail("%q differs between tiers: RAM %d B gen %d deadline %v, disk %d B gen %d deadline %v",
					key, len(r.e.Value), r.e.Gen, r.deadline, len(d.e.Value), d.e.Gen, d.deadline)
			}
		}
	}
	for key, d := range disk {
		if _, both := ram[key]; !both {
			distinct++
			bytesOnce += int64(len(key) + len(d.e.Meta) + len(d.e.Value))
		}
	}
	st, ds := m.ts.Stats(), m.ts.disk.Stats()
	if m.ts.Len() != distinct || st.Resident != distinct {
		fail("Len %d / Stats.Resident %d, tiers hold %d distinct keys", m.ts.Len(), st.Resident, distinct)
	}
	if m.ts.Bytes() != bytesOnce || st.Bytes != bytesOnce {
		fail("Bytes %d / Stats.Bytes %d, tiers hold %d B counting each key once", m.ts.Bytes(), st.Bytes, bytesOnce)
	}
	if used, want := m.ts.BudgetUsed(), m.ts.ram.BudgetUsed()+ds.Bytes; used != want {
		fail("BudgetUsed %d, tiers charge %d", used, want)
	}
	if ds.Twinned != twinned || ds.TwinnedBytes != twinBytes || ds.Resident != len(disk) {
		fail("disk reports %d resident / %d twinned (%d B), tiers hold %d / %d (%d B)",
			ds.Resident, ds.Twinned, ds.TwinnedBytes, len(disk), twinned, twinBytes)
	}
	if b := m.cfg.Disk.ByteBudget; ds.Bytes > b {
		fail("disk tier holds %d B over a budget of %d", ds.Bytes, b)
	}

	lost := int64(0)
	for key, want := range m.oracle {
		got, held := ram[key]
		if !held {
			got, held = disk[key]
		}
		switch {
		case held && !sameEntry(got, want):
			fail("%q holds %d B gen %d deadline %v, oracle holds %d B gen %d deadline %v",
				key, len(got.e.Value), got.e.Gen, got.deadline, len(want.e.Value), want.e.Gen, want.deadline)
		case held:
		case m.lapsed(want):
			delete(m.oracle, key) // dropped at demotion or on a read
		default:
			lost++
			delete(m.oracle, key)
		}
	}
	if lost > ds.Evictions-m.evicted {
		fail("%d entries vanished, the disk tier evicted %d", lost, ds.Evictions-m.evicted)
	}
	m.evicted = ds.Evictions
	for key := range ram {
		if _, ok := m.oracle[key]; !ok {
			fail("%q is in RAM, the oracle does not hold it", key)
		}
	}
	for key := range disk {
		if _, ok := m.oracle[key]; !ok {
			fail("%q is on disk, the oracle does not hold it", key)
		}
	}
}

// run decodes ops into Put / Get / GetKeep / GetStale / Delete / DeleteFunc
// / Flush / TTL-advance / Close-and-reopen steps. ramEntries is the RAM
// budget in nominal entries: below one, most values bypass RAM.
func runTieredModel(t *testing.T, ramEntries float64, ops []byte) {
	t.Helper()
	fc := clock.NewFake(time.Unix(5_000, 0))
	m := &tieredModel{
		t:  t,
		fc: fc,
		cfg: TieredConfig{
			RAM: KeyedConfig{Shards: 2, ByteBudget: int64(ramEntries * tieredModelEntry), Clock: fc},
			Disk: diskstore.Config{
				Path:       filepath.Join(t.TempDir(), "model.heap"),
				ByteBudget: tieredModelDisk,
				PageBytes:  diskstore.MinPageBytes,
				PoolPages:  2,
			},
		},
		oracle: make(map[string]modelEntry),
	}
	m.open()
	defer func() { m.ts.Close() }()

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// read checks one lookup against the oracle, which check() left exact.
	read := func(step int, what, key string, got KeyedEntry, ok, serveLapsed bool) {
		t.Helper()
		want, present := m.oracle[key]
		fresh := present && (serveLapsed || !m.lapsed(want))
		if ok && (!fresh || !bytes.Equal(got.Value, want.e.Value) || got.Meta != want.e.Meta || got.Gen != want.e.Gen) {
			t.Fatalf("step %d: %s(%q) = %d B meta %q gen %d, oracle holds (present %v, fresh %v) %d B meta %q gen %d",
				step, what, key, len(got.Value), got.Meta, got.Gen, present, fresh, len(want.e.Value), want.e.Meta, want.e.Gen)
		}
		// A lapsed entry may have been dropped at demotion; a fresh one the
		// oracle still holds after reconciling must be served.
		if !ok && fresh && !m.lapsed(want) {
			t.Fatalf("step %d: %s(%q) missed, oracle holds %d B gen %d", step, what, key, len(want.e.Value), want.e.Gen)
		}
	}

	for step := 0; len(ops) > 0; step++ {
		op, key := next()%16, fmt.Sprintf("k%d", next()%tieredModelKeys)
		what := "Put"
		switch op {
		case 0, 1, 2, 3, 4:
			e := KeyedEntry{
				Value: bytes.Repeat([]byte{byte(step)}, next()%(tieredModelEntry+16)),
				Meta:  fmt.Sprintf("m%d", step%3),
				Gen:   uint32(step % 2), // generations repeat: Gen is not an identity
			}
			var ttl time.Duration
			var deadline time.Time
			if next()%4 == 0 {
				ttl = time.Duration(1+next()%8) * time.Second
				deadline = fc.Now().Add(ttl)
			}
			m.ts.Put(key, e, ttl)
			m.oracle[key] = modelEntry{e, deadline}
		case 5, 6, 7, 8:
			what = "Get"
			got, ok := m.ts.Get(key)
			read(step, what, key, got, ok, false)
			if e, present := m.oracle[key]; present && m.lapsed(e) {
				delete(m.oracle, key) // a Get removes what has lapsed
			}
		case 9:
			what = "GetKeep"
			got, ok := m.ts.GetKeep(key)
			read(step, what, key, got, ok, false)
		case 10:
			what = "GetStale"
			got, age, ok := m.ts.GetStale(key)
			read(step, what, key, got, ok, true)
			if want := m.oracle[key]; ok {
				// Negative while fresh, so a fresh entry never reads as
				// one that lapsed exactly at its deadline; negative for
				// good with no deadline.
				if want.deadline.IsZero() && age >= 0 || !want.deadline.IsZero() && age != fc.Now().Sub(want.deadline) {
					t.Fatalf("step %d: GetStale(%q) age %v, deadline %v", step, key, age, want.deadline)
				}
			}
		case 11:
			what = "Delete"
			_, present := m.oracle[key]
			delete(m.oracle, key)
			if got := m.ts.Delete(key); got != present {
				t.Fatalf("step %d: Delete(%q) = %v, oracle says %v", step, key, got, present)
			}
		case 12:
			what = "DeleteFunc"
			pred := func(k string) bool { return k[len(k)-1]%3 == key[len(key)-1]%3 }
			want := 0
			for k := range m.oracle {
				if pred(k) {
					delete(m.oracle, k)
					want++
				}
			}
			if got := m.ts.DeleteFunc(pred); got != want {
				t.Fatalf("step %d: DeleteFunc dropped %d, oracle says %d", step, got, want)
			}
		case 13:
			what = "advance"
			fc.Advance(time.Duration(1+next()%4) * time.Second)
		case 14:
			if next()%4 != 0 {
				what = "Get"
				got, ok := m.ts.Get(key)
				read(step, what, key, got, ok, false)
				if e, present := m.oracle[key]; present && m.lapsed(e) {
					delete(m.oracle, key)
				}
				break
			}
			what = "Flush"
			m.ts.Flush()
			clear(m.oracle)
			if m.ts.Len() != 0 {
				t.Fatalf("step %d: Flush left %d resident", step, m.ts.Len())
			}
		default:
			what = "reopen"
			if err := m.ts.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			m.open()
			for k, e := range m.oracle {
				if m.lapsed(e) {
					delete(m.oracle, k) // replay drops what lapsed
				}
			}
		}
		m.check(step, fmt.Sprintf("%s(%q)", what, key))
	}
}

func tieredModelOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

var tieredModelBudgets = []float64{0.5, 2, 8}

// TestTieredModelAgainstMapOracle runs seeded random operation sequences at
// RAM budgets of half an entry (most values bypass RAM), two entries (every
// read crosses the boundary) and eight (most of the keys stay twinned).
func TestTieredModelAgainstMapOracle(t *testing.T) {
	for _, budget := range tieredModelBudgets {
		for seed := int64(1); seed <= 70; seed++ {
			t.Run(fmt.Sprintf("ram%v/seed%d", budget, seed), func(t *testing.T) {
				runTieredModel(t, budget, tieredModelOps(seed, 600))
			})
		}
	}
}

// FuzzTieredModel feeds the same operation encoding to the fuzzer.
func FuzzTieredModel(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(tieredModelOps(seed, 150), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte, budget uint8) {
		runTieredModel(t, tieredModelBudgets[int(budget)%len(tieredModelBudgets)], ops)
	})
}
