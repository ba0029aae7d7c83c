package fragstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dpcache/internal/diskstore"
)

const (
	tieredModelKeys  = 10
	tieredModelEntry = 64  // nominal value size; RAM budgets are multiples of it
	tieredModelDisk  = 320 // well under ten entries: the disk tier must evict
)

// tieredModel drives one TieredKeyed and a map oracle through the same
// operations. The oracle cannot predict which entries the disk tier's LRU
// reclaims, so after every step it reconciles instead: a key may have
// vanished only if a disk eviction accounts for it.
type tieredModel struct {
	t       *testing.T
	cfg     TieredConfig
	ts      *TieredKeyed
	oracle  map[string]KeyedEntry
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

// tiers reads both tiers' contents for the model's keys, past the public
// surface: what RAM holds, and what the disk holds. Peek leaves the disk
// tier's touch stamps alone, so looking changes no later promotion.
func (m *tieredModel) tiers() (ram, disk map[string]KeyedEntry) {
	ram, disk = make(map[string]KeyedEntry), make(map[string]KeyedEntry)
	m.ts.ram.Range(func(key string, e KeyedEntry, _ time.Time) bool {
		ram[key] = e
		return true
	})
	for i := 0; i < tieredModelKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		if e, ok := m.ts.disk.Peek(key); ok {
			disk[key] = fromDisk(e)
		}
	}
	return ram, disk
}

func sameEntry(a, b KeyedEntry) bool {
	return bytes.Equal(a.Value, b.Value) && a.Gen == b.Gen
}

// check verifies, with no operation in flight: (b) where both tiers hold a
// key the copies are identical; (c) Len, Bytes and Stats count each key
// once, the RAM tier's ledger holds exactly what it stores, and the twin
// counters are the overlap — twinned == |RAM ∩ disk|, twinBytes its disk
// charge — which is what keeps a promotion racing an eviction from leaving
// the flag and the RAM tier in disagreement; (d) a key the oracle does not
// hold is in neither tier; and that every held key carries the oracle's
// version. Keys that vanished are reconciled against the disk tier's
// eviction counter.
func (m *tieredModel) check(step int, what string) {
	m.t.Helper()
	fail := func(format string, args ...any) {
		m.t.Helper()
		m.t.Fatalf("step %d, after %s: %s", step, what, fmt.Sprintf(format, args...))
	}
	if n := len(m.ts.transit) + m.ts.flushes; n != 0 {
		fail("%d crossings still registered", n)
	}
	ram, disk := m.tiers()
	var ramBytes, bytesOnce, twinBytes int64
	twinned, distinct := 0, len(ram)
	for key, r := range ram {
		ramBytes += int64(len(r.Value))
		if d, both := disk[key]; both {
			twinned++
			twinBytes += int64(len(key) + len(d.Value))
			if !sameEntry(r, d) {
				fail("%q differs between tiers: RAM %d B gen %d, disk %d B gen %d",
					key, len(r.Value), r.Gen, len(d.Value), d.Gen)
			}
		}
	}
	bytesOnce = ramBytes
	for key, d := range disk {
		if _, both := ram[key]; !both {
			distinct++
			bytesOnce += int64(len(key) + len(d.Value))
		}
	}
	st, ds := m.ts.Stats(), m.ts.disk.Stats()
	if m.ts.Len() != distinct || st.Resident != distinct {
		fail("Len %d / Stats.Resident %d, tiers hold %d distinct keys", m.ts.Len(), st.Resident, distinct)
	}
	if m.ts.Bytes() != bytesOnce || st.Bytes != bytesOnce {
		fail("Bytes %d / Stats.Bytes %d, tiers hold %d B counting each key once", m.ts.Bytes(), st.Bytes, bytesOnce)
	}
	if used := m.ts.ram.BudgetUsed(); used != ramBytes {
		fail("the RAM ledger holds %d B, the RAM tier %d", used, ramBytes)
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
			fail("%q holds %d B gen %d, oracle holds %d B gen %d",
				key, len(got.Value), got.Gen, len(want.Value), want.Gen)
		case held:
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

// run decodes ops into put / read / Delete / Flush / Close-and-reopen
// steps. ramEntries is the RAM budget in nominal entries: below one, most
// values bypass RAM.
func runTieredModel(t *testing.T, ramEntries float64, ops []byte) {
	t.Helper()
	m := &tieredModel{
		t: t,
		cfg: TieredConfig{
			RAM: KeyedConfig{Shards: 2, ByteBudget: int64(ramEntries * tieredModelEntry)},
			Disk: diskstore.Config{
				Path:       filepath.Join(t.TempDir(), "model.heap"),
				ByteBudget: tieredModelDisk,
				PageBytes:  diskstore.MinPageBytes,
				PoolPages:  2,
			},
		},
		oracle: make(map[string]KeyedEntry),
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
	// read checks one read against the oracle, which check() left exact:
	// every key it holds must be served, at its version.
	read := func(step int, key string) {
		t.Helper()
		got, ok := TieredGet(m.ts, key)
		want, present := m.oracle[key]
		if ok != present || ok && !sameEntry(got, want) {
			t.Fatalf("step %d: read(%q) = %d B gen %d (%v), oracle holds %d B gen %d (%v)",
				step, key, len(got.Value), got.Gen, ok, len(want.Value), want.Gen, present)
		}
	}

	for step := 0; len(ops) > 0; step++ {
		op, key := next()%16, fmt.Sprintf("k%d", next()%tieredModelKeys)
		what := "put"
		switch op {
		case 0, 1, 2, 3, 4:
			e := KeyedEntry{
				Value: bytes.Repeat([]byte{byte(step)}, next()%(tieredModelEntry+16)),
				Gen:   uint32(step % 2), // generations repeat: Gen is not an identity
			}
			m.ts.put(key, e)
			m.oracle[key] = e
		case 5, 6, 7, 8, 9, 10:
			what = "read"
			read(step, key)
		case 11, 12, 13:
			what = "Delete"
			_, present := m.oracle[key]
			delete(m.oracle, key)
			if got := m.ts.Delete(key); got != present {
				t.Fatalf("step %d: Delete(%q) = %v, oracle says %v", step, key, got, present)
			}
		case 14:
			if next()%4 != 0 {
				what = "read"
				read(step, key)
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
