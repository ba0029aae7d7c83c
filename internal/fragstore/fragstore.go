// Package fragstore defines the Dynamic Proxy Cache's fragment-memory
// contract and the storage behind it.
//
// The paper's Section 4.3.3 store is "an in-memory array of pointers to
// cached fragments, where the DpcKey serves as the array index", guarded in
// the seed implementation by a single RWMutex. That design is faithful but
// caps concurrency (every SET serializes on one lock) and supports exactly
// one capacity model (slot count, no byte bound). The package therefore
// holds one reference, one engine, and two views of the engine:
//
//   - SlotStore: the paper-faithful single-lock slot array, unchanged in
//     behavior from internal/dpc — the oracle the conformance suite holds
//     every other backend to.
//   - KeyedStore: the engine. String keys hashed over power-of-two shards
//     with per-shard locks, per-entry TTLs, an optional byte budget and
//     entry bound, and LRU or cost-aware GDSF eviction. The DPC's static
//     cache, the whole-page cache and the plan cache wrap it directly.
//   - "sharded": KeyedStore seen through the FragmentStore contract (slot
//     n is the engine's key "k<n>"), for deployments where fragment bytes
//     — not the BEM freeList — are the binding resource.
//   - "tiered": the same view over TieredKeyed, a KeyedStore whose
//     eviction victims are demoted to a diskstore heap file instead of
//     dropped, and which restarts warm from that file.
//
// Eviction ownership: each store owns its own eviction entirely —
// callers never evict. Byte budgets are enforced on a single global
// atomic ledger per store (see ledger), not per-shard partitions: shards
// reserve resident bytes against the ledger on write and release on
// removal, and eviction fires only when the store as a whole is over
// budget, taking the globally coldest entry first. The ledger therefore
// guarantees (1) a skewed key distribution can fill one shard with the
// entire budget without early eviction, and (2) at quiescence the store
// never settles above its budget.
//
// Every backend satisfies the same conformance suite (see storetest).
package fragstore

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"dpcache/internal/diskstore"
	"dpcache/internal/metrics"
)

// FragmentStore is the fragment memory contract shared by the assembler
// (SET/GET instructions), the proxy (stats), and the coherency extension
// (Drop/DropAll). Implementations must be safe for concurrent use.
//
// Content returned by Get is shared with the store; callers must not
// modify it. Set copies its input.
type FragmentStore interface {
	// Set stores content under key, stamping it with the generation from
	// the SET tag. Keys at or beyond Capacity are rejected with an error.
	Set(key, gen uint32, content []byte) error
	// Get returns the content stored under key. When strict is true the
	// stored generation must equal gen (a mismatch means the slot was
	// reassigned after the template referencing it was produced); when
	// false any resident entry matches — the paper's original fast path.
	Get(key, gen uint32, strict bool) ([]byte, bool)
	// Drop removes the entry under key immediately (coherency
	// invalidation) rather than waiting for slot reuse. Unknown and
	// out-of-range keys are no-ops.
	Drop(key uint32)
	// DropAll removes every resident entry (the coherency subscriber's
	// gap-detection full flush).
	DropAll()
	// Capacity returns the key-space size (the BEM's slot count).
	Capacity() int
	// Bytes returns the total content bytes currently resident.
	Bytes() int64
	// Resident returns the number of resident entries.
	Resident() int
	// Stats returns a point-in-time snapshot of store activity.
	Stats() Stats
}

// Stats is a point-in-time snapshot of a store's occupancy and activity.
type Stats struct {
	// Backend names the implementation ("slot", "sharded", "tiered").
	Backend string `json:"backend"`
	// Shards is the shard count (1 for the slot store).
	Shards int `json:"shards"`
	// Capacity is the key-space size.
	Capacity int `json:"capacity"`
	// Resident is the number of entries currently stored.
	Resident int `json:"resident"`
	// Bytes is the total resident content size.
	Bytes int64 `json:"bytes"`
	// ByteBudget is the configured byte bound (0 = unbounded).
	ByteBudget int64 `json:"byte_budget"`
	// Sets, Hits, Misses, Drops count store operations since creation.
	Sets   int64 `json:"sets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Drops  int64 `json:"drops"`
	// Evictions counts entries removed by the eviction policy (not by
	// Drop), and EvictedBytes their cumulative size.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Publish copies a stats snapshot into registry gauges under prefix
// (e.g. "dpc.store"), so store occupancy and eviction activity appear in
// metrics snapshots alongside the proxy's counters.
func Publish(reg *metrics.Registry, prefix string, st Stats) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix + ".capacity").Set(int64(st.Capacity))
	reg.Gauge(prefix + ".resident").Set(int64(st.Resident))
	reg.Gauge(prefix + ".bytes").Set(st.Bytes)
	reg.Gauge(prefix + ".byte_budget").Set(st.ByteBudget)
	reg.Gauge(prefix + ".shards").Set(int64(st.Shards))
	reg.Gauge(prefix + ".sets").Set(st.Sets)
	reg.Gauge(prefix + ".hits").Set(st.Hits)
	reg.Gauge(prefix + ".misses").Set(st.Misses)
	reg.Gauge(prefix + ".drops").Set(st.Drops)
	reg.Gauge(prefix + ".evictions").Set(st.Evictions)
	reg.Gauge(prefix + ".evicted_bytes").Set(st.EvictedBytes)
}

// Backend names.
const (
	// BackendSlot is the paper-faithful single-lock slot array.
	BackendSlot = "slot"
	// BackendSharded is the sharded, byte-budgeted RAM store: a fragment
	// view of KeyedStore.
	BackendSharded = "sharded"
	// BackendTiered is the two-tier store: a fragment view of TieredKeyed,
	// whose RAM tier demotes evictions into a disk-backed heap file that
	// replays on restart.
	BackendTiered = "tiered"
)

// Config selects and parameterizes a backend from plain values. It is
// declared here once: core.Config carries one by value as the template of
// every proxy's store, and dpcd binds its store flags to these fields.
type Config struct {
	// Backend is "slot" (default), "sharded", or "tiered".
	Backend string
	// Capacity is the key-space size shared with the BEM. Required.
	Capacity int
	// Shards is the engine's shard count under the sharded and tiered
	// backends, rounded up to a power of two (0 selects DefaultShards).
	// The slot backend rejects a non-zero value.
	Shards int
	// ByteBudget bounds resident content bytes in RAM (0 = unbounded).
	// The budget is one global ledger shared by every shard, so eviction
	// fires only when the store as a whole is over — never because one
	// shard's key slice is popular. The sharded backend requires an
	// eviction policy with it. The slot backend rejects a non-zero value.
	ByteBudget int64
	// Eviction is "none" (default), "lru", or "gdsf". The slot backend
	// rejects any other value.
	Eviction string
	// DiskPath is the tiered backend's heap-file path, created on first
	// open and replayed on restart. Required for (and only valid with)
	// the tiered backend.
	DiskPath string
	// DiskBudget bounds the tiered backend's disk-resident bytes (0 =
	// unbounded); over-budget writes drop the disk tier's LRU victims.
	DiskBudget int64
	// DiskPageBytes is the heap file's page size (0 = diskstore
	// default). Changing it across restarts invalidates the file.
	DiskPageBytes int
}

// Validate reports whether the configuration selects a buildable backend,
// without allocating one (NewSystem-style fail-fast checks).
func (c Config) Validate() error {
	if c.Backend != BackendTiered && (c.DiskPath != "" || c.DiskBudget != 0 || c.DiskPageBytes != 0) {
		return fmt.Errorf("fragstore: disk options require the %q backend (got backend=%q)", BackendTiered, c.Backend)
	}
	switch c.Backend {
	case "", BackendSlot:
		if c.Capacity <= 0 {
			return fmt.Errorf("fragstore: store capacity must be positive, got %d", c.Capacity)
		}
		if c.ByteBudget != 0 || c.Shards != 0 || (c.Eviction != "" && c.Eviction != "none") {
			return fmt.Errorf("fragstore: slot backend supports neither sharding, byte budgets, nor eviction (got shards=%d budget=%d eviction=%q)",
				c.Shards, c.ByteBudget, c.Eviction)
		}
		return nil
	case BackendSharded:
		pol, err := ParsePolicy(c.Eviction)
		if err != nil {
			return err
		}
		if c.Capacity <= 0 {
			return fmt.Errorf("fragstore: store capacity must be positive, got %d", c.Capacity)
		}
		if c.ByteBudget < 0 {
			return fmt.Errorf("fragstore: negative byte budget %d", c.ByteBudget)
		}
		if c.ByteBudget > 0 && pol == PolicyNone {
			return fmt.Errorf("fragstore: a byte budget requires an eviction policy (lru or gdsf)")
		}
		return nil
	case BackendTiered:
		if c.Capacity <= 0 {
			return fmt.Errorf("fragstore: store capacity must be positive, got %d", c.Capacity)
		}
		if _, err := ParsePolicy(c.Eviction); err != nil {
			return err
		}
		return c.disk().Validate()
	default:
		return fmt.Errorf("fragstore: unknown backend %q (want %q, %q, or %q)", c.Backend, BackendSlot, BackendSharded, BackendTiered)
	}
}

// disk is the tiered backend's heap-file configuration.
func (c Config) disk() diskstore.Config {
	return diskstore.Config{Path: c.DiskPath, ByteBudget: c.DiskBudget, PageBytes: c.DiskPageBytes}
}

// New builds the configured backend.
func New(cfg Config) (FragmentStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, _ := ParsePolicy(cfg.Eviction) // validated above
	ram := KeyedConfig{Shards: cfg.Shards, ByteBudget: cfg.ByteBudget, Policy: pol}
	switch cfg.Backend {
	case BackendSharded:
		s, err := NewKeyed(ram)
		if err != nil {
			return nil, err
		}
		return newFragmentView(s, BackendSharded, cfg.Capacity)
	case BackendTiered:
		t, err := NewTieredKeyed(TieredConfig{RAM: ram, Disk: cfg.disk()})
		if err != nil {
			return nil, err
		}
		return newFragmentView(t, BackendTiered, cfg.Capacity)
	}
	return NewSlotStore(cfg.Capacity)
}

// fragmentView presents a Keyed engine under the FragmentStore contract:
// slot n is stored under the key "k<n>" (also the on-disk key format of
// the tiered backend's heap file, so the spelling is frozen) and the SET
// tag's generation rides in KeyedEntry.Gen. It is the whole of the sharded
// and tiered backends.
type fragmentView struct {
	s        Keyed
	tiered   *TieredKeyed // s, when it has a disk tier; else nil
	backend  string
	capacity int
	// keys is the key table for slots below maxKeyTable, one chunk per
	// keyChunkSlots slots, each formatted when a slot in it is first
	// touched: no access to a warm chunk formats a string, a view costs
	// nothing to build however large its capacity, and the table holds one
	// pointer per chunk for the collector to chase. Slots past the table
	// format theirs.
	keys []atomic.Pointer[keyChunk]
	// The two misses only the view can see — a key outside the capacity,
	// and a strict Get that found another generation (a hit to the
	// engine) — are counted here and folded into Stats.
	rangeMisses, genMisses atomic.Int64
}

// maxKeyTable bounds the key table (4 B of offset plus at most 8 B of text
// per slot, in chunks of keyChunkSlots).
const (
	maxKeyTable   = 1 << 20
	keyChunkSlots = 1 << 10
)

// keyChunk holds the keys of keyChunkSlots consecutive slots back to back
// ("k1024k1025…"): slot base+i's is text[at[i]:at[i+1]].
type keyChunk struct {
	text string
	at   [keyChunkSlots + 1]uint32
}

func newFragmentView(s Keyed, backend string, capacity int) (*fragmentView, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("fragstore: store capacity must be positive, got %d", capacity)
	}
	chunks := (min(capacity, maxKeyTable) + keyChunkSlots - 1) / keyChunkSlots
	tiered, _ := s.(*TieredKeyed)
	return &fragmentView{s: s, tiered: tiered, backend: backend, capacity: capacity,
		keys: make([]atomic.Pointer[keyChunk], chunks)}, nil
}

func (v *fragmentView) key(slot uint32) string {
	if n := int(slot / keyChunkSlots); n < len(v.keys) {
		c := v.keys[n].Load()
		if c == nil {
			c = v.fillKeyChunk(n)
		}
		i := slot % keyChunkSlots
		return c.text[c.at[i]:c.at[i+1]]
	}
	return "k" + strconv.FormatUint(uint64(slot), 10)
}

// fillKeyChunk formats chunk n of the key table. Two first touches may both
// format it; the chunks are identical and either may be published.
func (v *fragmentView) fillKeyChunk(n int) *keyChunk {
	c := new(keyChunk)
	var text strings.Builder
	for i := 0; i < keyChunkSlots; i++ {
		text.WriteByte('k')
		text.WriteString(strconv.Itoa(n*keyChunkSlots + i))
		c.at[i+1] = uint32(text.Len())
	}
	c.text = text.String()
	v.keys[n].Store(c)
	return c
}

func (v *fragmentView) Set(key, gen uint32, content []byte) error {
	if int64(key) >= int64(v.capacity) {
		return fmt.Errorf("fragstore: key %d outside store capacity %d", key, v.capacity)
	}
	v.s.Put(v.key(key), KeyedEntry{Value: content, Gen: gen}, 0)
	return nil
}

func (v *fragmentView) Get(key, gen uint32, strict bool) ([]byte, bool) {
	return v.get(key, gen, strict, nil)
}

// get is Get; over a tiered engine a non-nil c receives the tier crossings
// the read caused.
func (v *fragmentView) get(key, gen uint32, strict bool, c *Crossings) ([]byte, bool) {
	if int64(key) >= int64(v.capacity) {
		v.rangeMisses.Add(1)
		return nil, false
	}
	var e KeyedEntry
	var ok bool
	if c != nil && v.tiered != nil {
		e, ok = v.tiered.lookup(v.key(key), expireLapsed, c)
	} else {
		e, ok = v.s.Get(v.key(key))
	}
	if !ok {
		return nil, false
	}
	if strict && e.Gen != gen {
		v.genMisses.Add(1)
		return nil, false
	}
	return e.Value, true
}

func (v *fragmentView) Drop(key uint32) {
	if int64(key) < int64(v.capacity) {
		v.s.Delete(v.key(key))
	}
}

func (v *fragmentView) DropAll() { v.s.Flush() }

func (v *fragmentView) Capacity() int { return v.capacity }

func (v *fragmentView) Bytes() int64 { return v.s.Bytes() }

func (v *fragmentView) Resident() int { return v.s.Len() }

func (v *fragmentView) Stats() Stats {
	ks := v.s.Stats()
	gen := v.genMisses.Load()
	return Stats{
		Backend:      v.backend,
		Shards:       ks.Shards,
		Capacity:     v.capacity,
		Resident:     ks.Resident,
		Bytes:        ks.Bytes,
		ByteBudget:   ks.ByteBudget,
		Sets:         ks.Puts,
		Hits:         ks.Hits - gen,
		Misses:       ks.Misses + gen + v.rangeMisses.Load(),
		Drops:        ks.Drops,
		Evictions:    ks.Evictions,
		EvictedBytes: ks.EvictedBytes,
	}
}

// Close releases what the engine holds open — the tiered backend's heap
// file — and is a no-op over a RAM-only engine.
func (v *fragmentView) Close() error {
	if c, ok := v.s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// DiskStats returns the disk tier's detail when store is a view of an
// engine that has one (the tiered backend); the proxy publishes it as the
// dpc.store.disk_* gauges and the /_dpc/stats disk section.
func DiskStats(store FragmentStore) (TieredStats, bool) {
	if v, ok := store.(*fragmentView); ok && v.tiered != nil {
		return v.tiered.TierStats(), true
	}
	return TieredStats{}, false
}

// GetCrossings is store.Get that also reports the tier crossings the read
// caused, for the request trace: a promotion, and what became of the RAM
// victims it displaced. A store without a disk tier reports none.
func GetCrossings(store FragmentStore, key, gen uint32, strict bool) (data []byte, ok bool, c Crossings) {
	if v, isView := store.(*fragmentView); isView {
		data, ok = v.get(key, gen, strict, &c)
	} else {
		data, ok = store.Get(key, gen, strict)
	}
	return data, ok, c
}

// Policy selects the engine's eviction strategy.
type Policy int

// Eviction policies.
const (
	// PolicyNone performs no eviction: entries are replaced only by slot
	// reuse, the paper's freeList discipline. Incompatible with a byte
	// budget.
	PolicyNone Policy = iota
	// PolicyLRU evicts the least-recently-used entry when the store
	// exceeds its byte budget or entry bound.
	PolicyLRU
	// PolicyGDSF evicts by Greedy-Dual-Size-Frequency priority
	// (frequency/size with aging), preferring to keep small, hot
	// fragments when the byte budget is tight.
	PolicyGDSF
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyGDSF:
		return "gdsf"
	default:
		return "none"
	}
}

// ParsePolicy maps a policy name ("", "none", "lru", "gdsf") to a Policy.
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return PolicyNone, nil
	case "lru":
		return PolicyLRU, nil
	case "gdsf":
		return PolicyGDSF, nil
	default:
		return PolicyNone, fmt.Errorf("fragstore: unknown eviction policy %q (want none, lru, or gdsf)", name)
	}
}
