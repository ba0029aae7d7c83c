package fragstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/diskstore"
	"dpcache/internal/metrics"
)

// Keyed is the string-keyed store surface shared by *KeyedStore and
// *TieredKeyed, so cache tiers (pagecache, the static cache) can mount
// either a RAM-only store or a RAM+disk tiered one without changing
// their code.
type Keyed interface {
	Get(key string) (KeyedEntry, bool)
	GetKeep(key string) (KeyedEntry, bool)
	GetStale(key string) (entry KeyedEntry, age time.Duration, ok bool)
	Put(key string, entry KeyedEntry, ttl time.Duration)
	Delete(key string) bool
	DeleteFunc(pred func(key string) bool) int
	ReserveScratch(n int64)
	Flush()
	Len() int
	Bytes() int64
	BudgetUsed() int64
	Stats() KeyedStats
	AsFragmentStore(capacity int) (FragmentStore, error)
}

// TieredConfig parameterizes NewTieredKeyed.
type TieredConfig struct {
	// RAM configures the front tier. Its OnEvict must be nil (the tiered
	// store installs its own demotion hook) and it should carry a byte
	// budget or entry bound — an unbounded RAM tier never demotes.
	RAM KeyedConfig
	// Disk configures the heap-file tier (path required; its own byte
	// budget with LRU victim drop).
	Disk diskstore.Config
}

// TieredStats extends the aggregate KeyedStats view with per-tier
// detail and the cross-tier traffic counters.
type TieredStats struct {
	RAM  KeyedStats      `json:"ram"`
	Disk diskstore.Stats `json:"disk"`
	// DiskHits counts Gets served from the disk tier (also counted in
	// the aggregate Hits).
	DiskHits int64 `json:"disk_hits"`
	// Promotions counts disk hits moved back into RAM; Demotions counts
	// RAM evictions written to disk instead of dropped.
	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
}

// TieredKeyed is a two-tier Keyed store: a KeyedStore in RAM fronting a
// diskstore heap file. The global byte ledger of the RAM tier acts as
// the admission gate between tiers — eviction under ledger pressure
// *demotes* the victim to disk instead of dropping it, and a Get that
// misses RAM but hits disk *promotes* the entry back (removing it from
// disk, so the tiers stay exclusive and bytes are never double-
// resident). Entries too large for the RAM budget bypass it and land
// directly on disk. Deletes, flushes, and fabric invalidations apply to
// both tiers, and an in-flight transit handshake ensures a Delete
// racing a demotion or promotion always wins — a killed entry cannot
// resurface from the tier boundary.
//
// On construction the disk tier replays its heap file, so a restarted
// proxy reopening the same path serves warm from disk immediately.
type TieredKeyed struct {
	ram  *KeyedStore // also the store's clock (ram.clk)
	disk *diskstore.Store

	mu      sync.Mutex
	transit map[string]*transit

	hits, misses, puts   atomic.Int64
	drops                atomic.Int64
	diskHits, promotions atomic.Int64
	demotions            atomic.Int64
}

// transit tracks one key crossing the tier boundary (demotion or
// promotion in flight). A concurrent Delete marks it killed; whoever
// finishes the crossing then re-deletes from both tiers, so the kill
// wins regardless of interleaving.
type transit struct {
	refs   int
	killed bool
}

// NewTieredKeyed opens the disk tier (replaying its heap file) and
// wires the RAM tier's eviction hook to demote into it.
func NewTieredKeyed(cfg TieredConfig) (*TieredKeyed, error) {
	if cfg.RAM.OnEvict != nil {
		return nil, fmt.Errorf("fragstore: tiered store owns the RAM tier's OnEvict hook")
	}
	if cfg.Disk.Clock == nil {
		cfg.Disk.Clock = cfg.RAM.Clock
	}
	t := &TieredKeyed{transit: make(map[string]*transit)}
	cfg.RAM.OnEvict = t.demote
	ram, err := NewKeyed(cfg.RAM)
	if err != nil {
		return nil, err
	}
	disk, err := diskstore.Open(cfg.Disk)
	if err != nil {
		return nil, err
	}
	t.ram = ram
	t.disk = disk
	return t, nil
}

// enterTransit registers key as crossing the tier boundary.
func (t *TieredKeyed) enterTransit(key string) *transit {
	t.mu.Lock()
	f := t.transit[key]
	if f == nil {
		f = &transit{}
		t.transit[key] = f
	}
	f.refs++
	t.mu.Unlock()
	return f
}

// exitTransit completes a crossing; if a Delete arrived while the entry
// was mid-flight, it is applied now so the kill wins.
func (t *TieredKeyed) exitTransit(key string, f *transit) {
	t.mu.Lock()
	f.refs--
	killed := f.killed
	if f.refs == 0 {
		delete(t.transit, key)
	}
	t.mu.Unlock()
	if killed {
		t.ram.Delete(key)
		t.disk.Delete(key)
	}
}

// killTransits marks every in-flight crossing whose key matches pred as
// deleted. The transit map only ever holds the few keys mid-crossing, so
// the scan is short; pred runs on a snapshot, without the transit lock.
func (t *TieredKeyed) killTransits(pred func(key string) bool) {
	t.mu.Lock()
	keys := make([]string, 0, len(t.transit))
	for k := range t.transit {
		keys = append(keys, k)
	}
	t.mu.Unlock()
	for _, k := range keys {
		if !pred(k) {
			continue
		}
		t.mu.Lock()
		if f := t.transit[k]; f != nil {
			f.killed = true
		}
		t.mu.Unlock()
	}
}

// demote is the RAM tier's OnEvict hook: the ledger victim is written
// to the disk tier instead of being dropped. Structured payloads (Obj)
// cannot be serialized and entries already past their deadline are not
// worth keeping, so both fall out here.
func (t *TieredKeyed) demote(key string, e KeyedEntry, deadline time.Time) {
	if e.Obj != nil {
		return
	}
	if !deadline.IsZero() && !t.ram.clk.Now().Before(deadline) {
		return
	}
	f := t.enterTransit(key)
	if t.disk.Put(key, diskstore.Entry{Value: e.Value, Meta: e.Meta, Gen: uint64(e.Gen), Deadline: deadline}) {
		t.demotions.Add(1)
	}
	t.exitTransit(key, f)
}

// promote moves a disk hit back into RAM (exclusive tiers: the disk
// copy is removed first). Entries the RAM budget could never admit stay
// on disk — promoting them would bounce straight back out.
func (t *TieredKeyed) promote(key string, e diskstore.Entry) {
	ke := fromDisk(e)
	if b := t.ram.cfg.ByteBudget; b > 0 && ke.size() > b {
		return
	}
	var ttl time.Duration
	if !e.Deadline.IsZero() {
		ttl = e.Deadline.Sub(t.ram.clk.Now())
		if ttl <= 0 {
			return
		}
	}
	f := t.enterTransit(key)
	t.disk.Delete(key)
	t.ram.Put(key, ke, ttl)
	t.promotions.Add(1)
	t.exitTransit(key, f)
}

// fromDisk converts a disk-tier record to the engine's entry shape.
func fromDisk(e diskstore.Entry) KeyedEntry {
	return KeyedEntry{Value: e.Value, Meta: e.Meta, Gen: uint32(e.Gen)}
}

// lapse reports whether a disk-tier record's deadline has passed, and by
// how much.
func (t *TieredKeyed) lapse(e diskstore.Entry) (age time.Duration, expired bool) {
	if e.Deadline.IsZero() {
		return 0, false
	}
	now := t.ram.clk.Now()
	if now.Before(e.Deadline) {
		return 0, false
	}
	return now.Sub(e.Deadline), true
}

// lookup is the one read path behind Get and GetKeep: RAM first, then
// disk, promoting a disk hit back into RAM. Under keepLapsed an expired
// entry misses but stays where it is for a later GetStale, so the disk
// tier is peeked rather than read (a disk Get drops what has lapsed).
func (t *TieredKeyed) lookup(key string, mode freshness) (KeyedEntry, bool) {
	if e, _, ok := t.ram.lookup(key, mode); ok {
		t.hits.Add(1)
		return e, true
	}
	var e diskstore.Entry
	var ok bool
	if mode == expireLapsed {
		e, ok = t.disk.Get(key)
	} else if e, ok = t.disk.Peek(key); ok {
		_, expired := t.lapse(e)
		ok = !expired
	}
	if !ok {
		t.misses.Add(1)
		return KeyedEntry{}, false
	}
	t.hits.Add(1)
	t.diskHits.Add(1)
	t.promote(key, e)
	return fromDisk(e), true
}

// Get returns the entry under key from either tier, promoting disk hits
// back into RAM.
func (t *TieredKeyed) Get(key string) (KeyedEntry, bool) { return t.lookup(key, expireLapsed) }

// GetKeep behaves like Get but leaves expired entries resident (in
// whichever tier holds them) for a later GetStale.
func (t *TieredKeyed) GetKeep(key string) (KeyedEntry, bool) { return t.lookup(key, keepLapsed) }

// GetStale returns the entry under key even past its TTL, with its age
// (zero while fresh), from whichever tier holds it. Stale reads do not
// promote — the next fresh Get will.
func (t *TieredKeyed) GetStale(key string) (KeyedEntry, time.Duration, bool) {
	if e, age, ok := t.ram.lookup(key, serveLapsed); ok {
		return e, age, true
	}
	e, ok := t.disk.Peek(key)
	if !ok {
		return KeyedEntry{}, 0, false
	}
	age, _ := t.lapse(e)
	return fromDisk(e), age, true
}

// Put stores entry under key. The RAM tier admits it (possibly demoting
// colder entries to disk); entries its budget could never hold go
// straight to disk. Any stale disk copy is removed first so the tiers
// never hold two versions.
func (t *TieredKeyed) Put(key string, entry KeyedEntry, ttl time.Duration) {
	t.puts.Add(1)
	f := t.enterTransit(key)
	t.disk.Delete(key)
	if b := t.ram.cfg.ByteBudget; b > 0 && entry.Obj == nil && entry.size() > b {
		// Too large for the RAM ledger: admit directly to the disk tier
		// (the RAM store would refuse it outright). The disk tier copies
		// the value into its page frames before Put returns.
		var deadline time.Time
		if ttl > 0 {
			deadline = t.ram.clk.Now().Add(ttl)
		}
		t.demote(key, entry, deadline)
	} else {
		t.ram.Put(key, entry, ttl)
	}
	t.exitTransit(key, f)
}

// Delete removes key from both tiers and kills any in-flight crossing.
func (t *TieredKeyed) Delete(key string) bool {
	t.killTransits(func(k string) bool { return k == key })
	r := t.ram.Delete(key)
	d := t.disk.Delete(key)
	if r || d {
		t.drops.Add(1)
		return true
	}
	return false
}

// DeleteFunc removes every key matching pred from both tiers.
func (t *TieredKeyed) DeleteFunc(pred func(key string) bool) int {
	t.killTransits(pred)
	n := t.ram.DeleteFunc(pred)
	n += t.disk.DeleteFunc(pred)
	t.drops.Add(int64(n))
	return n
}

// ReserveScratch charges transient bytes against the RAM ledger;
// resulting evictions demote as usual.
func (t *TieredKeyed) ReserveScratch(n int64) { t.ram.ReserveScratch(n) }

// Flush empties both tiers (and truncates the heap file).
func (t *TieredKeyed) Flush() {
	t.killTransits(func(string) bool { return true })
	t.drops.Add(int64(t.ram.Len() + t.disk.Len()))
	t.ram.Flush()
	t.disk.Flush()
}

// Len returns resident entries across both tiers.
func (t *TieredKeyed) Len() int { return t.ram.Len() + t.disk.Len() }

// Bytes returns resident bytes across both tiers.
func (t *TieredKeyed) Bytes() int64 { return t.ram.Bytes() + t.disk.Bytes() }

// BudgetUsed returns the RAM ledger reservation plus disk-resident
// bytes.
func (t *TieredKeyed) BudgetUsed() int64 { return t.ram.BudgetUsed() + t.disk.Bytes() }

// Stats returns the aggregate two-tier view: request-level counters
// (one Get is one hit or one miss, wherever it lands), summed
// occupancy, and eviction figures from the disk tier — the only place
// entries finally leave the store under pressure.
func (t *TieredKeyed) Stats() KeyedStats {
	rs := t.ram.Stats()
	ds := t.disk.Stats()
	return KeyedStats{
		Shards:       rs.Shards,
		Resident:     rs.Resident + ds.Resident,
		Bytes:        rs.Bytes + ds.Bytes,
		ByteBudget:   rs.ByteBudget + ds.ByteBudget,
		MaxEntries:   rs.MaxEntries,
		Puts:         t.puts.Load(),
		Hits:         t.hits.Load(),
		Misses:       t.misses.Load(),
		Drops:        t.drops.Load(),
		Expired:      rs.Expired + ds.Expired,
		Evictions:    ds.Evictions,
		EvictedBytes: ds.EvictedBytes,
	}
}

// TierStats returns the per-tier detail plus cross-tier traffic.
func (t *TieredKeyed) TierStats() TieredStats {
	return TieredStats{
		RAM:        t.ram.Stats(),
		Disk:       t.disk.Stats(),
		DiskHits:   t.diskHits.Load(),
		Promotions: t.promotions.Load(),
		Demotions:  t.demotions.Load(),
	}
}

// Close drains the RAM tier into the heap file, then flushes dirty
// pages and closes it. The write-through is what makes restarts warm:
// without it only previously-demoted entries would survive, and the
// hottest entries — promoted back to RAM, their disk copy reclaimed —
// would be exactly the ones lost. Entries the disk tier refuses
// (oversized, structured Obj payloads) are dropped as a plain eviction
// would have. Idempotent; a second Close finds an empty RAM tier.
func (t *TieredKeyed) Close() error {
	t.ram.Range(func(key string, e KeyedEntry, deadline time.Time) bool {
		t.ram.Delete(key)
		t.demote(key, e, deadline)
		return true
	})
	return t.disk.Close()
}

// AsFragmentStore returns a view of the tiered store under the
// FragmentStore contract; see fragmentView.
func (t *TieredKeyed) AsFragmentStore(capacity int) (FragmentStore, error) {
	return newFragmentView(t, BackendTiered, capacity)
}

// PublishDisk copies disk-tier stats into registry gauges under prefix
// (e.g. "dpc.store" → "dpc.store.disk_hits").
func PublishDisk(reg *metrics.Registry, prefix string, ts TieredStats) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix + ".disk_hits").Set(ts.DiskHits)
	reg.Gauge(prefix + ".disk_promotions").Set(ts.Promotions)
	reg.Gauge(prefix + ".disk_demotions").Set(ts.Demotions)
	reg.Gauge(prefix + ".disk_resident").Set(int64(ts.Disk.Resident))
	reg.Gauge(prefix + ".disk_bytes").Set(ts.Disk.Bytes)
	reg.Gauge(prefix + ".disk_byte_budget").Set(ts.Disk.ByteBudget)
	reg.Gauge(prefix + ".disk_recovered_entries").Set(ts.Disk.RecoveredEntries)
	reg.Gauge(prefix + ".disk_checksum_discards").Set(ts.Disk.ChecksumDiscards)
}
