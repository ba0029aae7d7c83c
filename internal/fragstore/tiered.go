package fragstore

import (
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
	// RAM configures the front tier. It should carry a byte budget or
	// entry bound — an unbounded RAM tier never demotes.
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
	// Promotions counts disk hits copied back into RAM. Demotions counts
	// RAM evictions written to disk; CleanEvictions counts those that
	// wrote nothing because the disk tier still held the victim's copy.
	Promotions     int64 `json:"promotions"`
	Demotions      int64 `json:"demotions"`
	CleanEvictions int64 `json:"clean_evictions"`
}

// TieredKeyed is a two-tier Keyed store: a KeyedStore in RAM fronting a
// diskstore heap file. The tiers are inclusive and eviction from RAM is
// clean wherever it can be. The global byte ledger of the RAM tier is the
// admission gate between them: a Get that misses RAM but hits disk
// *promotes* — copies the entry into RAM and leaves the disk copy where it
// is — and eviction under ledger pressure *demotes* the victim, which
// costs a disk write only when the disk tier does not already hold it (it
// never did, or its own budget reclaimed the copy). In a read-mostly
// workload every entry is written once, while the store warms, and
// steady-state eviction writes nothing; the price is that up to one RAM
// budget of bytes is resident in both tiers. Entries too large for the RAM
// budget bypass it and are served from disk.
//
// The invariant that makes trusting the disk copy safe: whenever both
// tiers hold a key, the two copies are identical (value, meta, generation,
// deadline). Put deletes the disk copy before it stores a new version;
// Delete, DeleteFunc, Flush and fabric invalidations apply to both tiers;
// and every operation that writes one of a key's copies registers in the
// transit map while it runs, so that a Delete or a Put overlapping a
// promotion or a demotion of the same key wins — see transit.
//
// On construction the disk tier replays its heap file, so a restarted
// proxy reopening the same path serves warm from disk immediately.
type TieredKeyed struct {
	ram  *KeyedStore // also the store's clock (ram.clk)
	disk *diskstore.Store

	mu      sync.Mutex
	transit map[string]*transit

	hits, misses, puts        atomic.Int64
	drops                     atomic.Int64
	diskHits, promotions      atomic.Int64
	demotions, cleanEvictions atomic.Int64
}

// transit tracks one key while crossings — operations that change which
// tier holds it, or what the tiers hold for it — are in flight: a lookup
// reading the disk tier and promoting, an eviction from RAM, a Put, a
// Delete. Promotions and evictions copy the version the store already
// holds; a Put or a Delete overlapping one could otherwise be undone by
// it, the older version landing in a tier after the newer one was stored
// or the key removed. So a Put or Delete overlapping any other crossing
// marks the record stale, a DeleteFunc or Flush marks the records it
// matches killed, and while a mark stands nobody trusts what the tiers
// hold for the key: lookups miss, victims are dropped instead of demoted,
// and whoever finishes a crossing removes the key — from the disk tier
// (whose copy may be the older version) when stale, from both when killed.
type transit struct {
	refs    int // crossings in flight
	writers int // Puts and Deletes among them
	killed  bool
	stale   bool
	// victim is the entry an eviction is moving to disk. It has left the
	// RAM tier and may not be readable from the disk tier yet, so lookups
	// are served from here.
	victim *victim
}

type victim struct {
	e        KeyedEntry
	deadline time.Time
}

// role is what a crossing does to its key.
type role uint8

const (
	// mover copies the key's current version across the boundary, or set
	// out to and wrote nothing.
	mover role = iota
	// promoter is a mover that did insert the disk copy into RAM.
	promoter
	// writer stores a new version or removes the key (Put, Delete).
	writer
)

// NewTieredKeyed opens the disk tier (replaying its heap file) behind a
// new RAM tier.
func NewTieredKeyed(cfg TieredConfig) (*TieredKeyed, error) {
	if cfg.Disk.Clock == nil {
		cfg.Disk.Clock = cfg.RAM.Clock
	}
	ram, err := NewKeyed(cfg.RAM)
	if err != nil {
		return nil, err
	}
	disk, err := diskstore.Open(cfg.Disk)
	if err != nil {
		return nil, err
	}
	return &TieredKeyed{ram: ram, disk: disk, transit: make(map[string]*transit)}, nil
}

// registerLocked adds a crossing of key to the transit map. suspect
// reports a mark already standing, or set by this very overlap: the caller
// must write nothing. Called with t.mu held.
func (t *TieredKeyed) registerLocked(key string, r role) (f *transit, suspect bool) {
	f = t.transit[key]
	if f == nil {
		f = &transit{}
		t.transit[key] = f
	}
	if f.refs > 0 && (r == writer || f.writers > 0) {
		f.stale = true
	}
	f.refs++
	if r == writer {
		f.writers++
	}
	return f, f.killed || f.stale
}

// enterTransit registers a crossing of key; held is the victim of an
// eviction of the key already in flight.
func (t *TieredKeyed) enterTransit(key string, r role) (f *transit, suspect bool, held *victim) {
	t.mu.Lock()
	f, suspect = t.registerLocked(key, r)
	held = f.victim
	t.mu.Unlock()
	return f, suspect, held
}

// exitTransit completes a crossing and applies the marks that arrived
// while it was in flight, so the Delete or the Put wins. A stale promoter
// removes the RAM copy too: it cannot tell whether the entry it inserted
// was since replaced by the Put's. The removal comes before the crossing
// is deregistered — once the record is gone, the next lookup trusts what
// the tiers hold. v is the victim the crossing published, if it did.
func (t *TieredKeyed) exitTransit(key string, f *transit, r role, v *victim) {
	t.mu.Lock()
	if v != nil && f.victim == v {
		f.victim = nil
	}
	if f.killed || f.stale {
		killed := f.killed
		t.mu.Unlock()
		if killed || r == promoter {
			t.ram.Delete(key)
		}
		t.disk.Delete(key)
		t.mu.Lock()
	}
	f.refs--
	if r == writer {
		f.writers--
	}
	if f.refs == 0 {
		delete(t.transit, key)
	}
	t.mu.Unlock()
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

// demotion is what became of one RAM-tier victim.
type demotion uint8

const (
	demoteDropped demotion = iota // not worth or not safe to keep
	demoteClean                   // the disk tier still held its copy: nothing written
	demoteWritten                 // written to the disk tier
)

// evict moves key's entry out of the RAM tier. A victim whose copy the
// disk tier still holds is clean: the probe refreshes that copy's LRU
// position and nothing is written. Otherwise the victim is written, unless
// it is a structured payload (Obj cannot be serialized), already past its
// deadline, or its key carries a mark (see transit).
//
// Registering the crossing, unlinking the entry and publishing it as the
// crossing's victim are one critical section. A Put or Delete of the key
// therefore either finished before it — and the entry unlinked is the one
// it left — or overlaps the crossing and marks it; and a lookup that
// misses RAM finds the victim.
func (t *TieredKeyed) evict(key string) demotion {
	var v *victim
	t.mu.Lock()
	f, suspect := t.registerLocked(key, mover)
	ev, ok := t.ram.evictKey(key)
	if ok && !suspect && ev.val.Obj == nil {
		v = &victim{e: ev.val, deadline: ev.deadline}
		f.victim = v
	}
	t.mu.Unlock()
	out := demoteDropped
	switch {
	case v == nil:
	case t.disk.Twin(key, false):
		t.cleanEvictions.Add(1)
		out = demoteClean
	case t.expired(v.deadline):
	case t.writeDisk(key, v.e, v.deadline):
		out = demoteWritten
	}
	t.exitTransit(key, f, mover, v)
	return out
}

// writeDisk stores e in the disk tier, counting it as a demotion.
func (t *TieredKeyed) writeDisk(key string, e KeyedEntry, deadline time.Time) bool {
	ok := t.disk.Put(key, diskstore.Entry{Value: e.Value, Meta: e.Meta, Gen: uint64(e.Gen), Deadline: deadline})
	if ok {
		t.demotions.Add(1)
	}
	return ok
}

// Crossings is the tier-boundary traffic one read caused: whether it was
// served from disk and promoted, and what became of the RAM victims the
// promotion displaced.
type Crossings struct {
	Promoted     bool
	DemoteWrites int
	DemoteCleans int
}

// relieve evicts from the RAM tier, coldest first, until it is within its
// limits, counting into c what became of the victims when a trace asked.
func (t *TieredKeyed) relieve(c *Crossings) {
	for t.ram.overLimits() {
		key, ok := t.ram.coldestKey()
		if !ok {
			return // nothing resident: the pressure is scratch reservations
		}
		out := t.evict(key)
		if c == nil {
			continue
		}
		switch out {
		case demoteWritten:
			c.DemoteWrites++
		case demoteClean:
			c.DemoteCleans++
		}
	}
}

// promote copies a disk hit into RAM; the disk copy stays where it is,
// flagged as twinned. It runs inside the lookup's crossing f and reports
// whether it inserted. Entries the RAM budget could never admit stay
// disk-only — promoting them would bounce straight back out.
//
// The insert happens under the transit lock, and only while the crossing
// is unmarked: a Put of the key either registers after it — and stores over
// the promoted copy — or has marked the crossing, and then what was read
// from disk may be the version it replaced.
func (t *TieredKeyed) promote(key string, f *transit, e diskstore.Entry) bool {
	ke := fromDisk(e)
	if t.ram.refuses(ke) {
		return false
	}
	t.disk.Twin(key, true)
	t.mu.Lock()
	// e.Value was assembled for this read and is shared with nobody else.
	inserted := !f.killed && !f.stale && t.ram.insert(key, ke, e.Deadline, true)
	t.mu.Unlock()
	if inserted {
		t.promotions.Add(1)
	}
	return inserted
}

// fromDisk converts a disk-tier record to the engine's entry shape.
func fromDisk(e diskstore.Entry) KeyedEntry {
	return KeyedEntry{Value: e.Value, Meta: e.Meta, Gen: uint32(e.Gen)}
}

// lapse reports whether a deadline has passed, and by how much.
func (t *TieredKeyed) lapse(deadline time.Time) (age time.Duration, expired bool) {
	if deadline.IsZero() {
		return 0, false
	}
	now := t.ram.clk.Now()
	if now.Before(deadline) {
		return 0, false
	}
	return now.Sub(deadline), true
}

func (t *TieredKeyed) expired(deadline time.Time) bool {
	_, expired := t.lapse(deadline)
	return expired
}

// lookup is the one read path behind Get and GetKeep: RAM first, then an
// eviction in flight, then disk, promoting a disk hit into RAM. Under
// keepLapsed an expired entry misses but stays where it is for a later
// GetStale, so the disk tier is peeked rather than read (a disk Get drops
// what has lapsed). c, when non-nil, receives the crossings the read
// caused.
func (t *TieredKeyed) lookup(key string, mode freshness, c *Crossings) (KeyedEntry, bool) {
	if e, _, ok := t.ram.lookup(key, mode); ok {
		t.hits.Add(1)
		return e, true
	}
	// The disk read and the promotion are one crossing: a Put landing
	// between them would otherwise be overwritten by the older copy.
	f, suspect, held := t.enterTransit(key, mover)
	if suspect || held != nil {
		t.exitTransit(key, f, mover, nil)
		if !suspect && !t.expired(held.deadline) {
			t.hits.Add(1)
			return held.e, true
		}
		t.misses.Add(1)
		return KeyedEntry{}, false
	}
	var e diskstore.Entry
	var ok bool
	if mode == expireLapsed {
		e, ok = t.disk.Get(key)
	} else if e, ok = t.disk.Peek(key); ok {
		ok = !t.expired(e.Deadline)
	}
	if !ok {
		t.exitTransit(key, f, mover, nil)
		t.misses.Add(1)
		return KeyedEntry{}, false
	}
	t.hits.Add(1)
	t.diskHits.Add(1)
	r := mover
	if t.promote(key, f, e) {
		r = promoter
	}
	t.exitTransit(key, f, r, nil)
	if r == promoter {
		if c != nil {
			c.Promoted = true
		}
		t.relieve(c)
	}
	return fromDisk(e), true
}

// Get returns the entry under key from either tier, promoting disk hits
// into RAM.
func (t *TieredKeyed) Get(key string) (KeyedEntry, bool) { return t.lookup(key, expireLapsed, nil) }

// GetKeep behaves like Get but leaves expired entries resident (in
// whichever tier holds them) for a later GetStale.
func (t *TieredKeyed) GetKeep(key string) (KeyedEntry, bool) { return t.lookup(key, keepLapsed, nil) }

// GetStale returns the entry under key even past its TTL, with its age
// (zero while fresh), from whichever tier holds it. Stale reads do not
// promote — the next fresh Get will.
func (t *TieredKeyed) GetStale(key string) (KeyedEntry, time.Duration, bool) {
	if e, age, ok := t.ram.lookup(key, serveLapsed); ok {
		return e, age, true
	}
	f, suspect, held := t.enterTransit(key, mover)
	defer t.exitTransit(key, f, mover, nil)
	switch {
	case suspect:
	case held != nil:
		age, _ := t.lapse(held.deadline)
		return held.e, age, true
	default:
		if e, ok := t.disk.Peek(key); ok {
			age, _ := t.lapse(e.Deadline)
			return fromDisk(e), age, true
		}
	}
	return KeyedEntry{}, 0, false
}

// Put stores entry under key. The RAM tier admits it (possibly demoting
// colder entries to disk); entries its budget could never hold go
// straight to disk. The disk copy of the version being replaced is removed
// first, so the tiers never hold two versions.
func (t *TieredKeyed) Put(key string, entry KeyedEntry, ttl time.Duration) {
	t.puts.Add(1)
	f, _, _ := t.enterTransit(key, writer)
	t.disk.Delete(key)
	if entry.Obj == nil && t.ram.refuses(entry) {
		// Too large for the RAM ledger: admit directly to the disk tier,
		// which copies the value into its page frames before Put returns.
		t.ram.Delete(key)
		var deadline time.Time
		if ttl > 0 {
			deadline = t.ram.clk.Now().Add(ttl)
		}
		t.writeDisk(key, entry, deadline)
	} else {
		t.ram.store(key, entry, ttl)
	}
	t.exitTransit(key, f, writer, nil)
	// Victims leave after the crossing: the entry just stored may be one
	// of them (GDSF), and must not find its own Put in flight.
	t.relieve(nil)
}

// Delete removes key from both tiers. Like Put it is a crossing of its
// own, so an eviction or promotion of the key in flight cannot put back
// what it removed.
func (t *TieredKeyed) Delete(key string) bool {
	f, _, _ := t.enterTransit(key, writer)
	r := t.ram.Delete(key)
	d := t.disk.Delete(key)
	t.exitTransit(key, f, writer, nil)
	if r || d {
		t.drops.Add(1)
		return true
	}
	return false
}

// DeleteFunc removes every key matching pred from both tiers, returning
// how many distinct keys it dropped.
func (t *TieredKeyed) DeleteFunc(pred func(key string) bool) int {
	t.killTransits(pred)
	inRAM := make(map[string]struct{})
	n := t.ram.DeleteFunc(func(key string) bool {
		if !pred(key) {
			return false
		}
		inRAM[key] = struct{}{}
		return true
	})
	twins := 0
	n += t.disk.DeleteFunc(func(key string) bool {
		if !pred(key) {
			return false
		}
		if _, both := inRAM[key]; both {
			twins++
		}
		return true
	})
	n -= twins
	t.drops.Add(int64(n))
	return n
}

// ReserveScratch charges transient bytes against the RAM ledger;
// resulting evictions demote as usual.
func (t *TieredKeyed) ReserveScratch(n int64) {
	if t.ram.reserveScratch(n) {
		t.relieve(nil)
	}
}

// Flush empties both tiers (and truncates the heap file).
func (t *TieredKeyed) Flush() {
	t.killTransits(func(string) bool { return true })
	t.drops.Add(int64(t.Len()))
	t.ram.Flush()
	t.disk.Flush()
}

// Len returns the distinct entries resident across both tiers.
func (t *TieredKeyed) Len() int {
	ds := t.disk.Stats()
	return t.ram.Len() + ds.Resident - ds.Twinned
}

// Bytes returns resident bytes across both tiers, an entry held by both
// counting once (as the RAM tier charges it).
func (t *TieredKeyed) Bytes() int64 { return t.Stats().Bytes }

// BudgetUsed returns the RAM ledger reservation plus disk-resident
// bytes: what each tier charges against its own budget, a twinned entry
// in both.
func (t *TieredKeyed) BudgetUsed() int64 { return t.ram.BudgetUsed() + t.disk.Bytes() }

// Stats returns the aggregate two-tier view: request-level counters
// (one Get is one hit or one miss, wherever it lands), occupancy with an
// entry resident in both tiers counted once, and eviction figures from
// the disk tier — the only place entries finally leave the store under
// pressure.
func (t *TieredKeyed) Stats() KeyedStats {
	rs := t.ram.Stats()
	ds := t.disk.Stats()
	return KeyedStats{
		Shards:       rs.Shards,
		Resident:     rs.Resident + ds.Resident - ds.Twinned,
		Bytes:        rs.Bytes + ds.Bytes - ds.TwinnedBytes,
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
		RAM:            t.ram.Stats(),
		Disk:           t.disk.Stats(),
		DiskHits:       t.diskHits.Load(),
		Promotions:     t.promotions.Load(),
		Demotions:      t.demotions.Load(),
		CleanEvictions: t.cleanEvictions.Load(),
	}
}

// Close drains the RAM tier through demotion, then flushes dirty pages
// and closes the heap file. The drain is what makes restarts warm: the
// entries that never left RAM — the hottest — are exactly the ones the
// disk tier has not seen. It writes only those; an entry the disk tier
// already holds is a clean eviction here as anywhere. Entries the disk
// tier refuses (oversized, structured Obj payloads) are dropped as a plain
// eviction would have. Idempotent; a second Close finds an empty RAM tier.
func (t *TieredKeyed) Close() error {
	t.ram.Range(func(key string, _ KeyedEntry, _ time.Time) bool {
		t.evict(key)
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
	reg.Gauge(prefix + ".disk_clean_evictions").Set(ts.CleanEvictions)
	reg.Gauge(prefix + ".disk_twinned").Set(int64(ts.Disk.Twinned))
	reg.Gauge(prefix + ".disk_resident").Set(int64(ts.Disk.Resident))
	reg.Gauge(prefix + ".disk_bytes").Set(ts.Disk.Bytes)
	reg.Gauge(prefix + ".disk_file_bytes").Set(ts.Disk.FileBytes)
	reg.Gauge(prefix + ".disk_byte_budget").Set(ts.Disk.ByteBudget)
	reg.Gauge(prefix + ".disk_recovered_entries").Set(ts.Disk.RecoveredEntries)
	reg.Gauge(prefix + ".disk_checksum_discards").Set(ts.Disk.ChecksumDiscards)
}
