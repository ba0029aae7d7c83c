package fragstore

import (
	"slices"
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
	// the aggregate Hits): Promotions + ServedInPlace.
	DiskHits int64 `json:"disk_hits"`
	// Promotions counts disk hits copied back into RAM; ServedInPlace
	// counts those served from the disk tier's page and left there — a
	// first touch while RAM is full, or an entry RAM could never hold.
	// Demotions counts RAM evictions written to disk; CleanEvictions counts
	// those that wrote nothing because the disk tier still held the victim's
	// copy.
	Promotions     int64 `json:"promotions"`
	ServedInPlace  int64 `json:"served_in_place"`
	Demotions      int64 `json:"demotions"`
	CleanEvictions int64 `json:"clean_evictions"`
}

// TieredKeyed is a two-tier Keyed store: a KeyedStore in RAM fronting a
// diskstore heap file. The tiers are inclusive and eviction from RAM is
// clean wherever it can be. The global byte ledger of the RAM tier is the
// admission gate between them, and an entry has to earn its way through
// it: a Get that misses RAM but hits disk is served from the disk tier's
// pooled page, and *promoted* — copied into RAM, the disk copy left where
// it is — only when RAM has room to spare or the key was also read from
// disk recently enough that it would still be resident had that read
// admitted it (see promote). An entry read once displaces nothing, so one
// pass over the whole store promotes only what it finds already on
// probation, where admit-on-read would replace the RAM tier with the tail of
// the pass. Eviction under ledger pressure *demotes* the victim, which costs
// a disk write only when the disk tier does not already hold it (it never
// did, or its own budget reclaimed the copy). In a read-mostly workload
// every entry is written once, while the store warms, and steady-state
// eviction writes nothing; the price is that up to one RAM budget of bytes
// is resident in both tiers. Entries too large for the RAM budget bypass it
// and are served from disk.
//
// The invariant that makes trusting the disk copy safe: whenever both
// tiers hold a key, the two copies are identical (value, meta, generation,
// deadline). Put deletes the disk copy before it stores a new version;
// Delete, DeleteFunc, Flush and fabric invalidations apply to both tiers;
// and every operation that moves a key's only current copy or replaces it
// registers in the transit table while it runs, so that a Delete or a Put
// overlapping a demotion of the same key wins — see transit. Reads register
// nothing: they consult the table, and a promotion is one critical section
// that checks no write has begun since its read did.
//
// On construction the disk tier replays its heap file, so a restarted
// proxy reopening the same path serves warm from disk immediately.
type TieredKeyed struct {
	ram  *KeyedStore // also the store's clock (ram.clk)
	disk *diskstore.Store

	mu      sync.Mutex
	transit map[string]*transit
	free    *transit // unused records, chained through next
	// bulks holds the predicates of the DeleteFuncs and Flushes in flight:
	// a crossing that registers while one matches its key is born killed.
	bulks []*bulk
	// writes counts the Puts, Deletes and bulk invalidations that have
	// registered: a promotion inserts what it read only if the count has
	// not moved since before the read.
	writes uint64

	hits, misses, puts        atomic.Int64
	drops                     atomic.Int64
	promotions, inPlace       atomic.Int64
	demotions, cleanEvictions atomic.Int64
}

// transit tracks one key while crossings — operations that change which
// tier holds it, or what the tiers hold for it — are in flight: an eviction
// from RAM, a Put, a Delete. An eviction copies the version the store
// already holds; a Put or a Delete overlapping one could otherwise be
// undone by it, the older version landing on disk after the newer one was
// stored or the key removed. So a Put or Delete overlapping any other
// crossing marks the record stale, a DeleteFunc or Flush marks the records
// it matches killed — those in flight when it begins and those that
// register while it runs — and while a mark stands nobody trusts what the
// tiers hold for the key: lookups miss, victims are dropped instead of
// demoted, and whoever finishes a crossing removes the key — from the disk
// tier (whose copy may be the older version) when stale, from both when
// killed. Records are recycled through TieredKeyed.free, so a crossing
// allocates nothing.
type transit struct {
	refs    int // crossings in flight
	writers int // Puts and Deletes among them
	killed  bool
	stale   bool
	// victim is the entry an eviction is moving to disk, valid while held.
	// It has left the RAM tier and may not be readable from the disk tier
	// yet, so lookups are served from here.
	held   bool
	victim victim
	next   *transit
}

type victim struct {
	e        KeyedEntry
	deadline time.Time
}

// bulk is one DeleteFunc or Flush in flight.
type bulk struct{ pred func(key string) bool }

// role is what a crossing does to its key.
type role uint8

const (
	// mover copies the key's current version across the boundary, or set
	// out to and wrote nothing (an eviction).
	mover role = iota
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

// registerLocked adds a crossing of key to the transit table. suspect
// reports a mark already standing, or set by this very overlap: the caller
// must write nothing. Called with t.mu held.
func (t *TieredKeyed) registerLocked(key string, r role) (f *transit, suspect bool) {
	f = t.transit[key]
	if f == nil {
		if f = t.free; f != nil {
			t.free, f.next = f.next, nil
		} else {
			f = &transit{}
		}
		f.killed = t.doomedLocked(key)
		t.transit[key] = f
	}
	if f.refs > 0 && (r == writer || f.writers > 0) {
		f.stale = true
	}
	f.refs++
	if r == writer {
		f.writers++
		t.writes++
	}
	return f, f.killed || f.stale
}

// doomedLocked reports whether a bulk invalidation in flight matches key.
// Called with t.mu held: the table must answer for the predicate atomically
// with the registration, and Keyed.DeleteFunc's contract already binds pred
// to be fast and never to re-enter the store, as under the RAM tier's shard
// locks.
func (t *TieredKeyed) doomedLocked(key string) bool {
	for _, b := range t.bulks {
		if b.pred(key) {
			return true
		}
	}
	return false
}

// enterTransit registers a crossing of key.
func (t *TieredKeyed) enterTransit(key string, r role) (f *transit, suspect bool) {
	t.mu.Lock()
	f, suspect = t.registerLocked(key, r)
	t.mu.Unlock()
	return f, suspect
}

// exitTransit completes a crossing and applies the marks that arrived
// while it was in flight, so the Delete or the Put wins. The removal comes
// before the crossing is deregistered — once the record is gone, the next
// lookup trusts what the tiers hold. published says the crossing is the
// eviction whose victim the record holds.
func (t *TieredKeyed) exitTransit(key string, f *transit, r role, published bool) {
	t.mu.Lock()
	if published {
		f.held, f.victim = false, victim{}
	}
	if f.killed || f.stale {
		killed := f.killed
		t.mu.Unlock()
		if killed {
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
		*f = transit{next: t.free}
		t.free = f
	}
	t.mu.Unlock()
}

// beginBulk makes a bulk invalidation a crossing of its own: pred marks the
// crossings in flight that it matches and stands in the table, where
// registerLocked consults it, until endBulk. An eviction that registers
// after the marking — its victim already out of RAM, and so past both
// sweeps — is thereby killed like one that registered before.
func (t *TieredKeyed) beginBulk(pred func(key string) bool) *bulk {
	b := &bulk{pred: pred}
	t.mu.Lock()
	t.writes++
	t.bulks = append(t.bulks, b)
	for key, f := range t.transit {
		//dpclint:ignore lockscope pred is contract-bound to be fast and never re-enter the store (see doomedLocked), and the table only ever holds the few keys mid-crossing
		if pred(key) {
			f.killed = true
		}
	}
	t.mu.Unlock()
	return b
}

func (t *TieredKeyed) endBulk(b *bulk) {
	t.mu.Lock()
	if i := slices.Index(t.bulks, b); i >= 0 {
		t.bulks = slices.Delete(t.bulks, i, i+1)
	}
	t.mu.Unlock()
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
// position, clears its twin flag and nothing is written. Otherwise the
// victim is written, unless it is a structured payload (Obj cannot be
// serialized), already past its deadline, or its key carries a mark (see
// transit).
//
// Registering the crossing, unlinking the entry and publishing it as the
// crossing's victim are one critical section. A Put or Delete of the key
// therefore either finished before it — and the entry unlinked is the one
// it left — or overlaps the crossing and marks it; a lookup that misses
// RAM finds the victim; and no promotion of the key can land before the
// crossing ends, so the twin flag cleared here is still the truth then.
func (t *TieredKeyed) evict(key string) demotion {
	t.mu.Lock()
	f, suspect := t.registerLocked(key, mover)
	ev, ok := t.ram.evictKey(key)
	published := ok && !suspect && ev.val.Obj == nil
	if published {
		f.held, f.victim = true, victim{e: ev.val, deadline: ev.deadline}
	}
	t.mu.Unlock()
	out := demoteDropped
	switch {
	case !published:
	case t.disk.Twin(key, false):
		t.cleanEvictions.Add(1)
		out = demoteClean
	case t.expired(ev.deadline):
	case t.writeDisk(key, ev.val, ev.deadline):
		out = demoteWritten
	}
	t.exitTransit(key, f, mover, published)
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
// served from disk, and then whether it was promoted or served in place,
// and what became of the RAM victims a promotion displaced.
type Crossings struct {
	Promoted      bool
	ServedInPlace bool
	DemoteWrites  int
	DemoteCleans  int
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

// consult reads what the transit table knows of a key that missed RAM,
// and registers nothing. suspect: a mark stands, a Put or Delete of the key
// is in flight, or a bulk invalidation in flight matches it — the tiers are
// not to be trusted and the lookup misses. held: an eviction has the entry
// in flight, and v is that entry. writes is the count a promotion of what
// the lookup goes on to read must find unchanged.
func (t *TieredKeyed) consult(key string) (suspect, held bool, v victim, writes uint64) {
	t.mu.Lock()
	writes = t.writes
	if f := t.transit[key]; f != nil {
		suspect = f.killed || f.stale || f.writers > 0
		if held = f.held && !suspect; held {
			v = f.victim
		}
	} else if len(t.bulks) > 0 {
		suspect = t.doomedLocked(key)
	}
	t.mu.Unlock()
	return suspect, held, v, writes
}

// promote copies a disk hit into RAM, if the entry has earned it, and
// reports whether it did; the disk copy stays where it is, flagged as
// twinned. An entry earns its RAM when admitting it displaces nobody — the
// tier has room — or when again says the disk tier saw it read within the
// last RAM-tier's-worth of its reads: had the earlier read admitted it, it
// would still be resident, so this read is the hit that admission would
// have bought. A first touch buys nothing and is served in place. Entries
// the RAM budget could never admit stay disk-only — promoting them would
// bounce straight back out.
//
// The check, the insert and the twin flag are one critical section of the
// transit lock, and it writes only if no Put, Delete or bulk invalidation
// (of any key: writes is one counter) has registered since before the disk
// read and no crossing of the key is in flight. A Put of the key therefore
// either registers after it — and stores over the promoted copy — or has
// moved the counter, and then what was read from disk may be the version it
// replaced; and an eviction of the key cannot interleave, so the flag and
// the RAM tier's holding the key change together.
func (t *TieredKeyed) promote(key string, e KeyedEntry, deadline time.Time, again bool, writes uint64) bool {
	if t.ram.refuses(e) || !(again || t.ram.hasRoom(e)) {
		return false
	}
	t.mu.Lock()
	// e.Value was assembled for this read and is shared with nobody else.
	ok := t.writes == writes && t.transit[key] == nil && t.ram.insert(key, e, deadline, true)
	if ok {
		t.disk.Twin(key, true)
	}
	t.mu.Unlock()
	return ok
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
// eviction in flight, then disk — one hold of the transit lock and, on a
// pool hit, one of the disk latch — promoting a disk hit that has earned
// it. Under keepLapsed an expired entry misses but stays where it is for a
// later GetStale. c, when non-nil, receives the crossings the read caused.
func (t *TieredKeyed) lookup(key string, mode freshness, c *Crossings) (KeyedEntry, bool) {
	if e, _, ok := t.ram.lookup(key, mode); ok {
		t.hits.Add(1)
		return e, true
	}
	suspect, held, v, writes := t.consult(key)
	if held && !t.expired(v.deadline) {
		t.hits.Add(1)
		return v.e, true
	}
	var e diskstore.Entry
	var again, ok bool
	if !suspect && !held {
		e, again, ok = t.disk.Read(key, uint64(t.ram.Len()), mode == keepLapsed)
		ok = ok && !(mode == keepLapsed && t.expired(e.Deadline))
	}
	if !ok {
		t.misses.Add(1)
		return KeyedEntry{}, false
	}
	t.hits.Add(1)
	ke := fromDisk(e)
	if !t.promote(key, ke, e.Deadline, again, writes) {
		t.inPlace.Add(1)
		if c != nil {
			c.ServedInPlace = true
		}
		return ke, true
	}
	t.promotions.Add(1)
	if c != nil {
		c.Promoted = true
	}
	t.relieve(c)
	return ke, true
}

// Get returns the entry under key from either tier, promoting a disk hit
// into RAM when it has earned it (see promote).
func (t *TieredKeyed) Get(key string) (KeyedEntry, bool) { return t.lookup(key, expireLapsed, nil) }

// GetKeep behaves like Get but leaves expired entries resident (in
// whichever tier holds them) for a later GetStale.
func (t *TieredKeyed) GetKeep(key string) (KeyedEntry, bool) { return t.lookup(key, keepLapsed, nil) }

// GetStale returns the entry under key even past its TTL, with its age
// (zero while fresh), from whichever tier holds it. Stale reads neither
// promote nor count as a touch towards promotion — a fresh Get does.
func (t *TieredKeyed) GetStale(key string) (KeyedEntry, time.Duration, bool) {
	if e, age, ok := t.ram.lookup(key, serveLapsed); ok {
		return e, age, true
	}
	suspect, held, v, _ := t.consult(key)
	switch {
	case suspect:
	case held:
		age, _ := t.lapse(v.deadline)
		return v.e, age, true
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
	f, _ := t.enterTransit(key, writer)
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
	t.exitTransit(key, f, writer, false)
	// Victims leave after the crossing: the entry just stored may be one
	// of them (GDSF), and must not find its own Put in flight.
	t.relieve(nil)
}

// Delete removes key from both tiers. Like Put it is a crossing of its
// own, so an eviction or promotion of the key in flight cannot put back
// what it removed.
func (t *TieredKeyed) Delete(key string) bool {
	f, _ := t.enterTransit(key, writer)
	r := t.ram.Delete(key)
	d := t.disk.Delete(key)
	t.exitTransit(key, f, writer, false)
	if r || d {
		t.drops.Add(1)
		return true
	}
	return false
}

// DeleteFunc removes every key matching pred from both tiers, returning
// how many distinct keys it dropped. Like Keyed.DeleteFunc's, pred must be
// fast and must not call back into the store. The sweep is a crossing (see
// beginBulk): whatever matches pred and crosses the boundary while it runs
// is removed too.
func (t *TieredKeyed) DeleteFunc(pred func(key string) bool) int {
	b := t.beginBulk(pred)
	defer t.endBulk(b)
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
	b := t.beginBulk(func(string) bool { return true })
	defer t.endBulk(b)
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
	promotions, inPlace := t.promotions.Load(), t.inPlace.Load()
	return TieredStats{
		RAM:            t.ram.Stats(),
		Disk:           t.disk.Stats(),
		DiskHits:       promotions + inPlace,
		Promotions:     promotions,
		ServedInPlace:  inPlace,
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
	reg.Gauge(prefix + ".disk_served_in_place").Set(ts.ServedInPlace)
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
