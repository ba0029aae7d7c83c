package fragstore

import (
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/diskstore"
	"dpcache/internal/metrics"
)

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
	// DiskHits counts reads served from the disk tier (also counted in
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

// TieredKeyed is the tiered backend's engine: a KeyedStore in RAM fronting
// a diskstore heap file, reached only through its fragment view (see
// fragmentView). Its entries are fragments: a value and a generation, which
// are all that cross the boundary, and no expiry. The tiers are inclusive
// and eviction from RAM is clean wherever it can be. The global byte ledger
// of the RAM tier is the admission gate between them, and an entry has to
// earn its way through it: a read that misses RAM but hits disk is served
// from the disk tier's pooled page, and *promoted* — copied into RAM, the
// disk copy left where it is — only when RAM has room to spare or the key
// was also read from disk within the last quarter-RAM-tier's-worth of disk
// reads (see admits and windowShare). An entry read once displaces
// nothing, so one pass over the whole store promotes only what it finds
// already on probation, where admit-on-read would replace the RAM tier with
// the tail of the pass. Eviction under ledger pressure *demotes* the
// victim, which costs a disk write only when the disk tier does not already
// hold it (it never did, or its own budget reclaimed the copy). In a
// read-mostly workload every entry is written once, while the store warms,
// and steady-state eviction writes nothing; the price is that up to one RAM
// budget of bytes is resident in both tiers. Entries too large for the RAM
// budget bypass it and are served from disk.
//
// The invariant that makes trusting the disk copy safe: whenever both tiers
// hold a key, the two copies are identical (value and generation). A write
// deletes the disk copy before it stores a new version; Delete and Flush
// apply to both tiers; and every operation that moves a key's only current
// copy or replaces it registers in the transit table while it runs, so that
// a Delete or a write overlapping a demotion of the same key wins — see
// transit. Reads register nothing: they consult the table, and a promotion
// is one critical section that checks no write has begun since its read
// did.
//
// On construction the disk tier replays its heap file, so a restarted proxy
// reopening the same path serves warm from disk immediately.
type TieredKeyed struct {
	ram  *KeyedStore
	disk *diskstore.Store

	mu      sync.Mutex
	transit map[string]*transit
	free    *transit // unused records, chained through next
	// flushes counts the Flushes in flight: a crossing that registers while
	// one runs is born killed.
	flushes int
	// writes counts the writes, Deletes and Flushes that have registered: a
	// promotion inserts what it read only if the count has not moved since
	// before the read.
	writes uint64

	hits, misses, puts        atomic.Int64
	drops                     atomic.Int64
	promotions, inPlace       atomic.Int64
	demotions, cleanEvictions atomic.Int64
}

// transit tracks one key while crossings — operations that change which
// tier holds it, or what the tiers hold for it — are in flight: an eviction
// from RAM, a write, a Delete. An eviction copies the version the store
// already holds; a write or a Delete overlapping one could otherwise be
// undone by it, the older version landing on disk after the newer one was
// stored or the key removed. So a write or Delete overlapping any other
// crossing marks the record stale, a Flush marks every record killed —
// those in flight when it begins and those that register while it runs —
// and while a mark stands nobody trusts what the tiers hold for the key:
// reads miss, victims are dropped instead of demoted, and whoever finishes
// a crossing removes the key — from the disk tier (whose copy may be the
// older version) when stale, from both when killed. Records are recycled
// through TieredKeyed.free, so a crossing allocates nothing.
type transit struct {
	refs    int // crossings in flight
	writers int // writes and Deletes among them
	killed  bool
	stale   bool
	// victim is the entry an eviction is moving to disk, valid while held.
	// It has left the RAM tier and may not be readable from the disk tier
	// yet, so reads are served from here.
	held   bool
	victim KeyedEntry
	next   *transit
}

// role is what a crossing does to its key.
type role uint8

const (
	// mover copies the key's current version across the boundary, or set
	// out to and wrote nothing (an eviction).
	mover role = iota
	// writer stores a new version or removes the key (put, Delete).
	writer
)

// NewTieredKeyed opens the disk tier (replaying its heap file) behind a
// new RAM tier.
func NewTieredKeyed(cfg TieredConfig) (*TieredKeyed, error) {
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
		f.killed = t.flushes > 0
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

// enterTransit registers a crossing of key.
func (t *TieredKeyed) enterTransit(key string, r role) (f *transit, suspect bool) {
	t.mu.Lock()
	f, suspect = t.registerLocked(key, r)
	t.mu.Unlock()
	return f, suspect
}

// exitTransit completes a crossing and applies the marks that arrived
// while it was in flight, so the Delete or the write wins. The removal
// comes before the crossing is deregistered — once the record is gone, the
// next read trusts what the tiers hold. published says the crossing is the
// eviction whose victim the record holds.
func (t *TieredKeyed) exitTransit(key string, f *transit, r role, published bool) {
	t.mu.Lock()
	if published {
		f.held, f.victim = false, KeyedEntry{}
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

// beginFlush makes a Flush a crossing of its own: it marks every crossing
// in flight killed and stands counted in the table, where registerLocked
// consults it, until endFlush. An eviction that registers after the
// marking — its victim already out of RAM, and so past both tiers' flushes
// — is thereby killed like one that registered before.
func (t *TieredKeyed) beginFlush() {
	t.mu.Lock()
	t.writes++
	t.flushes++
	for _, f := range t.transit {
		f.killed = true
	}
	t.mu.Unlock()
}

func (t *TieredKeyed) endFlush() {
	t.mu.Lock()
	t.flushes--
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
// victim is written, unless its key carries a mark (see transit).
//
// Registering the crossing, unlinking the entry and publishing it as the
// crossing's victim are one critical section. A write or Delete of the key
// therefore either finished before it — and the entry unlinked is the one
// it left — or overlaps the crossing and marks it; a read that misses RAM
// finds the victim; and no promotion of the key can land before the
// crossing ends, so the twin flag cleared here is still the truth then.
func (t *TieredKeyed) evict(key string) demotion {
	t.mu.Lock()
	f, suspect := t.registerLocked(key, mover)
	ev, ok := t.ram.evictKey(key)
	published := ok && !suspect
	if published {
		f.held, f.victim = true, ev.val
	}
	t.mu.Unlock()
	out := demoteDropped
	switch {
	case !published:
	case t.disk.Twin(key, false):
		t.cleanEvictions.Add(1)
		out = demoteClean
	case t.writeDisk(key, ev.val):
		out = demoteWritten
	}
	t.exitTransit(key, f, mover, published)
	return out
}

// writeDisk stores e in the disk tier, counting it as a demotion.
func (t *TieredKeyed) writeDisk(key string, e KeyedEntry) bool {
	ok := t.disk.Put(key, diskstore.Entry{Value: e.Value, Gen: uint64(e.Gen)})
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
// limits, counting into c, when non-nil, what became of the victims.
func (t *TieredKeyed) relieve(c *Crossings) {
	for t.ram.overLimits() {
		key, ok := t.ram.coldestKey()
		if !ok {
			return
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
// and registers nothing. suspect: a mark stands, a write or Delete of the
// key is in flight, or a Flush is — the tiers are not to be trusted and the
// read misses. held: an eviction has the entry in flight, and v is that
// entry. writes is the count a promotion of what the read goes on to read
// must find unchanged.
func (t *TieredKeyed) consult(key string) (suspect, held bool, v KeyedEntry, writes uint64) {
	t.mu.Lock()
	writes = t.writes
	if f := t.transit[key]; f != nil {
		suspect = f.killed || f.stale || f.writers > 0
		if held = f.held && !suspect; held {
			v = f.victim
		}
	} else {
		suspect = t.flushes > 0
	}
	t.mu.Unlock()
	return suspect, held, v, writes
}

// windowShare sets the promotion window: a disk hit is a second touch, and
// earns RAM, when the disk tier saw the same key read within its last
// ⌈n/windowShare⌉ reads, n being the RAM tier's entry count. The narrower
// the window, the fewer keys read twice by chance are promoted over hotter
// ones, and the fewer promotions each cost a RAM eviction; but a hot set
// that moves is admitted more slowly. A quarter is the narrowest share that
// keeps both of TestTieredHotSetShift's gates (12 000 one-KiB keys, RAM for
// an eighth, Zipf(1)): a steady RAM hit ratio of at least 0.766, what a
// whole tier's window reads in TestTieredScanResistance, and a 10 000-read
// bucket back at 0.76 within 90 000 reads of every rank moving half the key
// space. The sweep, with the keys one scan over the whole store displaces
// from RAM (TestTieredScanResistance):
//
//	window   steady   recovered after   scan displaced
//	1        0.760     40 000 reads     209
//	1/2      0.768     40 000           73
//	1/4      0.773     70 000           28
//	1/8      0.767    130 000           11
//	1/16     0.732    not in 200 000    4
//	1/64     0.660    not in 200 000    1
//
// Narrower windows suit frag_spill, whose disk reads come in runs of one
// page's fragments, but forget the hot set of keys drawn independently
// (ROADMAP.md, "Tried and left out").
const windowShare = 4

// window is the promotion window handed to the disk tier's ReadInto.
func (t *TieredKeyed) window() uint64 {
	return uint64(t.ram.Len()+windowShare-1) / windowShare
}

// admits is promotion's admission test, asked of a disk hit of size bytes
// before its value is copied: only a hit that will be promoted needs a
// slice of its own. An entry earns its RAM when admitting it displaces
// nobody — the tier has room — or when again says the disk tier saw it read
// within the last quarter-RAM-tier's-worth of its reads (see windowShare):
// read twice that close together, it is hotter than the entries its
// promotion displaces. A first touch buys nothing and is served in place.
// Entries the RAM budget could never admit stay disk-only — promoting them
// would bounce straight back out. Atomic loads only: the disk tier asks it
// under its latch.
func (t *TieredKeyed) admits(again bool, size int64) bool {
	return !t.ram.refuses(size) && (again || t.ram.hasRoom(size))
}

// promote copies a disk hit that admits let in into RAM and reports whether
// it did; the disk copy stays where it is, flagged as twinned. e.Value was
// read into a slice of its own, which the RAM tier takes over.
//
// The insert and the twin flag are one critical section of the transit
// lock, and it writes only if no write, Delete or Flush (of any key: writes
// is one counter) has registered since before the disk read and no crossing
// of the key is in flight. A write of the key therefore either registers
// after it — and stores over the promoted copy — or has moved the
// counter, and then what was read from disk may be the version it replaced;
// and an eviction of the key cannot interleave, so the flag and the RAM
// tier's holding the key change together.
func (t *TieredKeyed) promote(key string, e KeyedEntry, writes uint64) bool {
	t.mu.Lock()
	ok := t.writes == writes && t.transit[key] == nil && t.ram.insert(key, e, time.Time{}, true)
	if ok {
		t.disk.Twin(key, true)
	}
	t.mu.Unlock()
	return ok
}

// fromDisk converts a disk-tier record to the engine's entry shape.
func fromDisk(e diskstore.Entry) KeyedEntry {
	return KeyedEntry{Value: e.Value, Gen: uint32(e.Gen)}
}

// read is the one read path, the fragment view's: RAM first, then an
// eviction in flight, then disk — one hold of the transit lock and, on a
// pool hit, one of the disk latch — promoting a disk hit that has earned
// it. s, when non-nil, is the reader's scratch: a disk hit served in place
// is copied into it, not into a slice of its own, and its bytes are valid
// until the next read through s. It also reports the crossings the read
// caused.
func (t *TieredKeyed) read(key string, s *Scratch) (KeyedEntry, bool, Crossings) {
	var c Crossings
	if e, ok := t.ram.Get(key); ok {
		t.hits.Add(1)
		return e, true, c
	}
	suspect, held, v, writes := t.consult(key)
	if held {
		t.hits.Add(1)
		return v, true, c
	}
	var e diskstore.Entry
	var ok, admit bool
	if !suspect {
		e, _, ok = t.disk.ReadInto(key, t.window(), func(again bool, n int) []byte {
			// The admission test runs before the copy: what it lets in
			// needs a slice of its own, and only that.
			if admit = t.admits(again, int64(n)); admit || s == nil || n > maxScratch {
				return make([]byte, 0, n)
			}
			return s.grow(n)
		})
	}
	if !ok {
		t.misses.Add(1)
		return KeyedEntry{}, false, c
	}
	t.hits.Add(1)
	ke := fromDisk(e)
	if !admit || !t.promote(key, ke, writes) {
		t.inPlace.Add(1)
		c.ServedInPlace = true
		return ke, true, c
	}
	t.promotions.Add(1)
	c.Promoted = true
	t.relieve(&c)
	return ke, true, c
}

// put stores entry under key. The RAM tier admits it (possibly demoting
// colder entries to disk); entries its budget could never hold go
// straight to disk. The disk copy of the version being replaced is removed
// first, so the tiers never hold two versions.
func (t *TieredKeyed) put(key string, entry KeyedEntry) {
	t.puts.Add(1)
	f, _ := t.enterTransit(key, writer)
	t.disk.Delete(key)
	if t.ram.refuses(entry.size()) {
		// Too large for the RAM ledger: admit directly to the disk tier,
		// which copies the value into its page frames before put returns.
		t.ram.Delete(key)
		t.writeDisk(key, entry)
	} else {
		t.ram.store(key, entry, 0)
	}
	t.exitTransit(key, f, writer, false)
	// Victims leave after the crossing: the entry just stored may be one
	// of them (GDSF), and must not find its own write in flight.
	t.relieve(nil)
}

// Delete removes key from both tiers. Like put it is a crossing of its
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

// Flush empties both tiers (and truncates the heap file).
func (t *TieredKeyed) Flush() {
	t.beginFlush()
	defer t.endFlush()
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

// Stats returns the aggregate two-tier view: request-level counters
// (one read is one hit or one miss, wherever it lands), occupancy with an
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
// tier refuses (larger than its budget or page format) are dropped as a
// plain eviction would have. Idempotent; a second Close finds an empty RAM
// tier.
func (t *TieredKeyed) Close() error {
	t.ram.Range(func(key string, _ KeyedEntry, _ time.Time) bool {
		t.evict(key)
		return true
	})
	return t.disk.Close()
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
