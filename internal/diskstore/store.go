// Package diskstore is a page-structured heap file behind a pinning
// buffer pool: the disk tier under fragstore's tiered backend.
//
// The store keeps a full in-memory index (key → record location + LRU
// position + byte accounting); the heap file holds the bytes. All disk
// I/O happens outside the store latch: a read whose pages are all pooled
// is one hold of the latch, copy included; one that must load a page
// releases it and goes through buffer-pool frames loaded via a
// publish-on-channel protocol; and writes are
// staged into pinned frames under the latch, then written back from
// private snapshots after it is released (one in-flight write per page,
// so page images land in staging order). Appends fill the open tail page,
// which is written once, by the Put that seals it; every other page a
// Put dirties is written before it returns. Deleting a record rewrites
// its page with the slot zeroed via copy-on-write, so concurrent lock-free
// readers of the old frame are never raced.
//
// The tiered store keeps the tiers inclusive: promoting a record into RAM
// leaves it here, and Twin is the latch-only probe by which a later
// eviction from RAM learns that its victim's copy is still held — in which
// case nothing is written — while, under a byte budget, keeping that
// copy's LRU position as fresh as its twin's use. ReadInto tells it which
// records to promote: each index entry remembers when it was last read, so
// the store can say that a record was read twice within a window of the
// caller's choosing (the tiered store's is a quarter of its RAM tier's
// entry count). Steady-state traffic over a read-mostly set is therefore
// reads and probes; writes are first-time demotions and invalidations.
//
// Crash behavior: a page is committed once it carries a valid checksum on
// disk, and a record is durable once the page it was staged on has been
// written — when the page is sealed, or by a Delete, Flush or Close, which
// write back every dirty page, the open tail included. A crash without
// Close can therefore lose only the records staged on the open tail since
// that page was last written: at most one page. A kill on the tail (an
// overwrite or a budget eviction) waits for the same write, so a record it
// killed may come back, but never over a newer record of its key that was
// written. Replay at Open discards torn or checksum-bad pages wholesale,
// keeps, per key, the highest-sequence fully-present record, kills every
// record that one outranks on the pages it keeps (writing them back before
// Open returns, so deleting the winner cannot bring a loser back), and
// erases the pages it recycles; a tail is only ever placed on a page whose
// erasure has landed, so an unwritten tail cannot bring back records
// deleted before it. Records carry no TTL: a fragment stays valid until it is
// replaced or invalidated. A cache tier tolerates the loss: a lost record
// is a miss, and strict generations make a replayed old record harmless
// (recovered entries remain subject to invalidation). A clean Close flushes
// everything and is exact.
package diskstore

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Config parameterizes Open.
type Config struct {
	// Path is the heap-file path; created on first open, replayed on
	// reopen. Required.
	Path string
	// ByteBudget bounds resident key+value bytes; 0 = unbounded.
	// Over-budget Puts evict least-recently-used entries.
	ByteBudget int64
	// PageBytes is the heap-file page size (0 = DefaultPageBytes).
	// Changing it across restarts invalidates the existing file: every
	// old page fails its checksum at replay and is recycled.
	PageBytes int
	// PoolPages caps resident buffer-pool frames (0 = DefaultPoolPages).
	PoolPages int
}

// Validate checks the static configuration without touching the
// filesystem.
func (c Config) Validate() error {
	if c.Path == "" {
		return errors.New("diskstore: Path required")
	}
	if c.PageBytes != 0 && (c.PageBytes < MinPageBytes || c.PageBytes > MaxPageBytes) {
		return fmt.Errorf("diskstore: PageBytes %d outside [%d, %d]", c.PageBytes, MinPageBytes, MaxPageBytes)
	}
	if c.ByteBudget < 0 {
		return fmt.Errorf("diskstore: negative ByteBudget %d", c.ByteBudget)
	}
	if c.PoolPages < 0 {
		return fmt.Errorf("diskstore: negative PoolPages %d", c.PoolPages)
	}
	return nil
}

// Entry is one stored record: a value and the caller's generation.
type Entry struct {
	Value []byte
	Gen   uint64
}

// Stats is a point-in-time snapshot plus monotonic counters.
type Stats struct {
	Resident   int   `json:"resident"`
	Bytes      int64 `json:"bytes"`
	ByteBudget int64 `json:"byte_budget"`
	PageBytes  int   `json:"page_bytes"`
	Pages      int   `json:"pages"`
	FreePages  int   `json:"free_pages"`
	// FileBytes is the heap file's extent (allocated pages × PageBytes,
	// free ones included); against Bytes it shows fragmentation.
	FileBytes int64 `json:"file_bytes"`
	// Twinned and TwinnedBytes count the resident records (and their
	// charge) that a faster tier also holds a copy of; see Twin.
	Twinned      int   `json:"twinned"`
	TwinnedBytes int64 `json:"twinned_bytes"`

	Puts             int64 `json:"puts"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Deletes          int64 `json:"deletes"`
	Evictions        int64 `json:"evictions"`
	EvictedBytes     int64 `json:"evicted_bytes"`
	RecoveredEntries int64 `json:"recovered_entries"`
	ChecksumDiscards int64 `json:"checksum_discards"`
	PoolHits         int64 `json:"pool_hits"`
	PoolLoads        int64 `json:"pool_loads"`
	PoolEvictions    int64 `json:"pool_evictions"`
	// PageWrites counts pages written to the heap file: a sealed tail,
	// a page a kill rewrote or freed, every dirty page at Delete, Flush
	// and Close, and the pages replay erases.
	PageWrites  int64 `json:"page_writes"`
	WriteErrors int64 `json:"write_errors"`
}

// segLoc addresses one record segment; pgen guards against the page
// being freed and reincarnated between unlock and kill application.
type segLoc struct {
	page, slot int
	pgen       uint64
}

type dentry struct {
	key        string
	prev, next *dentry // LRU ring; see Store.lru
	segs       []segLoc
	seq        uint64
	gen        uint64
	valLen     int
	charge     int64
	twin       bool // a faster tier holds a copy too; see Twin
	// touch is the store's read count (Store.reads) at the record's last
	// read, zero while it has never been read; see ReadInto.
	touch uint64
}

type pageInfo struct {
	gen    uint64
	live   int
	sealed bool
	free   bool
}

// Store is a disk-backed key/value cache tier. Safe for concurrent use.
type Store struct {
	cfg       Config
	file      *os.File
	pageBytes int

	mu         sync.Mutex
	index      map[string]*dentry
	lru        dentry // ring sentinel: lru.next is the most recently used, lru.prev the least
	reads      uint64 // reads served so far: the clock dentry.touch is read against
	bytes      int64
	twinned    int // records flagged twin, and their charge
	twinBytes  int64
	pages      map[int]*pageInfo
	freeList   []int
	nextPage   int
	tail       int // current append page, -1 when none
	seq        uint64
	epoch      uint64
	truncating bool
	closed     bool

	frames map[int]*frame
	// clock is the ring sentinel of the resident frames, in load order
	// (clock.next first); clockLen counts them, and hand is the frame the
	// next sweep looks at first (nil: start from the front).
	clock    frame
	clockLen int
	hand     *frame
	dirty    map[int]*frame
	flushing map[int]bool // pages with a write-back in flight
	writes   sync.WaitGroup
	// freeBufs holds the page buffers of evicted frames, at most PoolPages
	// of them, for pageBufLocked to hand out again; flushScratch is the one
	// page flushDirty snapshots into (nil while a flusher holds it).
	freeBufs     [][]byte
	flushScratch []byte

	puts, hits, misses, deletes   atomic.Int64
	evictions, evictedBytes       atomic.Int64
	recovered, checksumDiscards   atomic.Int64
	poolHits, poolLoads           atomic.Int64
	poolEvictions, writeErrsCount atomic.Int64
	pageWrites                    atomic.Int64
}

// Open opens (creating if absent) the heap file at cfg.Path and replays
// it: checksum-bad or torn pages are discarded and recycled, and the
// highest-sequence complete record per key is re-indexed.
func Open(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PageBytes == 0 {
		cfg.PageBytes = DefaultPageBytes
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = DefaultPoolPages
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open %s: %w", cfg.Path, err)
	}
	s := &Store{
		cfg:       cfg,
		file:      f,
		pageBytes: cfg.PageBytes,
		index:     make(map[string]*dentry),
		pages:     make(map[int]*pageInfo),
		tail:      -1,
		frames:    make(map[int]*frame),
		dirty:     make(map[int]*frame),
		flushing:  make(map[int]bool),
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.clock.prev, s.clock.next = &s.clock, &s.clock
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the heap file sequentially (no pool involvement),
// rebuilding the index, page accounting, and free list.
func (s *Store) replay() error {
	fi, err := s.file.Stat()
	if err != nil {
		return fmt.Errorf("diskstore: stat: %w", err)
	}
	size := fi.Size()
	nPages := int(size / int64(s.pageBytes))
	if size%int64(s.pageBytes) != 0 {
		// Torn trailing page: unreadable as a whole, discard it.
		s.checksumDiscards.Add(1)
		nPages++ // account the partial page so its space is recycled
	}
	type recSeg struct {
		seg segment
		loc segLoc
	}
	type group struct {
		recs []recSeg
	}
	byKey := make(map[string]map[uint64]*group) // key → seq → group
	held := make([]bool, nPages)                // pages holding a record segment
	buf := make([]byte, s.pageBytes)
	for p := 0; p < nPages; p++ {
		s.pages[p] = &pageInfo{sealed: true}
		n, err := s.file.ReadAt(buf, int64(p)*int64(s.pageBytes))
		if n < len(buf) || err != nil || !verifyPage(buf) {
			s.checksumDiscards.Add(1)
			s.pages[p].free = true
			s.freeList = append(s.freeList, p)
			continue
		}
		nSlots := pageSlotCount(buf)
		if nSlots < 0 || pageHeaderLen+slotLen*nSlots > len(buf) {
			s.checksumDiscards.Add(1)
			s.pages[p].free = true
			s.freeList = append(s.freeList, p)
			continue
		}
		for i := 0; i < nSlots; i++ {
			off, length := pageSlot(buf, i)
			if off == 0 {
				continue // dead slot
			}
			seg, ok := parseSegment(buf, off, length)
			if !ok {
				continue
			}
			seg.val = append([]byte(nil), seg.val...) // buf is reused per page
			m := byKey[seg.key]
			if m == nil {
				m = make(map[uint64]*group)
				byKey[seg.key] = m
			}
			g := m[seg.hdr.seq]
			if g == nil {
				g = &group{}
				m[seg.hdr.seq] = g
			}
			g.recs = append(g.recs, recSeg{seg: seg, loc: segLoc{page: p, slot: i}})
			held[p] = true
		}
	}
	s.nextPage = nPages

	// Keep, per key, the highest-seq complete record. Every record it
	// outranks lost: its kill never reached the file.
	var winners []*dentry
	winnerPages := make(map[*dentry][]int)
	var losers []segLoc
	for key, m := range byKey {
		var best *group
		var bestSeq uint64
		for seq, g := range m {
			// New records must outrank every record in the file, also the
			// incomplete ones replay passes over: their surviving segments
			// stay on disk, and a new record of the key under the same
			// sequence would be read back as one of them.
			if seq >= s.seq {
				s.seq = seq + 1
			}
			segs := make([]segment, len(g.recs))
			for i, r := range g.recs {
				segs[i] = r.seg
			}
			if !completeGroup(segs) {
				continue
			}
			if best == nil || seq > bestSeq {
				best, bestSeq = g, seq
			}
		}
		if best == nil {
			continue
		}
		for seq, g := range m {
			if seq < bestSeq {
				for _, r := range g.recs {
					losers = append(losers, r.loc)
				}
			}
		}
		sort.Slice(best.recs, func(i, j int) bool {
			return best.recs[i].seg.hdr.segIdx < best.recs[j].seg.hdr.segIdx
		})
		h0 := best.recs[0].seg.hdr
		locs := make([]segLoc, len(best.recs))
		pagesOf := make([]int, len(best.recs))
		for i, r := range best.recs {
			locs[i] = r.loc
			pagesOf[i] = r.loc.page
		}
		d := &dentry{
			key:    key,
			segs:   locs,
			seq:    bestSeq,
			gen:    h0.gen,
			valLen: h0.totalVal,
			charge: int64(len(key) + h0.totalVal),
		}
		winners = append(winners, d)
		winnerPages[d] = pagesOf
	}
	// LRU order = sequence order (older seq = colder).
	sort.Slice(winners, func(i, j int) bool { return winners[i].seq < winners[j].seq })
	for _, d := range winners {
		s.lruPushFront(d)
		s.index[d.key] = d
		s.bytes += d.charge
		for _, p := range winnerPages[d] {
			s.pages[p].live++
		}
		s.recovered.Add(1)
	}
	// Pages with no surviving records are recycled, and the records they
	// hold erased now: a tail placed on one is not written until it is
	// sealed, and a crash before then would replay them again.
	for p, pi := range s.pages {
		if !pi.free && pi.live == 0 {
			pi.free = true
			s.freeList = append(s.freeList, p)
			if held[p] {
				initPage(buf)
				s.writePage(p, buf)
			}
		}
	}
	sort.Ints(s.freeList)
	// The losers on pages a winner keeps live are killed now, and their
	// pages written back before Open returns: left in the file, a loser
	// would be replayed again once its key's winner is deleted.
	var kills []segLoc
	for _, loc := range losers {
		if !s.pages[loc.page].free {
			kills = append(kills, loc)
		}
	}
	// Enforce a (possibly shrunken) budget on the recovered set.
	for s.cfg.ByteBudget > 0 && s.bytes > s.cfg.ByteBudget && len(s.index) > 0 {
		d := s.lru.prev
		s.removeLocked(d, &kills)
		s.evictions.Add(1)
		s.evictedBytes.Add(d.charge)
	}
	if len(kills) > 0 {
		kills = s.settlePagesLocked(kills)
		// Replay holds no locks and has no readers yet: apply inline.
		s.applyKills(kills)
		s.flushDirty(true)
	}
	return nil
}

// completeGroup reports whether segs form indices 0..n-1 with exactly
// one final segment flagged last and value lengths summing to the total.
func completeGroup(segs []segment) bool {
	if len(segs) == 0 {
		return false
	}
	seen := make(map[int]bool, len(segs))
	total, sum, lastIdx := segs[0].hdr.totalVal, 0, -1
	for _, seg := range segs {
		if seg.hdr.totalVal != total || seen[seg.hdr.segIdx] {
			return false
		}
		seen[seg.hdr.segIdx] = true
		sum += seg.hdr.segVal
		if seg.hdr.flags&recFlagLast != 0 {
			if lastIdx >= 0 {
				return false
			}
			lastIdx = seg.hdr.segIdx
		}
	}
	if lastIdx != len(segs)-1 || sum != total {
		return false
	}
	for i := 0; i < len(segs); i++ {
		if !seen[i] {
			return false
		}
	}
	return true
}

// Put stores (or overwrites) key. It returns false when the entry can
// never fit (over budget on its own, or the key exceeds the page format);
// refused entries count as evictions, mirroring KeyedStore. The record is
// durable once the page it was staged on is written: by the Put that seals
// it, or at the next Delete, Flush or Close.
func (s *Store) Put(key string, e Entry) bool {
	s.puts.Add(1)
	charge := int64(len(key) + len(e.Value))
	if len(key) > 1<<16-1 || int64(len(e.Value)) > 1<<32-1 ||
		(s.cfg.ByteBudget > 0 && charge > s.cfg.ByteBudget) ||
		recHeaderLen+len(key)+minSeg(len(e.Value)) > s.pageBytes-pageHeaderLen-slotLen {
		s.evictions.Add(1)
		s.evictedBytes.Add(charge)
		return false
	}
	var kills []segLoc
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if old := s.index[key]; old != nil {
		s.removeLocked(old, &kills)
	}
	for s.cfg.ByteBudget > 0 && s.bytes+charge > s.cfg.ByteBudget && len(s.index) > 0 {
		victim := s.lru.prev
		s.removeLocked(victim, &kills)
		s.evictions.Add(1)
		s.evictedBytes.Add(victim.charge)
	}
	seq := s.seq
	s.seq++
	segs := s.stageLocked(key, e, seq)
	if segs != nil {
		d := &dentry{key: key, segs: segs, seq: seq, gen: e.Gen, valLen: len(e.Value), charge: charge}
		s.lruPushFront(d)
		s.index[key] = d
		s.bytes += charge
	}
	kills = s.settlePagesLocked(kills)
	s.mu.Unlock()
	s.applyKills(kills)
	// The open tail is written when a later Put seals it, or by Delete,
	// Flush or Close: it stays pinned while dirty, so every read of it is
	// served from its frame. A page this Put sealed is no longer the tail
	// and is written here, once.
	s.flushDirty(false)
	return segs != nil
}

// minSeg is the smallest value chunk a fresh page must accommodate.
func minSeg(valLen int) int {
	if valLen == 0 {
		return 0
	}
	return 1
}

// stageLocked appends the record's segments into tail pages, returning
// their locations (nil only on internal inconsistency; fit was
// pre-checked by Put).
func (s *Store) stageLocked(key string, e Entry, seq uint64) []segLoc {
	remaining := e.Value
	first := true
	var segs []segLoc
	for first || len(remaining) > 0 {
		if s.tail < 0 {
			s.allocTailLocked()
		}
		f := s.frames[s.tail]
		pi := s.pages[s.tail]
		nSlots := pageSlotCount(f.data)
		dirTop := pageHeaderLen + slotLen*nSlots
		overhead := recHeaderLen + len(key)
		avail := pageDataLo(f.data) - dirTop - slotLen - overhead
		if avail < 0 || (len(remaining) > 0 && avail == 0) {
			s.sealTailLocked()
			continue
		}
		take := len(remaining)
		if take > avail {
			take = avail
		}
		segLen := overhead + take
		off := pageDataLo(f.data) - segLen
		h := recHeader{
			seq: seq, gen: e.Gen, keyLen: len(key),
			segIdx: len(segs), segVal: take, totalVal: len(e.Value),
		}
		if take == len(remaining) {
			h.flags |= recFlagLast
		}
		putRecHeader(f.data[off:], h)
		p := off + recHeaderLen
		copy(f.data[p:], key)
		p += len(key)
		copy(f.data[p:], remaining[:take])
		setPageSlot(f.data, nSlots, off, segLen)
		setPageSlotCount(f.data, nSlots+1)
		setPageDataLo(f.data, off)
		s.markDirtyLocked(f)
		pi.live++
		segs = append(segs, segLoc{page: s.tail, slot: nSlots, pgen: pi.gen})
		remaining = remaining[take:]
		first = false
	}
	return segs
}

// Get returns the entry for key in a slice of its own.
func (s *Store) Get(key string) (Entry, bool) {
	e, _, ok := s.read(key, true, 0, nil)
	return e, ok
}

// Peek is Get without the touch: it leaves the record's touch stamp and
// the store's read count alone, so what it reads does not count towards a
// later ReadInto's again — a look, not a use, as the tiered store's model
// tests need to read the disk tier without steering its promotions.
func (s *Store) Peek(key string) (Entry, bool) {
	e, _, ok := s.read(key, false, 0, nil)
	return e, ok
}

// ReadInto is Get for a caller that keeps a faster tier in front of the
// store and must decide whether this record has earned a place there, and
// that chooses the value's storage once it knows. again reports that the
// record was also read no more than window of the store's reads ago: the
// index entry remembers when it was last read, so the index is the ghost
// list and remembering costs eight bytes a record. The tiered store passes
// a quarter of its RAM tier's entry count: a record read twice within that
// many disk reads is hotter than the RAM entries its promotion displaces,
// and a narrower window lets fewer one-off pairs of reads churn the tier
// (see fragstore's windowShare for the sweep that chose it).
//
// buf is called once per hit, under the latch and before any byte is
// copied, with again and the value's length, and returns the slice the
// value is copied into — of at least that capacity; its contents are
// overwritten. A caller that will keep the value returns a fresh slice; one
// that only passes the bytes on returns a buffer of its own and reuses it
// for its next read. buf must neither block nor call back into the store;
// nil gives the value a slice of its own.
func (s *Store) ReadInto(key string, window uint64, buf func(again bool, n int) []byte) (e Entry, again, ok bool) {
	return s.read(key, true, window, buf)
}

// read is the one read path. When every page of the record is in a loaded
// frame — a pool hit — the whole read is one hold of the latch: index, LRU
// (under a byte budget), touch stamp, frame and copy. Only a read that must
// load a page releases the latch and goes through pin. buf, nil for a fresh
// slice, chooses where the value goes (see ReadInto).
func (s *Store) read(key string, touch bool, window uint64, buf func(again bool, n int) []byte) (e Entry, again, ok bool) {
	s.mu.Lock()
	d := s.index[key]
	if d == nil {
		s.mu.Unlock()
		s.misses.Add(1)
		return Entry{}, false, false
	}
	s.lruToFront(d)
	if touch {
		s.reads++
		again = d.touch != 0 && s.reads-d.touch <= window
		d.touch = s.reads
	}
	e = Entry{Gen: d.gen}
	var val []byte
	if buf != nil {
		//dpclint:ignore lockscope ReadInto binds buf never to block or call back into the store: the tiered store's is atomic loads and a buffer
		val = buf(again, d.valLen)[:0]
	} else {
		val = make([]byte, 0, d.valLen)
	}
	if val, resident := s.copyResidentLocked(d, val); resident {
		pages := int64(len(d.segs))
		s.mu.Unlock()
		s.poolHits.Add(pages)
		s.hits.Add(1)
		e.Value = val
		return e, again, true
	}
	// A record in one segment, the common case, is located from the stack.
	var one [1]segLoc
	locs := one[:]
	if len(d.segs) > 1 {
		locs = make([]segLoc, len(d.segs))
	}
	copy(locs, d.segs)
	seq, valLen := d.seq, d.valLen
	s.mu.Unlock()

	val, ok = s.readRecord(key, locs, seq, valLen, val)
	if !ok {
		// Concurrently deleted or page recycled between unlock and
		// read: indistinguishable from a miss.
		s.misses.Add(1)
		return Entry{}, false, false
	}
	s.hits.Add(1)
	e.Value = val
	return e, again, true
}

// copyResidentLocked appends d's value to val, whose capacity holds it,
// from frames already loaded, reporting false when a page of it is absent
// or still loading. Under the latch an indexed record's locations cannot be
// stale and no append can run beside the copy, so nothing is pinned.
func (s *Store) copyResidentLocked(d *dentry, val []byte) ([]byte, bool) {
	for _, loc := range d.segs {
		if f := s.frames[loc.page]; f == nil || f.loading != nil {
			return val, false
		}
	}
	for i, loc := range d.segs {
		f := s.frames[loc.page]
		f.ref = true
		seg, ok := segmentValue(f.data, loc.slot, d.key, d.seq, i)
		if !ok {
			return val[:0], false // readRecord reports it the same way: a miss
		}
		val = append(val, seg...)
	}
	return val, len(val) == d.valLen
}

// segmentValue returns the value bytes of segment segIdx of the record
// (key, seq) in slot of a page, aliasing buf, verifying key and sequence so
// a stale location can never yield another record's bytes. The slot is the
// record's own, written before the record was indexed; the page's slot
// count is not read (an append to the tail moves it), so the directory
// bound is checked by size.
func segmentValue(buf []byte, slot int, key string, seq uint64, segIdx int) ([]byte, bool) {
	if slot < 0 || pageHeaderLen+slotLen*(slot+1) > len(buf) {
		return nil, false
	}
	off, length := pageSlot(buf, slot)
	if off < pageHeaderLen || length < recHeaderLen || off+length > len(buf) {
		return nil, false // off is zero in a dead slot
	}
	h := parseRecHeader(buf[off:])
	if recHeaderLen+h.keyLen+h.metaLen+h.segVal != length || h.seq != seq || h.segIdx != segIdx {
		return nil, false
	}
	p := off + recHeaderLen
	if string(buf[p:p+h.keyLen]) != key {
		return nil, false
	}
	p += h.keyLen + h.metaLen
	return buf[p : p+h.segVal], true
}

// readRecord appends the record's value to val, whose capacity holds it,
// from its segments via the buffer pool, pinning each page (and loading it
// if need be) outside the latch.
func (s *Store) readRecord(key string, locs []segLoc, seq uint64, valLen int, val []byte) ([]byte, bool) {
	val = val[:0]
	for i, loc := range locs {
		f, err := s.pin(loc.page, loc.pgen)
		if err != nil {
			return nil, false
		}
		seg, ok := segmentValue(f.data, loc.slot, key, seq, i)
		if ok {
			val = append(val, seg...)
		}
		s.unpin(f)
		if !ok {
			return nil, false
		}
	}
	if len(val) != valLen {
		return nil, false
	}
	return val, true
}

// Twin records whether a faster tier holds a copy of key's record — the
// tiered store sets it when it promotes and clears it when the RAM copy is
// evicted — and reports whether the store holds the key at all. A held
// record is as recently used as its twin, so under a byte budget the call
// also moves it to the front of the LRU: a record that lives in RAM for an
// hour must not become the coldest one on disk by neglect. Latch-only: no
// page is touched.
func (s *Store) Twin(key string, held bool) bool {
	s.mu.Lock()
	d := s.index[key]
	if d != nil {
		s.lruToFront(d)
		s.setTwinLocked(d, held)
	}
	s.mu.Unlock()
	return d != nil
}

// lruPushFront, lruUnlink and lruToFront keep the ring of index entries in
// recency order; called with s.mu held.
func (s *Store) lruPushFront(d *dentry) {
	d.prev, d.next = &s.lru, s.lru.next
	d.next.prev = d
	s.lru.next = d
}

func (s *Store) lruUnlink(d *dentry) {
	d.prev.next, d.next.prev = d.next, d.prev
	d.prev, d.next = nil, nil
}

// lruToFront moves a record that was read or twinned to the front. Only
// budget enforcement — replay's and Put's eviction loops — reads the ring's
// order, so an unbudgeted store leaves it in write order and skips the
// relinking.
func (s *Store) lruToFront(d *dentry) {
	if s.cfg.ByteBudget > 0 && s.lru.next != d {
		s.lruUnlink(d)
		s.lruPushFront(d)
	}
}

func (s *Store) setTwinLocked(d *dentry, held bool) {
	if d.twin == held {
		return
	}
	d.twin = held
	if held {
		s.twinned++
		s.twinBytes += d.charge
	} else {
		s.twinned--
		s.twinBytes -= d.charge
	}
}

// Delete removes key from the store, reporting whether it was present.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	d := s.index[key]
	if d == nil {
		s.mu.Unlock()
		return false
	}
	var kills []segLoc
	s.removeLocked(d, &kills)
	kills = s.settlePagesLocked(kills)
	s.mu.Unlock()
	s.deletes.Add(1)
	s.applyKills(kills)
	s.flushDirty(true)
	return true
}

// Flush empties the store and truncates the heap file.
func (s *Store) Flush() {
	s.mu.Lock()
	s.resetLocked()
	s.epoch++
	if s.truncating {
		// A concurrent Flush owns the truncate; state is already reset,
		// and its truncate covers a superset of our pages.
		s.mu.Unlock()
		return
	}
	s.truncating = true
	s.mu.Unlock()
	s.writes.Wait() // drain in-flight page write-backs
	if err := s.file.Truncate(0); err != nil {
		s.writeErrsCount.Add(1)
	}
	s.mu.Lock()
	s.truncating = false
	s.mu.Unlock()
	s.flushDirty(true) // anything staged while the truncate was in flight
}

func (s *Store) resetLocked() {
	s.index = make(map[string]*dentry)
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.bytes = 0
	s.twinned, s.twinBytes = 0, 0
	s.pages = make(map[int]*pageInfo)
	s.freeList = nil
	s.nextPage = 0
	s.tail = -1
	s.frames = make(map[int]*frame)
	s.clearClockLocked()
	s.dirty = make(map[int]*frame)
	// flushing stays: in-flight write-backs still complete and clear
	// their own page flags (harmless — their pages are being dropped).
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns resident key+value bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots occupancy and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Resident:   len(s.index),
		Bytes:      s.bytes,
		ByteBudget: s.cfg.ByteBudget,
		PageBytes:  s.pageBytes,
		Pages:      len(s.pages),
		FreePages:  len(s.freeList),
		FileBytes:  int64(s.nextPage) * int64(s.pageBytes),

		Twinned:      s.twinned,
		TwinnedBytes: s.twinBytes,
	}
	s.mu.Unlock()
	st.Puts = s.puts.Load()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Deletes = s.deletes.Load()
	st.Evictions = s.evictions.Load()
	st.EvictedBytes = s.evictedBytes.Load()
	st.RecoveredEntries = s.recovered.Load()
	st.ChecksumDiscards = s.checksumDiscards.Load()
	st.PoolHits = s.poolHits.Load()
	st.PoolLoads = s.poolLoads.Load()
	st.PoolEvictions = s.poolEvictions.Load()
	st.PageWrites = s.pageWrites.Load()
	st.WriteErrors = s.writeErrsCount.Load()
	return st
}

// Close writes back all dirty pages, syncs, and closes the heap file.
// Idempotent.
func (s *Store) Close() error {
	s.flushDirty(true)
	s.writes.Wait()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if err := s.file.Sync(); err != nil {
		s.file.Close()
		return err
	}
	return s.file.Close()
}

// removeLocked unlinks d from the index, LRU, and byte ledger, and
// queues its segment slots for the copy-on-write page kills that happen
// after the latch is released.
func (s *Store) removeLocked(d *dentry, kills *[]segLoc) {
	delete(s.index, d.key)
	s.lruUnlink(d)
	s.bytes -= d.charge
	s.setTwinLocked(d, false)
	for _, loc := range d.segs {
		if pi := s.pages[loc.page]; pi != nil && pi.gen == loc.pgen {
			pi.live--
			*kills = append(*kills, loc)
		}
	}
}

// settlePagesLocked frees pages whose last record just died (their
// kills need no page rewrite — the whole page is recycled and erased)
// and returns the kills that still require a slot rewrite.
func (s *Store) settlePagesLocked(kills []segLoc) []segLoc {
	if len(kills) == 0 {
		return kills
	}
	out := kills[:0]
	for _, loc := range kills {
		pi := s.pages[loc.page]
		if pi == nil || pi.gen != loc.pgen || pi.free {
			continue
		}
		if pi.live == 0 && pi.sealed {
			s.freePageLocked(loc.page, pi)
			continue
		}
		out = append(out, loc)
	}
	return out
}

// freePageLocked recycles a fully-dead sealed page: its frame is
// replaced by a fresh empty image marked dirty, so the stale on-disk
// bytes are erased by the next write-back and a clean Close can never
// resurrect deleted records.
func (s *Store) freePageLocked(page int, pi *pageInfo) {
	pi.free = true
	pi.sealed = false
	f := &frame{page: page, data: s.pageBufLocked()}
	initPage(f.data)
	s.replaceFrameLocked(page, f)
	s.markDirtyLocked(f)
	s.freeList = append(s.freeList, page)
}

// allocTailLocked makes a fresh append page current: the first free page
// whose erased image has landed on disk, else a new one at the end of the
// file. A tail is written only when it is sealed, so a crash before then
// must find nothing on its page to replay.
func (s *Store) allocTailLocked() {
	page := -1
	for i, p := range s.freeList {
		if s.dirty[p] == nil && !s.flushing[p] {
			page = p
			s.freeList[0], s.freeList[i] = s.freeList[i], s.freeList[0]
			s.freeList = s.freeList[1:]
			break
		}
	}
	if page < 0 {
		page = s.nextPage
		s.nextPage++
	}
	pi := s.pages[page]
	if pi == nil {
		pi = &pageInfo{}
		s.pages[page] = pi
	}
	pi.gen++
	pi.live = 0
	pi.sealed = false
	pi.free = false
	f := s.frames[page]
	if f == nil || f.loading != nil {
		f = &frame{page: page, data: s.pageBufLocked()}
		s.replaceFrameLocked(page, f)
	}
	initPage(f.data)
	s.markDirtyLocked(f)
	f.pins++ // the tail stays pinned so appends never need a reload
	s.tail = page
}

func (s *Store) sealTailLocked() {
	if s.tail < 0 {
		return
	}
	pi := s.pages[s.tail]
	pi.sealed = true
	if f := s.frames[s.tail]; f != nil {
		f.pins--
	}
	if pi.live == 0 {
		s.freePageLocked(s.tail, pi)
	}
	s.tail = -1
}
