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
// so page images land in staging order). Deleting a record rewrites its
// page with the slot zeroed via copy-on-write, so concurrent lock-free
// readers of the old frame are never raced.
//
// The tiered store keeps the tiers inclusive: promoting a record into RAM
// leaves it here, and Twin is the latch-only probe by which a later
// eviction from RAM learns that its victim's copy is still held — in which
// case nothing is written — while keeping that copy's LRU position as
// fresh as its twin's use. Read tells it which records to promote: each
// index entry remembers when it was last read, so the store can say that a
// record was read twice within a window of the caller's choosing. Steady-
// state traffic over a read-mostly set is therefore reads and probes;
// writes are first-time demotions and invalidations.
//
// Crash behavior: a record is committed once its page(s) carry valid
// checksums on disk, which the prompt write-back makes true moments
// after Put returns; replay at Open discards torn or checksum-bad pages
// wholesale and keeps, per key, the highest-sequence fully-present
// record that has not expired. Deletions are durable once their page
// rewrite lands — a crash in that instant can resurrect entries deleted
// in the final moments, which a cache tier tolerates (recovered entries
// still honor their TTL deadlines and remain subject to invalidation).
// A clean Close flushes everything and is exact.
package diskstore

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/clock"
)

// Config parameterizes Open.
type Config struct {
	// Path is the heap-file path; created on first open, replayed on
	// reopen. Required.
	Path string
	// ByteBudget bounds resident key+meta+value bytes; 0 = unbounded.
	// Over-budget Puts evict least-recently-used entries.
	ByteBudget int64
	// PageBytes is the heap-file page size (0 = DefaultPageBytes).
	// Changing it across restarts invalidates the existing file: every
	// old page fails its checksum at replay and is recycled.
	PageBytes int
	// PoolPages caps resident buffer-pool frames (0 = DefaultPoolPages).
	PoolPages int
	// Clock drives TTL expiry (nil = wall clock).
	Clock clock.Clock
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

// Entry is one stored record.
type Entry struct {
	Value []byte
	Meta  string
	Gen   uint64
	// Deadline is the absolute expiry instant; zero means no TTL. The
	// store lazily drops expired entries on Get and at replay.
	Deadline time.Time
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
	Expired          int64 `json:"expired"`
	Evictions        int64 `json:"evictions"`
	EvictedBytes     int64 `json:"evicted_bytes"`
	RecoveredEntries int64 `json:"recovered_entries"`
	ChecksumDiscards int64 `json:"checksum_discards"`
	PoolHits         int64 `json:"pool_hits"`
	PoolLoads        int64 `json:"pool_loads"`
	PoolEvictions    int64 `json:"pool_evictions"`
	WriteErrors      int64 `json:"write_errors"`
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
	meta       string
	deadline   int64
	valLen     int
	charge     int64
	twin       bool // a faster tier holds a copy too; see Twin
	// touch is the store's read count (Store.reads) at the record's last
	// Read, zero while it has never been read; see Read.
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
	clk       clock.Clock
	file      *os.File
	pageBytes int

	mu         sync.Mutex
	index      map[string]*dentry
	lru        dentry // ring sentinel: lru.next is the most recently used, lru.prev the least
	reads      uint64 // Reads served so far: the clock dentry.touch is read against
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

	frames   map[int]*frame
	clock    list.List // *frame, clock ring
	hand     *list.Element
	dirty    map[int]*frame
	flushing map[int]bool // pages with a write-back in flight
	writes   sync.WaitGroup
	// freeBufs holds the page buffers of evicted frames, at most PoolPages
	// of them, for pageBufLocked to hand out again; flushScratch is the one
	// page flushDirty snapshots into (nil while a flusher holds it).
	freeBufs     [][]byte
	flushScratch []byte

	puts, hits, misses, deletes   atomic.Int64
	expired, evictions            atomic.Int64
	evictedBytes                  atomic.Int64
	recovered, checksumDiscards   atomic.Int64
	poolHits, poolLoads           atomic.Int64
	poolEvictions, writeErrsCount atomic.Int64
}

// Open opens (creating if absent) the heap file at cfg.Path and replays
// it: checksum-bad or torn pages are discarded and recycled, and the
// highest-sequence complete record per key is re-indexed unless already
// expired.
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
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open %s: %w", cfg.Path, err)
	}
	s := &Store{
		cfg:       cfg,
		clk:       clk,
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
	now := s.clk.Now().UnixNano()
	type recSeg struct {
		seg segment
		loc segLoc
	}
	type group struct {
		recs []recSeg
	}
	byKey := make(map[string]map[uint64]*group) // key → seq → group
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
		}
	}
	s.nextPage = nPages

	// Keep, per key, the highest-seq complete unexpired record.
	var winners []*dentry
	winnerPages := make(map[*dentry][]int)
	for key, m := range byKey {
		var best *group
		var bestSeq uint64
		for seq, g := range m {
			// New records must outrank every record in the file, also the
			// ones replay passes over (lapsed, torn): their slots stay on
			// disk, and the next replay picks the highest sequence.
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
		sort.Slice(best.recs, func(i, j int) bool {
			return best.recs[i].seg.hdr.segIdx < best.recs[j].seg.hdr.segIdx
		})
		h0 := best.recs[0].seg.hdr
		if h0.deadline != 0 && h0.deadline <= now {
			s.expired.Add(1)
			continue
		}
		locs := make([]segLoc, len(best.recs))
		pagesOf := make([]int, len(best.recs))
		for i, r := range best.recs {
			locs[i] = r.loc
			pagesOf[i] = r.loc.page
		}
		d := &dentry{
			key:      key,
			segs:     locs,
			seq:      bestSeq,
			gen:      h0.gen,
			meta:     best.recs[0].seg.meta,
			deadline: h0.deadline,
			valLen:   h0.totalVal,
			charge:   int64(len(key) + len(best.recs[0].seg.meta) + h0.totalVal),
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
	// Pages with no surviving records are recycled. Their stale bytes
	// are erased lazily: reuse rewrites the whole page.
	for p, pi := range s.pages {
		if !pi.free && pi.live == 0 {
			pi.free = true
			s.freeList = append(s.freeList, p)
		}
	}
	sort.Ints(s.freeList)
	// Enforce a (possibly shrunken) budget on the recovered set.
	if s.cfg.ByteBudget > 0 {
		var kills []segLoc
		for s.bytes > s.cfg.ByteBudget && len(s.index) > 0 {
			d := s.lru.prev
			s.removeLocked(d, &kills)
			s.evictions.Add(1)
			s.evictedBytes.Add(d.charge)
		}
		kills = s.settlePagesLocked(kills)
		// Replay holds no locks and has no readers yet: apply inline.
		s.applyKills(kills)
		s.flushDirty()
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
// never fit (over budget on its own, or key/meta exceed the page
// format); refused entries count as evictions, mirroring KeyedStore.
func (s *Store) Put(key string, e Entry) bool {
	s.puts.Add(1)
	charge := int64(len(key) + len(e.Meta) + len(e.Value))
	if len(key) > 1<<16-1 || len(e.Meta) > 1<<16-1 || int64(len(e.Value)) > 1<<32-1 ||
		(s.cfg.ByteBudget > 0 && charge > s.cfg.ByteBudget) ||
		recHeaderLen+len(key)+len(e.Meta)+minSeg(len(e.Value)) > s.pageBytes-pageHeaderLen-slotLen {
		s.evictions.Add(1)
		s.evictedBytes.Add(charge)
		return false
	}
	var deadline int64
	if !e.Deadline.IsZero() {
		deadline = e.Deadline.UnixNano()
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
	segs := s.stageLocked(key, e, seq, deadline)
	if segs != nil {
		d := &dentry{
			key: key, segs: segs, seq: seq, gen: e.Gen, meta: e.Meta,
			deadline: deadline, valLen: len(e.Value), charge: charge,
		}
		s.lruPushFront(d)
		s.index[key] = d
		s.bytes += charge
	}
	kills = s.settlePagesLocked(kills)
	s.mu.Unlock()
	s.applyKills(kills)
	s.flushDirty()
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
func (s *Store) stageLocked(key string, e Entry, seq uint64, deadline int64) []segLoc {
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
		overhead := recHeaderLen + len(key) + len(e.Meta)
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
			seq: seq, gen: e.Gen, deadline: deadline,
			keyLen: len(key), metaLen: len(e.Meta),
			segIdx: len(segs), segVal: take, totalVal: len(e.Value),
		}
		if take == len(remaining) {
			h.flags |= recFlagLast
		}
		putRecHeader(f.data[off:], h)
		p := off + recHeaderLen
		copy(f.data[p:], key)
		p += len(key)
		copy(f.data[p:], e.Meta)
		p += len(e.Meta)
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

// Get returns the entry for key, lazily dropping it if expired.
func (s *Store) Get(key string) (Entry, bool) {
	e, _, ok := s.read(key, true, true, 0)
	return e, ok
}

// Peek returns the entry for key even when its deadline has passed;
// callers inspect Entry.Deadline (stale-while-revalidate reads). A Peek is
// not a Read: it leaves the record's touch stamp alone.
func (s *Store) Peek(key string) (Entry, bool) {
	e, _, ok := s.read(key, false, false, 0)
	return e, ok
}

// Read is Get for a caller that keeps a faster tier in front of the store
// and must decide whether this record has earned a place there. again
// reports that the record was also read no more than window of the store's
// Reads ago: the index entry remembers when it was last read, so the index
// is the ghost list and remembering costs eight bytes a record. With the
// faster tier's entry count as the window, again means the record would
// still have been resident there had its previous read admitted it. With
// keepLapsed a record past its deadline is returned (and left) as Peek
// would.
func (s *Store) Read(key string, window uint64, keepLapsed bool) (e Entry, again, ok bool) {
	return s.read(key, !keepLapsed, true, window)
}

// read is the one read path. When every page of the record is in a loaded
// frame — a pool hit — the whole read is one hold of the latch: index,
// LRU, touch stamp, frame and copy. Only a read that must load a page
// releases the latch and goes through pin.
func (s *Store) read(key string, expire, touch bool, window uint64) (e Entry, again, ok bool) {
	s.mu.Lock()
	d := s.index[key]
	if d == nil {
		s.mu.Unlock()
		s.misses.Add(1)
		return Entry{}, false, false
	}
	if expire && d.deadline != 0 && d.deadline <= s.clk.Now().UnixNano() {
		var kills []segLoc
		s.removeLocked(d, &kills)
		kills = s.settlePagesLocked(kills)
		s.mu.Unlock()
		s.expired.Add(1)
		s.misses.Add(1)
		s.applyKills(kills)
		s.flushDirty()
		return Entry{}, false, false
	}
	s.lruToFront(d)
	if touch {
		s.reads++
		again = d.touch != 0 && s.reads-d.touch <= window
		d.touch = s.reads
	}
	e = Entry{Meta: d.meta, Gen: d.gen}
	if d.deadline != 0 {
		e.Deadline = time.Unix(0, d.deadline)
	}
	if val, resident := s.copyResidentLocked(d); resident {
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

	val, ok := s.readRecord(key, locs, seq, valLen)
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

// copyResidentLocked assembles d's value from frames already loaded,
// reporting false when a page of it is absent or still loading. Under the
// latch an indexed record's locations cannot be stale and no append can run
// beside the copy, so nothing is pinned.
func (s *Store) copyResidentLocked(d *dentry) ([]byte, bool) {
	for _, loc := range d.segs {
		if f := s.frames[loc.page]; f == nil || f.loading != nil {
			return nil, false
		}
	}
	val := make([]byte, 0, d.valLen)
	for i, loc := range d.segs {
		f := s.frames[loc.page]
		f.ref = true
		seg, ok := segmentValue(f.data, loc.slot, d.key, d.seq, i)
		if !ok {
			return nil, false // readRecord reports it the same way: a miss
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

// readRecord assembles the record's value from its segments via the
// buffer pool, pinning each page (and loading it if need be) outside the
// latch.
func (s *Store) readRecord(key string, locs []segLoc, seq uint64, valLen int) ([]byte, bool) {
	val := make([]byte, 0, valLen)
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
// record is as recently used as its twin, so the call also moves it to the
// front of the LRU: a record that lives in RAM for an hour must not become
// the coldest one on disk by neglect. Latch-only: no page is touched.
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

func (s *Store) lruToFront(d *dentry) {
	if s.lru.next != d {
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
	s.flushDirty()
	return true
}

// DeleteFunc removes every key matching pred, returning the count. The
// predicate runs without store locks held (keys are snapshotted first),
// so it may be arbitrarily slow.
func (s *Store) DeleteFunc(pred func(key string) bool) int {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	n := 0
	for _, k := range keys {
		if pred(k) && s.Delete(k) {
			n++
		}
	}
	return n
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
	s.flushDirty() // anything staged while the truncate was in flight
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
	s.clock.Init()
	s.hand = nil
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

// Bytes returns resident key+meta+value bytes.
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
	st.Expired = s.expired.Load()
	st.Evictions = s.evictions.Load()
	st.EvictedBytes = s.evictedBytes.Load()
	st.RecoveredEntries = s.recovered.Load()
	st.ChecksumDiscards = s.checksumDiscards.Load()
	st.PoolHits = s.poolHits.Load()
	st.PoolLoads = s.poolLoads.Load()
	st.PoolEvictions = s.poolEvictions.Load()
	st.WriteErrors = s.writeErrsCount.Load()
	return st
}

// Close writes back all dirty pages, syncs, and closes the heap file.
// Idempotent.
func (s *Store) Close() error {
	s.flushDirty()
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

// allocTailLocked makes a fresh append page current, reusing the free
// list when possible.
func (s *Store) allocTailLocked() {
	var page int
	if n := len(s.freeList); n > 0 {
		page = s.freeList[0]
		s.freeList = s.freeList[1:]
	} else {
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
