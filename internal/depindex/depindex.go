// Package depindex tracks which cache-tier entries were composed from
// which fragments, so a fragment invalidation can be fanned out to the
// page and static tiers surgically instead of waiting for their TTLs.
//
// The paper's correctness story for dynamic content is that freshness is
// enforced by *invalidation*, not time: the BEM knows the moment a
// fragment dies. But a whole-page entry is an opaque byte blob — the tier
// that holds it cannot know which fragments are inside. The dependency
// index is the missing edge set: when the proxy files a captured page it
// records, for every fragment reference whose bytes entered it, an edge
//
//	fragment ref (key, gen) → page/static store key
//
// and the coherency fabric's tier subscribers consult it on each
// invalidation to drop exactly the entries built from the dead fragment.
//
// # Storage
//
// The index is built to hold a whole site's edges in its default budget,
// so nothing on the request path is a string or a pointer-rich node:
//
//   - a fragment ref is an ID, the slot key and generation packed into a
//     uint64;
//   - a dependent key is interned once per index (keytab): an edge holds a
//     32-bit key id, and the key's bytes are stored and charged once
//     however many fragments point at it;
//   - a fragment is one 32-byte record (entry) in a chunked slab, found
//     through an open-addressed table of slab indexes and linked into its
//     shard's recency list by index; its first edge lives in the record,
//     and a fragment on many pages chains 12-byte overflow records.
//
// ByteBudget is charged what those structures occupy (see the cost
// constants), so the budget bounds the index's heap, not a notional count.
//
// # Sound degradation
//
// The index is best-effort storage: it is sharded, byte-bounded, and
// evicts least-recently-recorded fragments under pressure. Because a
// missing edge must never mean a missed invalidation, every answer is
// qualified: Lookup reports exact=false while the asked-for fragment's
// shard could still be missing edges it lost to eviction — from the
// eviction until the last lost edge would have expired anyway — and the
// subscriber falls back to a scoped flush of its tier. The window covers
// hits and misses alike. An eviction that loses nothing live (every edge
// already expired, or the generation was invalidated and its tombstone has
// run out) opens no window. An edge expires with the entry it describes
// (File takes the entry's lifetime): an entry the tier already let go by
// TTL needs no edge, and a stale edge costs at worst one redundant Delete
// of a non-resident key. Deadlines are kept in whole
// seconds, rounded up, so an edge never expires before its entry.
//
// # The fill/invalidate race
//
// A page capture is in flight for the whole request: its fragments are
// read early, the finished page is filed late, and an invalidation landing
// in between would find nothing to delete yet — the stale page would be
// filed *after* the drop and survive until TTL. Three mechanisms close
// this:
//
//   - MarkInvalid / AnyInvalid: subscribers tombstone each invalidated
//     ref *before* deleting dependents; fillers check their refs and file
//     only when none is tombstoned.
//   - Epoch: scoped flushes (sequence gaps, explicit tier flushes) bump a
//     generation counter *before* flushing; a filler whose capture began
//     under an older epoch does not file, since the flush could not have
//     removed a page that was not yet filed.
//   - Filing: a filler checks, records its edges and puts its entry while
//     holding the Filing lock, which MarkInvalid and BumpEpoch take
//     exclusively. A fill is therefore wholly before the marker — edges
//     and entry in place for the subscriber's Delete or Flush to find —
//     or wholly after it, and refused. A page holding a dropped
//     fragment's bytes is never servable once the drop has been applied.
//
// A generation is invalidated at most once, so once its tombstone has run
// out (tombstoneTTL, far beyond one event's synchronous fan-out to every
// subscriber) nobody will ask for its edges again: the sweep that retires
// the tombstone drops the entry with it, unless edges were recorded after
// the mark.
package depindex

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/clock"
)

// ID names a fragment reference the way invalidation events do: the DPC
// slot key and the generation, packed key<<32|gen. A generation is
// invalidated at most once, so edges keyed this way are exact — slot reuse
// bumps the generation and cannot alias old edges onto new fragments.
type ID uint64

// MakeID packs a slot key and generation into an ID.
func MakeID(key, gen uint32) ID { return ID(uint64(key)<<32 | uint64(gen)) }

// Config parameterizes an Index.
type Config struct {
	// Shards is rounded up to a power of two; 0 selects 16.
	Shards int
	// ByteBudget bounds the bytes the index's structures occupy; 0 selects
	// 1 MiB, which holds about 21 000 single-page fragments. Over budget,
	// least-recently-recorded fragments are evicted, and a shard that lost
	// live edges answers conservatively until they would have expired.
	ByteBudget int64
	// Horizon is the edge lifetime Record files under (File takes each
	// entry's own). 0 selects 2s.
	Horizon time.Duration
	// Clock drives expiry; nil selects the real clock.
	Clock clock.Clock
}

// Stats is a point-in-time snapshot of index occupancy and activity.
type Stats struct {
	Fragments int `json:"fragments"`
	Edges     int `json:"edges"`
	// Keys counts the distinct dependent keys the edges point at.
	Keys  int   `json:"keys"`
	Bytes int64 `json:"bytes"`
	// Records counts edges recorded or refreshed; Evictions counts
	// fragments that lost live edges to byte pressure.
	Records   int64 `json:"records"`
	Evictions int64 `json:"evictions"`
	// Lookups counts invalidation lookups; Inexact counts the ones
	// answered conservatively (the caller had to fall back to a scoped
	// flush).
	Lookups int64 `json:"lookups"`
	Inexact int64 `json:"inexact"`
	// Tombstones counts currently retained invalidated-ref markers.
	Tombstones int `json:"tombstones"`
}

// What each structure is charged against ByteBudget. The footprint test
// holds Stats().Bytes to the heap the index really occupies.
const (
	// entryCost is a fragment's slab record plus its share of the shard's
	// open-addressed table (a 4-byte slot at a load between 3/8 and 3/4).
	entryCost = 32 + 8
	// overflowCost is one overflow record: an edge past a fragment's first.
	overflowCost = 12
	// keyCost is a key's id-table record and its slot in the lookup map;
	// the key's bytes are charged on top.
	keyCost = 24 + 48
)

// tombstoneTTL bounds how long an invalidated ref is remembered for the
// fill-race check. It needs to outlive any in-flight request (the proxy's
// origin client times out at 30s); past it the capture is long settled.
const tombstoneTTL = 2 * time.Minute

// maxTombstones bounds each shard's tombstone set. On overflow the shard
// clears it and bumps the epoch instead — every in-flight fill discards,
// which is the same conservative direction as a scoped flush.
const maxTombstones = 4096

// Index is the dependency index. It is safe for concurrent use.
type Index struct {
	shards []shard
	mask   uint64
	keys   keytab
	clk    clock.Clock
	base   time.Time // second 0 of the index's deadlines
	budget int64
	hz     time.Duration

	bytes atomic.Int64
	epoch atomic.Uint64
	// bumpCause is why the epoch last moved.
	bumpCause atomic.Pointer[string]
	// cursor rotates eviction across shards.
	cursor atomic.Uint64
	// filing orders fills (shared) against tombstones and epoch bumps
	// (exclusive); see the package comment.
	filing sync.RWMutex

	records, evictions, lookups, inexact atomic.Int64
}

// New returns an index.
func New(cfg Config) *Index {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	budget := cfg.ByteBudget
	if budget <= 0 {
		budget = 1 << 20
	}
	hz := cfg.Horizon
	if hz <= 0 {
		hz = 2 * time.Second
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	ix := &Index{
		shards: make([]shard, p),
		mask:   uint64(p - 1),
		clk:    clk,
		base:   clk.Now(),
		budget: budget,
		hz:     hz,
	}
	ix.keys.ids = make(map[string]uint32)
	for i := range ix.shards {
		ix.shards[i].tomb = make(map[ID]uint32)
	}
	return ix
}

// since is the index's time: the duration since its base, never negative.
func (ix *Index) since() time.Duration {
	return max(ix.clk.Now().Sub(ix.base), 0)
}

// Deadlines are whole seconds since base. now rounds down and a deadline
// rounds up, so nothing expires before its exact time.
func secFloor(d time.Duration) uint32 { return uint32(d / time.Second) }
func secCeil(d time.Duration) uint32  { return uint32((d + time.Second - 1) / time.Second) }

// mix is the splitmix64 finalizer: the low bits pick the shard, the high
// bits the table slot.
func mix(id ID) uint64 {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// File records (or refreshes) the edge id → key for every id: one captured
// page's references, filed under the page's store key. The edges expire
// after ttl, the lifetime the tier gave the entry, so the index neither
// forgets an entry still resident nor outremembers the tiers it describes.
// Re-filing a page whose edges are all present allocates nothing.
func (ix *Index) File(ids []ID, key string, ttl time.Duration) {
	if len(ids) == 0 {
		return
	}
	ix.records.Add(int64(len(ids)))
	now := ix.since()
	deadline := secCeil(now + ttl)
	// The pin keeps the key's id alive while its edges are placed shard by
	// shard, each new one taking a reference of its own.
	kid := ix.keys.pin(ix, key)
	for _, id := range ids {
		h := mix(id)
		sh := &ix.shards[h&ix.mask]
		sh.mu.Lock()
		sh.record(ix, id, h, kid, deadline)
		sh.mu.Unlock()
	}
	ix.keys.unpin(ix, kid)
	if ix.bytes.Load() > ix.budget {
		ix.evict(secFloor(now))
	}
}

// evict drops least-recently-recorded fragments, one shard after the next
// from a rotating cursor, until the index is back under budget.
func (ix *Index) evict(now uint32) {
	empty := 0
	for ix.bytes.Load() > ix.budget && empty < len(ix.shards) {
		sh := &ix.shards[ix.cursor.Add(1)&ix.mask]
		sh.mu.Lock()
		if sh.tail == 0 {
			empty++
		} else {
			empty = 0
			if sh.evictTail(ix, now) {
				ix.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// Lookup returns the keys recorded as composed from id. exact reports
// whether the answer is authoritative: when false (the shard lost live
// edges to eviction, so id's may be among them), the caller must treat
// every entry of its tier as a potential dependent and flush. The window
// applies to hits as well as misses — a fragment whose entry was evicted
// and then re-recorded holds only its post-eviction edges. Expired edges
// are pruned on the way; live ones stay, because every tier's subscriber
// asks about the same event.
func (ix *Index) Lookup(id ID) (keys []string, exact bool) {
	ix.lookups.Add(1)
	now := secFloor(ix.since())
	h := mix(id)
	sh := &ix.shards[h&ix.mask]
	sh.mu.Lock()
	exact = now >= sh.inexactUntil
	keys = sh.dependents(ix, id, h, now)
	sh.mu.Unlock()
	if !exact {
		ix.inexact.Add(1)
	}
	return keys, exact
}

// MarkInvalid tombstones an invalidated ref so in-flight fills whose
// fragments were read before the invalidation refuse to file their
// capture. It waits for fills holding Filing, so their edges are in place
// when it returns. Subscribers call it before deleting dependents.
func (ix *Index) MarkInvalid(id ID) {
	now := ix.since()
	h := mix(id)
	sh := &ix.shards[h&ix.mask]
	ix.filing.Lock()
	defer ix.filing.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if nowSec := secFloor(now); nowSec >= sh.tombSweepAt || len(sh.tomb) >= maxTombstones {
		sh.sweepTombstones(ix, nowSec)
	}
	if len(sh.tomb) >= maxTombstones {
		// Still full: forget selectively remembering and make every
		// in-flight fill discard instead.
		clear(sh.tomb)
		ix.bumpLocked("tombstone-overflow")
	}
	sh.tomb[id] = secCeil(now + tombstoneTTL)
	if i, _ := sh.find(id, h); i != 0 {
		sh.frags.at(i).dead = true
	}
}

// Filing returns the lock a filler holds from its AnyInvalid and Epoch
// checks until its entry is recorded and put.
func (ix *Index) Filing() sync.Locker { return ix.filing.RLocker() }

// AnyInvalid reports whether any of ids has been marked invalid within
// the tombstone window. Fillers call it, under Filing, before filing a
// capture.
func (ix *Index) AnyInvalid(ids []ID) bool {
	if len(ids) == 0 {
		return false
	}
	now := secFloor(ix.since())
	for _, id := range ids {
		sh := &ix.shards[mix(id)&ix.mask]
		sh.mu.Lock()
		deadline, ok := sh.tomb[id]
		sh.mu.Unlock()
		if ok && now < deadline {
			return true
		}
	}
	return false
}

// Epoch returns the current flush generation. A filler snapshots it when
// its capture begins and discards the fill when it changed by filing
// time — a scoped flush in between could not have removed the capture.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// BumpEpoch advances the flush generation; tier subscribers call it
// whenever they flush, naming why (sequence gap, flush event, inexact
// index answer) for the fills the bump refuses to report.
func (ix *Index) BumpEpoch(cause string) {
	ix.filing.Lock()
	ix.bumpLocked(cause)
	ix.filing.Unlock()
}

// bumpLocked is BumpEpoch for a caller holding filing exclusively.
func (ix *Index) bumpLocked(cause string) {
	ix.bumpCause.Store(&cause)
	ix.epoch.Add(1)
}

// BumpCause reports why the epoch last moved ("" if it never has).
func (ix *Index) BumpCause() string {
	if c := ix.bumpCause.Load(); c != nil {
		return *c
	}
	return ""
}

// Flush empties the index (edges and tombstones) and bumps the epoch.
func (ix *Index) Flush() {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		sh.reset(ix)
		sh.mu.Unlock()
	}
	ix.BumpEpoch("index-flush")
}

// Stats returns a snapshot of index activity.
func (ix *Index) Stats() Stats {
	st := Stats{
		Bytes:     ix.bytes.Load(),
		Records:   ix.records.Load(),
		Evictions: ix.evictions.Load(),
		Lookups:   ix.lookups.Load(),
		Inexact:   ix.inexact.Load(),
	}
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		st.Fragments += sh.live
		st.Edges += sh.edges
		st.Tombstones += len(sh.tomb)
		sh.mu.Unlock()
	}
	ix.keys.mu.Lock()
	st.Keys = len(ix.keys.ids)
	ix.keys.mu.Unlock()
	return st
}

// The string entry points below are frozen by bench/probes.go, which may
// not change with the program it measures: they parse "key:gen" and call
// the integer path, so the probe times the real engine. Nothing in cmd/ or
// internal/ outside tests may call them (ROADMAP item 1 frees them).

// Ref formats a fragment reference as "key:gen", the form Record and
// Dependents parse. Frozen for bench/; use MakeID.
func Ref(key, gen uint32) string {
	return strconv.FormatUint(uint64(key), 10) + ":" + strconv.FormatUint(uint64(gen), 10)
}

// parseRef is Ref's inverse.
func parseRef(ref string) (ID, bool) {
	k, g, ok := strings.Cut(ref, ":")
	if !ok {
		return 0, false
	}
	key, err := strconv.ParseUint(k, 10, 32)
	if err != nil {
		return 0, false
	}
	gen, err := strconv.ParseUint(g, 10, 32)
	if err != nil {
		return 0, false
	}
	return MakeID(uint32(key), uint32(gen)), true
}

// Record is File for one "key:gen" ref and the configured Horizon; a ref of
// any other form records nothing. Frozen for bench/; use File.
func (ix *Index) Record(ref, key string) {
	if id, ok := parseRef(ref); ok {
		ids := [1]ID{id}
		ix.File(ids[:], key, ix.hz)
	}
}

// Dependents is Lookup for a "key:gen" ref; a ref of any other form can
// have no edges, which is an exact empty answer. Frozen for bench/; use
// Lookup.
func (ix *Index) Dependents(ref string) (keys []string, exact bool) {
	id, ok := parseRef(ref)
	if !ok {
		return nil, true
	}
	return ix.Lookup(id)
}
