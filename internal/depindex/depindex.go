// Package depindex tracks which cache-tier entries were composed from
// which fragments, so a fragment invalidation can be fanned out to the
// whole-response tier surgically instead of waiting for its TTLs.
//
// The paper's correctness story for dynamic content is that freshness is
// enforced by *invalidation*, not time: the BEM knows the moment a
// fragment dies. But a whole-page entry is an opaque byte blob — the tier
// that holds it cannot know which fragments are inside. The dependency
// index is the missing edge set: when the proxy files a captured page it
// records, for every fragment reference whose bytes entered it, an edge
//
//	fragment ref (key, gen) → tier store key
//
// and the proxy consults it on each fabric invalidation (dpc.Proxy.Apply)
// to drop exactly the entries built from the dead fragment.
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
// # Bounded by dropping pages
//
// The index is sharded and byte-bounded, and every answer is exact: when
// it must forget a fragment, the pages that fragment's record names leave
// the tier with it. File only records. A filler that leaves the index over
// budget calls Shed once its shared hold on Filing has ended; Shed takes
// Filing exclusively, evicts least-recently-recorded fragments, and hands
// the caller every unexpired key an evicted record names, for the caller
// to delete from its tier before the lock is released. Under that hold no
// fill sits between its File and its Put, so a page the index forgets is
// either resident and dropped then, or filed later with fresh edges. An
// invalidated generation has no record left to shed: Invalidate removed it
// with its answer. Under pressure a site therefore loses its
// least-recently-filed pages from the tier, never the next write's
// precision. An edge expires with the entry it describes (File takes the
// entry's lifetime): an entry the tier already let go by TTL needs no
// edge, and a stale edge costs at worst one redundant Delete of a
// non-resident key. Deadlines are kept in whole seconds, rounded up, so an
// edge never expires before its entry.
//
// # The fill/invalidate race
//
// A page capture is in flight for the whole request: its fragments are
// read early, the finished page is filed late, and an invalidation landing
// in between would find nothing to delete yet — the stale page would be
// filed *after* the drop and survive until TTL. The index keeps edges
// only; which generations are dead is the caller's record (dpc's per-slot
// floor), marked before it calls Invalidate. Two mechanisms order fills
// against that mark:
//
//   - Filing: a filler checks its refs against the caller's record and
//     the epoch, records its edges and puts its entry while holding the
//     Filing lock, which Invalidate, BumpEpoch and Shed take exclusively.
//     A fill is therefore wholly before the invalidation — edges and entry
//     in place for the answer Invalidate returns — or wholly after the
//     mark, and refused. A page holding a dropped fragment's bytes is
//     never servable once the drop has been applied.
//   - Epoch: scoped flushes (sequence gaps, explicit tier flushes) bump a
//     generation counter *before* flushing; a filler whose capture began
//     under an older epoch does not file, since the flush could not have
//     removed a page that was not yet filed.
//
// A generation is invalidated at most once, so Invalidate removes its
// record as it answers: nobody will ask for those edges again.
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
	// Shed evicts least-recently-recorded fragments and hands back the
	// pages they name, for the caller to drop.
	ByteBudget int64
	// Horizon is the edge lifetime Record files under (File takes each
	// entry's own). 0 selects 2s. Frozen for bench/, like Record.
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
	// fragments shed under byte pressure that still named live pages.
	Records   int64 `json:"records"`
	Evictions int64 `json:"evictions"`
	// Lookups counts Invalidate and Lookup answers. Inexact is always 0:
	// every answer is exact. It stays only because bench/ reads it.
	Lookups int64 `json:"lookups"`
	Inexact int64 `json:"inexact"`
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
	// filing orders fills (shared) against invalidations, epoch bumps and
	// sheds (exclusive); see the package comment.
	filing sync.RWMutex

	records, evictions, lookups atomic.Int64
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
// Re-filing a page whose edges are all present allocates nothing. File
// never evicts: a filler that leaves the index over budget calls Shed.
func (ix *Index) File(ids []ID, key string, ttl time.Duration) {
	if len(ids) == 0 {
		return
	}
	ix.records.Add(int64(len(ids)))
	deadline := secCeil(ix.since() + ttl)
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
}

// Shed brings an index over budget back under it: it evicts
// least-recently-recorded fragments, one shard after the next from a
// rotating cursor, and calls drop with each unexpired key an evicted record
// names (an invalidated generation has no record left). It holds Filing
// exclusively throughout, so the caller's drops land before any fill files
// or any invalidation answers; a filler calls it after its own shared hold
// has ended, and drop must not call back into the index. Under budget it
// returns at once.
func (ix *Index) Shed(drop func(key string)) {
	if ix.bytes.Load() <= ix.budget {
		return
	}
	ix.filing.Lock()
	defer ix.filing.Unlock()
	now := secFloor(ix.since())
	var keys []string
	for empty := 0; ix.bytes.Load() > ix.budget && empty < len(ix.shards); {
		sh := &ix.shards[ix.cursor.Add(1)&ix.mask]
		sh.mu.Lock()
		keys = keys[:0]
		if sh.tail == 0 {
			empty++
		} else {
			empty = 0
			keys = sh.evictTail(ix, now, keys)
		}
		sh.mu.Unlock()
		if len(keys) > 0 {
			ix.evictions.Add(1)
		}
		for _, k := range keys {
			//dpclint:ignore lockscope dropping the entries under Filing is the protocol: no fill may file between the eviction and the drop; drop is contract-bound (doc comment) not to re-enter the index
			drop(k)
		}
	}
}

// Lookup returns the unexpired keys recorded as composed from id, pruning
// the expired edges on the way.
func (ix *Index) Lookup(id ID) []string { return ix.dependents(id, false) }

// Invalidate returns the keys Lookup would — the entries the caller must
// delete — and removes id's record. It holds Filing exclusively, so the
// edges of every fill before it are in place, and the caller has already
// marked id dead for the fills after it (see the package comment).
func (ix *Index) Invalidate(id ID) []string {
	ix.filing.Lock()
	defer ix.filing.Unlock()
	return ix.dependents(id, true)
}

// dependents answers Lookup, and Invalidate when forget is set.
func (ix *Index) dependents(id ID, forget bool) []string {
	ix.lookups.Add(1)
	now := secFloor(ix.since())
	h := mix(id)
	sh := &ix.shards[h&ix.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dependents(ix, id, h, now, forget)
}

// Filing returns the lock a filler holds from its checks of dead
// generations and the Epoch until its entry is recorded and put.
func (ix *Index) Filing() sync.Locker { return ix.filing.RLocker() }

// Epoch returns the current flush generation. A filler snapshots it when
// its capture begins and discards the fill when it changed by filing
// time — a scoped flush in between could not have removed the capture.
func (ix *Index) Epoch() uint64 { return ix.epoch.Load() }

// BumpEpoch advances the flush generation. Call it whenever a tier is
// flushed, naming why (sequence gap, flush event) for the fills the bump
// refuses to report.
func (ix *Index) BumpEpoch(cause string) {
	ix.filing.Lock()
	ix.bumpCause.Store(&cause)
	ix.epoch.Add(1)
	ix.filing.Unlock()
}

// BumpCause reports why the epoch last moved ("" if it never has).
func (ix *Index) BumpCause() string {
	if c := ix.bumpCause.Load(); c != nil {
		return *c
	}
	return ""
}

// Stats returns a snapshot of index activity.
func (ix *Index) Stats() Stats {
	st := Stats{
		Bytes:     ix.bytes.Load(),
		Records:   ix.records.Load(),
		Evictions: ix.evictions.Load(),
		Lookups:   ix.lookups.Load(),
	}
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		st.Fragments += sh.live
		st.Edges += sh.edges
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
// any other form records nothing. Like File it never sheds. Frozen for
// bench/; use File.
func (ix *Index) Record(ref, key string) {
	if id, ok := parseRef(ref); ok {
		ids := [1]ID{id}
		ix.File(ids[:], key, ix.hz)
	}
}

// Dependents is Lookup for a "key:gen" ref; a ref of any other form has no
// edges. Frozen for bench/; use Lookup.
func (ix *Index) Dependents(ref string) []string {
	if id, ok := parseRef(ref); ok {
		return ix.Lookup(id)
	}
	return nil
}
