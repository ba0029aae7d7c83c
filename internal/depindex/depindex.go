// Package depindex tracks which cache-tier entries were composed from
// which fragments, so a fragment invalidation can be fanned out to the
// page and static tiers surgically instead of waiting for their TTLs.
//
// The paper's correctness story for dynamic content is that freshness is
// enforced by *invalidation*, not time: the BEM knows the moment a
// fragment dies. But a whole-page entry is an opaque byte blob — the tier
// that holds it cannot know which fragments are inside. The dependency
// index is the missing edge set: during assembly the proxy records, for
// every fragment reference whose bytes entered a captured page, an edge
//
//	fragment ref ("dpcKey:gen") → page/static store key
//
// and the coherency fabric's tier subscribers consult it on each
// invalidation to drop exactly the entries built from the dead fragment.
//
// The index is best-effort storage with *sound degradation*: it is
// sharded, byte-bounded, and evicts least-recently-recorded fragments
// under pressure. Because a missing edge must never mean a missed
// invalidation, every answer is qualified: Dependents reports exact=false
// whenever the asked-for fragment could have lost edges to eviction
// recently (each eviction opens a conservative window of one Horizon —
// the maximum lifetime of the entries the index describes — during which
// no answer from the shard, hit or miss, is trusted), and the subscriber
// falls back to a scoped flush of its tier. Edges themselves expire after Horizon: an entry the tier already
// let go by TTL needs no edge, and a stale edge costs at worst one
// redundant Delete of a non-resident key.
//
// The index also arbitrates the fill/invalidate race. A page capture is
// in flight for the whole request: its fragments are read early, the
// finished page is filed late, and an invalidation landing in between
// would find nothing to delete yet — the stale page would be filed
// *after* the drop and survive until TTL. Two mechanisms close this:
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
package depindex

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/clock"
)

// Ref names a fragment reference the way invalidation events do: the DPC
// slot key plus the generation, "key:gen". A generation is invalidated at
// most once, so edges keyed this way are exact — slot reuse bumps the
// generation and cannot alias old edges onto new fragments.
func Ref(key, gen uint32) string { return fmt.Sprintf("%d:%d", key, gen) }

// Config parameterizes an Index.
type Config struct {
	// Shards is rounded up to a power of two; 0 selects 16.
	Shards int
	// ByteBudget bounds the retained edge bytes (ref + key string bytes
	// plus a fixed per-edge overhead); 0 selects 1 MiB. Over budget, the
	// least-recently-recorded fragment's edges are evicted and the
	// owning shard answers misses conservatively for one Horizon.
	ByteBudget int64
	// Horizon is the maximum lifetime of the entries the index describes
	// (the page tier's TTL): edges expire after it, and an eviction's
	// conservative-miss window closes after it. 0 selects 2s.
	Horizon time.Duration
	// Clock drives expiry; nil selects the real clock.
	Clock clock.Clock
}

// Stats is a point-in-time snapshot of index occupancy and activity.
type Stats struct {
	Fragments int   `json:"fragments"`
	Edges     int   `json:"edges"`
	Bytes     int64 `json:"bytes"`
	// Records counts Record calls; Evictions counts fragments whose
	// edges were evicted under byte pressure.
	Records   int64 `json:"records"`
	Evictions int64 `json:"evictions"`
	// Lookups counts Dependents calls; Inexact counts the ones answered
	// conservatively (the caller had to fall back to a scoped flush).
	Lookups int64 `json:"lookups"`
	Inexact int64 `json:"inexact"`
	// Tombstones counts currently retained invalidated-ref markers.
	Tombstones int `json:"tombstones"`
}

// perEdgeOverhead approximates the map/list bookkeeping bytes charged per
// edge on top of the string bytes themselves.
const perEdgeOverhead = 64

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
	shards []ishard
	mask   uint64
	seed   maphash.Seed
	clk    clock.Clock
	budget int64
	hz     time.Duration

	bytes atomic.Int64
	epoch atomic.Uint64
	// filing orders fills (shared) against tombstones and epoch bumps
	// (exclusive); see the package comment.
	filing sync.RWMutex

	records, evictions, lookups, inexact atomic.Int64
}

type ishard struct {
	mu    sync.Mutex
	frags map[string]*fragEntry
	lru   *list.List // front = most recently recorded; values are *fragEntry
	// tomb holds invalidated refs (MarkInvalid) until their deadline.
	tomb map[string]time.Time
	// inexactUntil: after an eviction, every answer from this shard is
	// qualified exact=false (a re-recorded fragment may be missing its
	// pre-eviction edges) until the evicted edges' entries have
	// certainly expired from the tiers they described.
	inexactUntil time.Time
	epoch        *atomic.Uint64
}

type fragEntry struct {
	ref   string
	keys  map[string]time.Time // dependent key → edge deadline
	bytes int64
	elem  *list.Element
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
		shards: make([]ishard, p),
		mask:   uint64(p - 1),
		seed:   maphash.MakeSeed(),
		clk:    clk,
		budget: budget,
		hz:     hz,
	}
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.frags = make(map[string]*fragEntry)
		sh.lru = list.New()
		sh.tomb = make(map[string]time.Time)
		sh.epoch = &ix.epoch
	}
	return ix
}

func (ix *Index) locate(ref string) *ishard {
	return &ix.shards[maphash.String(ix.seed, ref)&ix.mask]
}

// Record adds (or refreshes) the edge ref → key. The edge expires after
// the index's Horizon — the longest the described entry can stay
// resident — so the index never outremembers the tiers it describes.
func (ix *Index) Record(ref, key string) {
	ix.records.Add(1)
	now := ix.clk.Now()
	deadline := now.Add(ix.hz)
	sh := ix.locate(ref)
	sh.mu.Lock()
	e, ok := sh.frags[ref]
	if !ok {
		e = &fragEntry{ref: ref, keys: make(map[string]time.Time)}
		e.bytes = int64(len(ref)) + perEdgeOverhead
		e.elem = sh.lru.PushFront(e)
		sh.frags[ref] = e
		ix.bytes.Add(e.bytes)
	} else {
		sh.lru.MoveToFront(e.elem)
	}
	if _, dup := e.keys[key]; !dup {
		delta := int64(len(key)) + perEdgeOverhead
		e.bytes += delta
		ix.bytes.Add(delta)
	}
	e.keys[key] = deadline
	sh.mu.Unlock()
	if ix.bytes.Load() > ix.budget {
		ix.evict(now)
	}
}

// evict drops least-recently-recorded fragments, round-robin across
// shards, until the index is back under budget. Each eviction opens the
// owning shard's conservative-miss window.
func (ix *Index) evict(now time.Time) {
	until := now.Add(ix.hz)
	for ix.bytes.Load() > ix.budget {
		evicted := false
		for i := range ix.shards {
			sh := &ix.shards[i]
			sh.mu.Lock()
			if back := sh.lru.Back(); back != nil {
				e := back.Value.(*fragEntry)
				sh.removeLocked(e)
				ix.bytes.Add(-e.bytes)
				if until.After(sh.inexactUntil) {
					sh.inexactUntil = until
				}
				ix.evictions.Add(1)
				evicted = true
			}
			sh.mu.Unlock()
			if ix.bytes.Load() <= ix.budget {
				return
			}
		}
		if !evicted {
			return // nothing left to give back
		}
	}
}

func (sh *ishard) removeLocked(e *fragEntry) {
	sh.lru.Remove(e.elem)
	delete(sh.frags, e.ref)
}

// Dependents returns the keys recorded as composed from ref. exact
// reports whether the answer is authoritative: when false (the shard
// evicted edges recently, so ref's may be among the lost), the caller
// must treat every entry of its tier as a potential dependent and flush.
// The window applies to hits as well as misses — a fragment whose entry
// was evicted and then re-recorded holds only its post-eviction edges,
// so inside the window even a hit may be missing dependents.
func (ix *Index) Dependents(ref string) (keys []string, exact bool) {
	ix.lookups.Add(1)
	now := ix.clk.Now()
	sh := ix.locate(ref)
	sh.mu.Lock()
	exact = !now.Before(sh.inexactUntil)
	e, ok := sh.frags[ref]
	if !ok {
		sh.mu.Unlock()
		if !exact {
			ix.inexact.Add(1)
		}
		return nil, exact
	}
	var removed int64
	for k, deadline := range e.keys {
		if now.Before(deadline) {
			keys = append(keys, k)
		} else {
			delete(e.keys, k)
			removed += int64(len(k)) + perEdgeOverhead
		}
	}
	e.bytes -= removed
	if len(e.keys) == 0 {
		removed += int64(len(e.ref)) + perEdgeOverhead
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
	ix.bytes.Add(-removed)
	if !exact {
		ix.inexact.Add(1)
	}
	return keys, exact
}

// MarkInvalid tombstones an invalidated ref so in-flight fills whose
// fragments were read before the invalidation refuse to file their
// capture. It waits for fills holding Filing, so their edges are in place
// when it returns. Subscribers call it before deleting dependents.
func (ix *Index) MarkInvalid(ref string) {
	now := ix.clk.Now()
	sh := ix.locate(ref)
	ix.filing.Lock()
	defer ix.filing.Unlock()
	sh.mu.Lock()
	if len(sh.tomb) >= maxTombstones {
		for r, deadline := range sh.tomb {
			if !now.Before(deadline) {
				delete(sh.tomb, r)
			}
		}
		if len(sh.tomb) >= maxTombstones {
			// Still full: forget selectively remembering and make every
			// in-flight fill discard instead.
			sh.tomb = make(map[string]time.Time)
			sh.epoch.Add(1)
		}
	}
	sh.tomb[ref] = now.Add(tombstoneTTL)
	sh.mu.Unlock()
}

// Filing returns the lock a filler holds from its AnyInvalid and Epoch
// checks until its entry is recorded and put.
func (ix *Index) Filing() sync.Locker { return ix.filing.RLocker() }

// AnyInvalid reports whether any of refs has been marked invalid within
// the tombstone window. Fillers call it, under Filing, before filing a
// capture.
func (ix *Index) AnyInvalid(refs []string) bool {
	if len(refs) == 0 {
		return false
	}
	now := ix.clk.Now()
	for _, ref := range refs {
		sh := ix.locate(ref)
		sh.mu.Lock()
		deadline, ok := sh.tomb[ref]
		sh.mu.Unlock()
		if ok && now.Before(deadline) {
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
// whenever they flush (sequence gap, flush-scope event).
func (ix *Index) BumpEpoch() {
	ix.filing.Lock()
	ix.epoch.Add(1)
	ix.filing.Unlock()
}

// Flush empties the index (edges and tombstones) and bumps the epoch.
func (ix *Index) Flush() {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		for _, e := range sh.frags {
			ix.bytes.Add(-e.bytes)
		}
		sh.frags = make(map[string]*fragEntry)
		sh.lru.Init()
		sh.tomb = make(map[string]time.Time)
		sh.inexactUntil = time.Time{}
		sh.mu.Unlock()
	}
	ix.BumpEpoch()
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
		st.Fragments += len(sh.frags)
		for _, e := range sh.frags {
			st.Edges += len(e.keys)
		}
		st.Tombstones += len(sh.tomb)
		sh.mu.Unlock()
	}
	return st
}
