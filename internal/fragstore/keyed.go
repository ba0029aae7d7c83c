package fragstore

import (
	"container/heap"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/clock"
)

// DefaultShards is the shard count used when a configuration leaves
// Shards zero.
const DefaultShards = 16

// maxShards bounds the shard count (beyond this, per-shard fixed overhead
// dominates any contention win).
const maxShards = 1024

// KeyedStore is the package's one storage engine: string keys hashed over
// a power-of-two number of shards with per-shard locks, LRU or GDSF
// eviction, a global byte-budget ledger, per-entry TTL expiry and an
// optional entry-count bound. Every cache tier that can evict is built on
// it — the budgeted sharded fragment backend through its fragment view, the
// tiered backend as its RAM tier, the DPC's whole-response tier and the plan
// cache directly — instead of carrying its own mutex+LRU implementation.
//
// Budgets are global, never per-shard: ByteBudget and MaxEntries are
// enforced on store-wide atomic ledgers, so a skewed key distribution
// filling one shard does not evict while the store as a whole has
// headroom. Eviction is global too: under pressure the store compares
// every shard's local victim candidate (LRU recency via a store-wide
// touch sequence, GDSF priority) and evicts the globally coldest — each
// shard publishes a lower bound on its candidate's score, so the O(shards)
// scan per eviction reads a word per shard and locks only the winner's.
//
// Values returned by Get are shared with the store; callers must not
// modify them. Put copies its input. Expiry is lazy: an expired entry is
// removed by the Get that discovers it (counted as Expired + a miss), or
// by eviction.
type KeyedStore struct {
	shards  []kshard
	mask    uint64
	seed    maphash.Seed
	cfg     KeyedConfig
	clk     clock.Clock
	led     ledger
	entries atomic.Int64 // global resident-entry count (MaxEntries ledger)
	seq     atomic.Int64 // store-wide LRU touch sequence
	// infl is the GDSF aging term L, shared store-wide (float64 bits,
	// raised monotonically to each victim's priority) so priorities are
	// comparable across shards — a per-shard term would skew evictGlobal
	// away from heavily-evicted shards.
	infl atomic.Uint64
}

// KeyedConfig parameterizes a KeyedStore.
type KeyedConfig struct {
	// Shards is rounded up to a power of two; 0 selects DefaultShards.
	Shards int
	// MaxEntries bounds resident entries across all shards (0 =
	// unbounded). Like ByteBudget it is a global bound, not a per-shard
	// partition.
	MaxEntries int
	// ByteBudget bounds resident value bytes across all shards (0 =
	// unbounded). Only Value bytes count; key and Meta overhead does not.
	ByteBudget int64
	// Policy selects the eviction strategy. With a ByteBudget or
	// MaxEntries the zero value selects PolicyLRU: a bounded cache must be
	// able to evict, and LRU is the safe default. With neither bound
	// eviction can never fire, so the zero value stays PolicyNone and hits
	// skip the recency bookkeeping. PolicyGDSF prefers keeping small, hot
	// entries.
	Policy Policy
	// Clock drives TTL expiry; nil selects the real clock.
	Clock clock.Clock
}

// KeyedEntry is one stored value with its caller-owned annotations.
type KeyedEntry struct {
	// Value is the cached payload (a response body, a whole page).
	Value []byte
	// Meta is a small caller-defined tag stored alongside the value (the
	// cache tiers keep the Content-Type here).
	Meta string
	// Gen is a caller-defined generation (the fragment-store adapter
	// keeps the SET tag generation here; cache tiers leave it zero).
	Gen uint32
	// Obj is an optional structured payload stored by reference — never
	// copied, so it must be immutable once stored (the plan cache keeps
	// compiled template programs here). Tiers that use Obj should charge
	// its footprint via Cost.
	Obj any
	// Cost, when positive, overrides len(Value) as the bytes this entry
	// charges against the store's budget and occupancy accounting.
	Cost int64
}

// size is the entry's charge against the byte ledger.
func (e KeyedEntry) size() int64 {
	if e.Cost > 0 {
		return e.Cost
	}
	return int64(len(e.Value))
}

// KeyedStats is a point-in-time snapshot of a KeyedStore's occupancy and
// activity.
type KeyedStats struct {
	Shards     int   `json:"shards"`
	Resident   int   `json:"resident"`
	Bytes      int64 `json:"bytes"`
	ByteBudget int64 `json:"byte_budget"`
	MaxEntries int   `json:"max_entries"`
	// Puts, Hits, Misses, Drops count store operations since creation.
	Puts   int64 `json:"puts"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Drops  int64 `json:"drops"`
	// Expired counts entries removed lazily at their deadline (each also
	// counts as a miss for the Get that discovered it).
	Expired int64 `json:"expired"`
	// Evictions counts entries removed by the eviction policy, and
	// EvictedBytes their cumulative value size.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Keyed is the string-keyed store surface the DPC's whole-response tier
// mounts: a KeyedStore, or a wrapper of one that a caller supplies (a
// tracing decorator, a test double).
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
}

type kshard struct {
	mu      sync.Mutex
	st      *KeyedStore // the store-wide ledgers, sequences and policy
	entries map[string]*kentry
	bytes   int64
	heap    kheap
	free    *kentry // unused entries of the slabs, chained through next
	// cold is a lower bound on the score of the shard's eviction candidate
	// (float64 bits; +Inf while it has none), so coldestKey compares shards
	// without locking them. It is published under mu whenever the candidate
	// can have got colder (an entry arrives) or an entry leaves; a hit only
	// ever warms the candidate, publishes nothing, and leaves the bound low
	// for coldestKey to correct when it locks the shard. coldPub is the
	// value last stored.
	cold    atomic.Uint64
	coldPub float64

	evictions                          int64
	evictedBytes                       int64
	puts, hits, misses, drops, expired atomic.Int64

	// lru is the LRU ring's sentinel: lru.next is the most recent entry,
	// lru.prev the coldest. Only its links are used; it sits last so the
	// rest of it does not spread the fields above over more cache lines.
	lru kentry
}

type kentry struct {
	key      string
	val      KeyedEntry
	deadline time.Time // zero = no expiry

	prev, next *kentry // LRU ring links while resident (prev nil before the first touch); next chains the free list while unused
	touchSeq   int64   // store-wide recency stamp (LRU cross-shard compare)
	freq       int64   // GDSF access count
	prio       float64 // GDSF priority
	hidx       int     // GDSF heap index
}

// entrySlab is how many entries a shard allocates at a time. The
// collector's mark cost per cycle follows the number of objects it walks,
// and one allocation per resident entry doubled it for a fragment store
// (12,000 fragments, measured); entries therefore live in slabs and are
// reused through a free chain.
const entrySlab = 64

// newEntry takes an unused entry, allocating a slab when none is left.
// Called with sh.mu held.
func (sh *kshard) newEntry() *kentry {
	if sh.free == nil {
		slab := make([]kentry, entrySlab)
		for i := range slab[1:] {
			slab[i].next = &slab[i+1]
		}
		sh.free = &slab[0]
	}
	e := sh.free
	sh.free, e.next = e.next, nil
	return e
}

// NewKeyed returns a keyed store.
func NewKeyed(cfg KeyedConfig) (*KeyedStore, error) {
	if cfg.ByteBudget < 0 {
		return nil, fmt.Errorf("fragstore: negative byte budget %d", cfg.ByteBudget)
	}
	if cfg.MaxEntries < 0 {
		return nil, fmt.Errorf("fragstore: negative entry bound %d", cfg.MaxEntries)
	}
	if cfg.Policy == PolicyNone && (cfg.ByteBudget > 0 || cfg.MaxEntries > 0) {
		cfg.Policy = PolicyLRU
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	n := roundShards(cfg.Shards)
	s := &KeyedStore{
		shards: make([]kshard, n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
		cfg:    cfg,
		clk:    clk,
		led:    ledger{budget: cfg.ByteBudget},
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.st = s
		sh.entries = make(map[string]*kentry)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.coldPub = math.Inf(1)
		sh.cold.Store(math.Float64bits(sh.coldPub))
	}
	return s, nil
}

// roundShards maps a configured shard count to the one used: 0 selects
// DefaultShards, and the rest is capped at maxShards and rounded up to a
// power of two.
func roundShards(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	return 1 << bits.Len(uint(min(n, maxShards)-1))
}

// locate returns the shard owning key.
func (s *KeyedStore) locate(key string) *kshard {
	return &s.shards[maphash.String(s.seed, key)&s.mask]
}

// overLimits reports global pressure on either ledger.
func (s *KeyedStore) overLimits() bool {
	if s.led.overBudget() {
		return true
	}
	return s.cfg.MaxEntries > 0 && int(s.entries.Load()) > s.cfg.MaxEntries
}

// freshness is how a lookup treats an entry whose TTL has lapsed.
type freshness int

const (
	// expireLapsed misses on a lapsed entry and removes it (Get).
	expireLapsed freshness = iota
	// keepLapsed misses on a lapsed entry but leaves it resident (GetKeep).
	keepLapsed
	// serveLapsed returns an entry lapsed or not, with how far past its
	// deadline it is, and moves neither the hit nor the miss counter
	// (GetStale).
	serveLapsed
)

// pastDeadline is how far now is past deadline: negative while an entry is
// fresh, zero or more once it has lapsed, and the most negative duration
// for an entry stored without a TTL, which never lapses.
func pastDeadline(now, deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return math.MinInt64
	}
	return now.Sub(deadline)
}

// lookup is the one read path behind Get, GetKeep and GetStale. A served
// entry has its recency (LRU) or frequency (GDSF) refreshed. age is
// reported under serveLapsed only (see pastDeadline).
func (s *KeyedStore) lookup(key string, mode freshness) (val KeyedEntry, age time.Duration, ok bool) {
	sh := s.locate(key)
	sh.mu.Lock()
	e, found := sh.entries[key]
	switch {
	case found && mode == serveLapsed:
		age = pastDeadline(s.clk.Now(), e.deadline)
	case found && !e.deadline.IsZero() && !s.clk.Now().Before(e.deadline):
		if mode == expireLapsed {
			sh.remove(e)
			sh.expired.Add(1)
		}
		found = false
	}
	if found {
		sh.touch(e)
		val = e.val
	}
	sh.mu.Unlock()
	switch {
	case mode == serveLapsed:
	case found:
		sh.hits.Add(1)
	default:
		sh.misses.Add(1)
	}
	return val, age, found
}

// Get returns the entry stored under key, if resident and unexpired. An
// expired entry is removed by the Get that discovers it.
func (s *KeyedStore) Get(key string) (KeyedEntry, bool) {
	e, _, ok := s.lookup(key, expireLapsed)
	return e, ok
}

// GetKeep behaves like Get — hits are counted and an expired entry
// misses — except the expired entry is left resident instead of removed,
// so a later GetStale can still serve it. The proxy's cache-tier stages
// switch to it when admission control is enabled: lazy-expiry removal
// would destroy the very copy stale-while-revalidate exists to serve.
// Resident expired entries are bounded like everything else (entry cap,
// byte ledger) and are replaced by the next Put under their key.
func (s *KeyedStore) GetKeep(key string) (KeyedEntry, bool) {
	e, _, ok := s.lookup(key, keepLapsed)
	return e, ok
}

// GetStale returns the entry stored under key even when its TTL has
// lapsed, along with how far past its deadline it is: negative while still
// fresh, so a caller can tell a fresh entry from one that lapsed exactly at
// its deadline (see pastDeadline). Unlike Get it never removes an expired
// entry — the caller is a stale-while-revalidate path that wants the
// lapsed copy served while a background refresh replaces it. Invalidation
// is unaffected: Delete and DeleteFunc remove entries outright, so a stale
// read can only observe TTL lapse, never invalidated content. The read
// refreshes recency (a key being stale-served is still hot) but is not
// counted as a hit or miss — it is not a freshness lookup.
func (s *KeyedStore) GetStale(key string) (entry KeyedEntry, age time.Duration, ok bool) {
	return s.lookup(key, serveLapsed)
}

// Put stores entry under key for ttl (ttl <= 0 means no expiry). The
// value is copied. When the write pushes the store over its global byte
// budget or entry bound, the globally coldest entries are evicted until
// it fits (the incoming entry is itself a candidate under GDSF — the
// "don't admit what you'd immediately evict" behavior; under LRU it is
// by definition the most recent).
func (s *KeyedStore) Put(key string, entry KeyedEntry, ttl time.Duration) {
	s.store(key, entry, ttl)
	if s.overLimits() {
		s.evictGlobal()
	}
}

// store is Put without the eviction that may have to follow it.
func (s *KeyedStore) store(key string, entry KeyedEntry, ttl time.Duration) {
	var deadline time.Time
	if !s.refuses(entry.size()) {
		cp := make([]byte, len(entry.Value))
		copy(cp, entry.Value)
		entry.Value = cp
		if ttl > 0 {
			deadline = s.clk.Now().Add(ttl)
		}
	}
	s.insert(key, entry, deadline, false)
}

// refuses reports whether an entry of size bytes is larger than the entire
// budget and so can never fit.
func (s *KeyedStore) refuses(size int64) bool {
	return s.led.budget > 0 && size > s.led.budget
}

// hasRoom reports whether an entry of size bytes can be added without
// pushing the store over either limit: admitting it would evict nobody.
func (s *KeyedStore) hasRoom(size int64) bool {
	if s.led.budget > 0 && s.led.Used()+size > s.led.budget {
		return false
	}
	return s.cfg.MaxEntries <= 0 || int(s.entries.Load()) < s.cfg.MaxEntries
}

// insert files entry under key without relieving the pressure it may
// cause; the caller follows with an eviction loop. It takes ownership of
// entry.Value and an absolute deadline (zero = none) — the tiered store's
// promotion hands over what it read from disk as it stands. With ifAbsent
// a resident entry is left alone and the result is false: a promotion must
// never replace what a Put stored meanwhile.
func (s *KeyedStore) insert(key string, entry KeyedEntry, deadline time.Time, ifAbsent bool) bool {
	// A value larger than the entire budget can never fit: refuse
	// admission (counted as an eviction of the refused bytes) rather than
	// emptying the store to make room, and drop any stale entry the
	// refused write was replacing.
	refused := s.refuses(entry.size())
	sh := s.locate(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && ifAbsent {
		sh.mu.Unlock()
		return false
	}
	sh.puts.Add(1)
	if refused {
		if ok {
			sh.remove(e)
		}
		sh.evictions++
		sh.evictedBytes += entry.size()
	} else {
		if !ok {
			e = sh.newEntry()
			e.key = key
			sh.entries[key] = e
			sh.st.entries.Add(1)
		}
		delta := entry.size() - e.val.size() // a new entry's value is empty
		sh.bytes += delta
		sh.st.led.reserve(delta)
		e.val, e.deadline = entry, deadline
		sh.touch(e)
	}
	sh.mu.Unlock()
	return !refused
}

// evictGlobal relieves budget pressure by repeatedly evicting the
// globally coldest entry. The tiered store runs the same loop itself, so
// that each victim crosses to its disk tier instead of being dropped.
func (s *KeyedStore) evictGlobal() {
	for s.overLimits() {
		key, ok := s.coldestKey()
		if !ok {
			return // store is empty; nothing left to give back
		}
		s.evictKey(key)
	}
}

// coldestKey compares every shard's victim candidate (its LRU tail or GDSF
// heap minimum) and returns the key of the coldest of those minima — which
// is the store-wide minimum, so the global policy order is exact, not a
// per-shard approximation. The published scores are read without the
// shards' locks and only the winner is locked, to read its key. A published
// score is a lower bound: if hits have since warmed the winner's candidate
// the bound is corrected under the lock and the scan repeated, at most once
// per shard. A concurrent touch can warm the chosen key before it is
// evicted — a benign inversion bounded by one concurrent access.
func (s *KeyedStore) coldestKey() (key string, ok bool) {
	for {
		var coldest *kshard
		best := math.Inf(1)
		for i := range s.shards {
			if m := math.Float64frombits(s.shards[i].cold.Load()); m < best {
				best, coldest = m, &s.shards[i]
			}
		}
		if coldest == nil {
			return "", false
		}
		coldest.mu.Lock()
		e, _ := coldest.coldest()
		if e != nil {
			key = e.key
		}
		exact := !coldest.publishCold()
		coldest.mu.Unlock()
		if exact && e != nil {
			return key, true
		}
	}
}

// evictKey removes the entry under key as a policy eviction and returns a
// copy of it, so the caller can pass the victim on once the lock is
// released.
func (s *KeyedStore) evictKey(key string) (kentry, bool) {
	sh := s.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return kentry{}, false
	}
	if s.cfg.Policy == PolicyGDSF {
		sh.raiseInflation(e.prio) // GDSF aging term L
	}
	victim := *e
	sh.evictions++
	sh.evictedBytes += victim.val.size()
	sh.remove(e)
	return victim, true
}

// coldest returns this shard's eviction candidate (nil when it has none)
// and its score for the cross-shard compare: lower is colder. Called with
// sh.mu held.
func (sh *kshard) coldest() (*kentry, float64) {
	switch sh.st.cfg.Policy {
	case PolicyLRU:
		if e := sh.lru.prev; e != &sh.lru {
			return e, float64(e.touchSeq)
		}
	case PolicyGDSF:
		if len(sh.heap) > 0 {
			return sh.heap[0], sh.heap[0].prio
		}
	}
	return nil, 0
}

// DeleteFunc removes every resident entry whose key satisfies pred,
// returning how many were dropped. It takes each shard's lock once, so
// pred must be fast and must not call back into the store. Cache tiers
// use it for scoped drops the exact-key API cannot express — e.g. purging
// every variant of one URI, whose keys share a prefix.
func (s *KeyedStore) DeleteFunc(pred func(key string) bool) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			//dpclint:ignore lockscope pred is contract-bound (doc comment) to be fast and never re-enter the store; snapshotting keys to call it unlocked would cost O(resident) per sweep on the invalidation path
			if pred(k) {
				sh.remove(e)
				sh.drops.Add(1)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// ReserveScratch charges n transient bytes (negative releases them)
// against the store's global byte ledger without storing anything: the
// page tier accounts its in-flight capture buffers here so a storm of
// concurrent captures evicts resident entries to make room instead of
// blowing past the budget. No-op on an unbounded store. Scratch bytes
// are never evictable — the caller must release exactly what it
// reserved once the capture is filed or given up.
func (s *KeyedStore) ReserveScratch(n int64) {
	if s.reserveScratch(n) {
		s.evictGlobal()
	}
}

// reserveScratch moves the ledger and reports whether the store is now
// over a limit and must evict.
func (s *KeyedStore) reserveScratch(n int64) bool {
	if s.led.budget <= 0 || n == 0 {
		return false
	}
	s.led.reserve(n)
	return n > 0 && s.overLimits()
}

// Range calls fn for every resident entry (expired ones included) until
// fn returns false. Each shard's contents are snapshotted under its lock
// and fn runs unlocked, so fn may call back into the store; entries
// added or removed while Range runs may or may not be seen. The tiered
// store's clean shutdown drains the RAM tier to disk through this.
func (s *KeyedStore) Range(fn func(key string, e KeyedEntry, deadline time.Time) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		entries := make([]kentry, 0, len(sh.entries))
		for _, e := range sh.entries {
			entries = append(entries, *e)
		}
		sh.mu.Unlock()
		for _, e := range entries {
			if !fn(e.key, e.val, e.deadline) {
				return
			}
		}
	}
}

// Delete removes the entry under key, reporting whether one was resident.
func (s *KeyedStore) Delete(key string) bool {
	sh := s.locate(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.remove(e)
		sh.drops.Add(1)
	}
	sh.mu.Unlock()
	return ok
}

// Flush removes every resident entry.
func (s *KeyedStore) Flush() { s.DeleteFunc(func(string) bool { return true }) }

// Len returns the number of resident entries.
func (s *KeyedStore) Len() int { return int(s.entries.Load()) }

// Bytes returns the total resident value bytes.
func (s *KeyedStore) Bytes() int64 { return s.Stats().Bytes }

// BudgetUsed returns the global byte ledger's current reservation.
func (s *KeyedStore) BudgetUsed() int64 { return s.led.Used() }

// Stats returns a point-in-time snapshot of store activity.
func (s *KeyedStore) Stats() KeyedStats {
	st := KeyedStats{
		Shards:     len(s.shards),
		ByteBudget: s.cfg.ByteBudget,
		MaxEntries: s.cfg.MaxEntries,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Resident += len(sh.entries)
		st.Bytes += sh.bytes
		st.Evictions += sh.evictions
		st.EvictedBytes += sh.evictedBytes
		sh.mu.Unlock()
		st.Puts += sh.puts.Load()
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Drops += sh.drops.Load()
		st.Expired += sh.expired.Load()
	}
	return st
}

// --- per-shard policy plumbing (kshard.mu held throughout) ---

// touch records an access to e; the first one admits it to the policy's
// order.
func (sh *kshard) touch(e *kentry) {
	switch sh.st.cfg.Policy {
	case PolicyLRU:
		if sh.lru.next != e {
			if e.prev != nil {
				e.prev.next, e.next.prev = e.next, e.prev
			}
			e.prev, e.next = &sh.lru, sh.lru.next
			e.next.prev = e
			sh.lru.next = e
		}
		e.touchSeq = sh.st.seq.Add(1)
		if sh.lru.prev == e && sh.coldPub > float64(e.touchSeq) {
			sh.publishCold() // the first entry of an empty shard
		}
	case PolicyGDSF:
		e.freq++
		e.prio = sh.inflation() + gdsfValue(e)
		if e.freq == 1 {
			heap.Push(&sh.heap, e)
		} else {
			heap.Fix(&sh.heap, e.hidx)
		}
		if sh.heap[0] == e && sh.coldPub > e.prio {
			sh.publishCold() // a new entry, or one rewritten larger, may be the coldest yet
		}
	}
}

// publishCold publishes the shard's candidate score and reports whether
// what stood published was out of date.
func (sh *kshard) publishCold() (moved bool) {
	m := math.Inf(1)
	if e, score := sh.coldest(); e != nil {
		m = score
	}
	if moved = m != sh.coldPub; moved {
		sh.coldPub = m
		sh.cold.Store(math.Float64bits(m))
	}
	return moved
}

// inflation reads the store-wide GDSF aging term.
func (sh *kshard) inflation() float64 {
	return math.Float64frombits(sh.st.infl.Load())
}

// raiseInflation lifts the aging term to at least p (GDSF's L := victim
// priority; monotone, so a CAS max loop suffices).
func (sh *kshard) raiseInflation(p float64) {
	for {
		old := sh.st.infl.Load()
		if math.Float64frombits(old) >= p || sh.st.infl.CompareAndSwap(old, math.Float64bits(p)) {
			return
		}
	}
}

func (sh *kshard) remove(e *kentry) {
	sh.bytes -= e.val.size()
	sh.st.led.reserve(-e.val.size())
	sh.st.entries.Add(-1)
	switch sh.st.cfg.Policy {
	case PolicyLRU:
		e.prev.next, e.next.prev = e.next, e.prev
	case PolicyGDSF:
		heap.Remove(&sh.heap, e.hidx)
	}
	delete(sh.entries, e.key)
	*e = kentry{next: sh.free} // lets go of the value; the slot is reused
	sh.free = e
	sh.publishCold() // a store without a policy has +Inf standing and stores nothing
}

// gdsfValue is the unaged GDSF priority term frequency·cost/size with unit
// cost: keeping an entry is worth more the hotter and smaller it is.
func gdsfValue(e *kentry) float64 {
	size := e.val.size()
	if size < 1 {
		size = 1
	}
	return float64(e.freq) / float64(size)
}

// kheap is a min-heap of entries by GDSF priority.
type kheap []*kentry

func (h kheap) Len() int           { return len(h) }
func (h kheap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h kheap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].hidx = i; h[j].hidx = j }
func (h *kheap) Push(x any)        { e := x.(*kentry); e.hidx = len(*h); *h = append(*h, e) }
func (h *kheap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// AsFragmentStore returns a view of the store under the FragmentStore
// contract; see fragmentView.
func (s *KeyedStore) AsFragmentStore(capacity int) (FragmentStore, error) {
	return newFragmentView(s, "keyed", capacity)
}

// read and put are the fragment view's access to the store (see engine): a
// RAM-only engine has no scratch to fill and no tier to cross, and its
// fragments never expire.
func (s *KeyedStore) read(key string, _ *Scratch) (KeyedEntry, bool, Crossings) {
	e, ok := s.Get(key)
	return e, ok, Crossings{}
}

func (s *KeyedStore) put(key string, e KeyedEntry) { s.Put(key, e, 0) }

// peek returns the entry under key, lapsed or not, without counting the
// read or touching the entry's recency or frequency.
func (s *KeyedStore) peek(key string) (KeyedEntry, bool) {
	sh := s.locate(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	var val KeyedEntry
	if ok {
		val = e.val
	}
	sh.mu.Unlock()
	return val, ok
}
