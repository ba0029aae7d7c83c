// Package bem implements the Back End Monitor of Section 4.3.3: the
// component that lives beside the application server, watches script
// execution, and owns *all* cache-management state for the Dynamic Proxy
// Cache.
//
// The BEM's central data structure is the cache directory, mapping
//
//	fragmentID (name + parameterList) → {dpcKey, gen, isValid, ttl, …}
//
// plus the freeList of reusable integer dpcKeys. The common integer key is
// the paper's trick for avoiding any explicit BEM→DPC control channel: the
// DPC learns about slot assignments purely from SET instructions embedded
// in response templates, and invalid slots are simply never referenced
// again until a SET reuses them.
//
// Fragments become invalid through (a) TTL expiry, (b) updates to the
// underlying data sources (the dependency index + the repository's update
// bus), or (c) the LRU replacement manager reclaiming slots when the
// directory is full. In every case the key is appended to the *tail* of the
// freeList, so a key is reused as late as possible — the paper's argument
// for why in-flight references drain before a slot changes meaning. The
// generation number (a BEM-wide counter) makes reuse detectable by the
// strict-mode DPC even under concurrency.
//
// A generation's dependencies are the rows Depend registered for it, each
// before it was read: the one record of what the entry was built from,
// cleared when a miss hands out the next generation. The origin keeps a
// page's shell here as well — an entry with no bytes whose dependencies are
// the rows the page's layout and untagged blocks read — so the directory is
// the one authority on whether a template, and not only each of its
// fragments, is still valid.
package bem

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/metrics"
	"dpcache/internal/repository"
)

// Config parameterizes a Monitor.
type Config struct {
	// Capacity is the number of DPC slots (and the maximum number of
	// simultaneously valid fragments). Required, > 0.
	Capacity int
	// Clock supplies time for TTL bookkeeping; defaults to the real clock.
	Clock clock.Clock
	// ForcedMissProb is an experiment hook: on each lookup of a valid
	// fragment, with this probability the fragment is invalidated and the
	// lookup proceeds as a miss. Figure 5 uses it to pin the hit ratio h.
	ForcedMissProb float64
	// Seed seeds the forced-miss RNG (so experiments are reproducible).
	Seed int64
	// Registry receives bem.* metrics; optional.
	Registry *metrics.Registry
}

// entry is one cache-directory record (paper's table in Section 4.3.3).
type entry struct {
	fragmentID string
	dpcKey     uint32
	gen        uint32
	valid      bool
	expiry     time.Time // zero when the fragment has no TTL
	size       int
	lastUsed   int64 // LRU tick
	hits       int64
	deps       []repository.Key
	// older and newer link the valid entries in recency order (see
	// Monitor.oldest); both are nil while the entry is invalid.
	older, newer *entry
}

// FragmentInfo is a read-only view of one directory entry, for
// operational introspection (the /stats endpoint and capacity planning).
type FragmentInfo struct {
	FragmentID string
	DpcKey     uint32
	Gen        uint32
	Valid      bool
	Size       int
	Hits       int64
}

// InvalidationReason says why a fragment became invalid; the invalidation
// hook reports it so downstream consumers (the coherency fabric, metrics)
// can distinguish data-driven drops from TTL churn and slot pressure.
type InvalidationReason string

// Invalidation reasons, matching the Stats counters.
const (
	// ReasonTTL: the fragment's time-to-live expired.
	ReasonTTL InvalidationReason = "ttl"
	// ReasonData: a repository write touched a declared dependency.
	ReasonData InvalidationReason = "data"
	// ReasonExplicit: Invalidate was called on the fragment by name.
	ReasonExplicit InvalidationReason = "explicit"
	// ReasonStale: a DPC reported it could not satisfy a GET for the slot.
	ReasonStale InvalidationReason = "stale"
	// ReasonEviction: the replacement manager reclaimed the slot.
	ReasonEviction InvalidationReason = "eviction"
	// ReasonForced: the experiment hook forced a miss.
	ReasonForced InvalidationReason = "forced"
)

// Decision is the outcome of a Lookup.
type Decision struct {
	// Hit reports whether the fragment may be served from the DPC. On a
	// hit the caller emits GET(Key, Gen); on a miss it generates content
	// and emits SET(Key, Gen, content) followed by Commit.
	Hit bool
	Key uint32
	Gen uint32
	// Expiry is when the entry's TTL runs out, zero when it has none.
	Expiry time.Time
}

// Stats is a point-in-time summary of monitor activity.
type Stats struct {
	Lookups               int64
	Hits                  int64
	Misses                int64
	ForcedMisses          int64
	Evictions             int64
	TTLInvalidations      int64
	DataInvalidations     int64
	ExplicitInvalidations int64
	StaleInvalidations    int64
	DirectorySize         int
	ValidFragments        int
	FreeKeys              int
}

// HitRatio returns hits/lookups, the paper's h, or 0 when no lookups.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Monitor is the Back End Monitor. It is safe for concurrent use.
type Monitor struct {
	mu   sync.Mutex
	cfg  Config
	clk  clock.Clock
	dir  map[string]*entry
	free *keyQueue
	// byKey records which fragmentID a dpcKey was most recently assigned
	// to, so stale directory entries are purged when their key is reused.
	byKey map[uint32]string
	deps  map[repository.Key]map[string]struct{}
	rng   *rand.Rand

	genCounter uint32
	lruTick    int64
	// oldest and newest are the ends of the recency list: every valid
	// entry, in the order of its lastUsed tick. A hit relinks one entry, an
	// invalidation unlinks one, and the replacement manager's victim is
	// oldest — no search, whatever the directory's size.
	oldest, newest *entry
	// evictVisited counts the entries the replacement manager has examined
	// in choosing victims: one per eviction, which the tests hold it to.
	evictVisited int64

	stats Stats

	// pendingHooks accumulates invalidations performed while holding mu;
	// public entry points drain it after unlocking.
	pendingHooks []hookEvent

	// onInvalidate hooks fire (outside the monitor lock) after a fragment
	// is invalidated; the coherency extension uses this to broadcast to
	// edge DPCs and the keyed cache tiers.
	hookMu       sync.RWMutex
	onInvalidate []func(fragmentID string, key, gen uint32, reason InvalidationReason)
}

type hookEvent struct {
	fragmentID string
	key, gen   uint32
	reason     InvalidationReason
}

// New returns a Monitor with all dpcKeys [0, Capacity) on the freeList.
func New(cfg Config) (*Monitor, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("bem: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.ForcedMissProb < 0 || cfg.ForcedMissProb > 1 {
		return nil, fmt.Errorf("bem: forced-miss probability %v outside [0,1]", cfg.ForcedMissProb)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	m := &Monitor{
		cfg:   cfg,
		clk:   clk,
		dir:   make(map[string]*entry),
		free:  newKeyQueue(cfg.Capacity),
		byKey: make(map[uint32]string),
		deps:  make(map[repository.Key]map[string]struct{}),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for k := 0; k < cfg.Capacity; k++ {
		m.free.push(uint32(k))
	}
	return m, nil
}

// BindRepo subscribes the monitor to a repository's update bus so that
// writes invalidate dependent fragments automatically.
func (m *Monitor) BindRepo(r *repository.Repo) {
	r.Subscribe(func(ev repository.UpdateEvent) {
		m.InvalidateDependents(ev.Key)
	})
}

// OnInvalidate registers a hook called after every invalidation with the
// fragment's identity (ID, slot key, generation) and the reason it died
// (TTL, data-driven, explicit, stale report, eviction, or forced miss).
// Hooks run outside the monitor lock.
func (m *Monitor) OnInvalidate(fn func(fragmentID string, key, gen uint32, reason InvalidationReason)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.onInvalidate = append(m.onInvalidate, fn)
}

// drainHooksLocked takes the pending events; the caller fires them after
// releasing m.mu.
func (m *Monitor) drainHooksLocked() []hookEvent {
	evs := m.pendingHooks
	m.pendingHooks = nil
	return evs
}

func (m *Monitor) fire(evs []hookEvent) {
	if len(evs) == 0 {
		return
	}
	m.hookMu.RLock()
	hooks := m.onInvalidate
	m.hookMu.RUnlock()
	for _, ev := range evs {
		for _, fn := range hooks {
			fn(ev.fragmentID, ev.key, ev.gen, ev.reason)
		}
	}
}

// Lookup consults the cache directory for fragmentID, implementing the two
// run-time cases of Section 4.3.2. On a miss the directory entry is created
// (or revalidated) immediately — dpcKey assigned from the freeList head,
// generation bumped, the dependencies of the generation before it cleared —
// and the caller is expected to generate the fragment, calling Depend
// before each row it reads, emit a SET carrying the returned key and
// generation, then call Commit with the fragment's size.
//
// ttl <= 0 means the fragment does not expire by time.
func (m *Monitor) Lookup(fragmentID string, ttl time.Duration) (Decision, error) {
	m.mu.Lock()
	m.stats.Lookups++
	m.lruTick++
	now := m.clk.Now()

	e, ok := m.dir[fragmentID]
	if ok && e.valid && !e.expiry.IsZero() && !now.Before(e.expiry) {
		// Lazy TTL invalidation.
		m.invalidateLocked(e, &m.stats.TTLInvalidations, ReasonTTL)
	}
	if ok && e.valid && m.cfg.ForcedMissProb > 0 && m.rng.Float64() < m.cfg.ForcedMissProb {
		m.invalidateLocked(e, &m.stats.ForcedMisses, ReasonForced)
	}

	if ok && e.valid {
		m.stats.Hits++
		e.hits++
		m.unlinkLocked(e)
		m.touchLocked(e)
		d := Decision{Hit: true, Key: e.dpcKey, Gen: e.gen, Expiry: e.expiry}
		evs := m.drainHooksLocked()
		m.mu.Unlock()
		m.fire(evs)
		return d, nil
	}

	// Miss: case 1 of Section 4.3.2. Insert/refresh the directory entry.
	m.stats.Misses++
	key, err := m.allocKeyLocked()
	if err != nil {
		evs := m.drainHooksLocked()
		m.mu.Unlock()
		m.fire(evs)
		return Decision{}, err
	}
	m.genCounter++
	gen := m.genCounter
	// allocKeyLocked may have purged this fragment's own stale entry
	// (when the popped key is the one it used to hold), so re-fetch.
	e, ok = m.dir[fragmentID]
	if !ok {
		e = &entry{fragmentID: fragmentID}
		m.dir[fragmentID] = e
	}
	m.clearDepsLocked(e)
	e.dpcKey = key
	e.gen = gen
	e.valid = true
	m.touchLocked(e)
	if ttl > 0 {
		e.expiry = now.Add(ttl)
	} else {
		e.expiry = time.Time{}
	}
	m.byKey[key] = fragmentID
	d := Decision{Hit: false, Key: key, Gen: gen, Expiry: e.expiry}
	evs := m.drainHooksLocked()
	m.mu.Unlock()
	m.fire(evs)
	return d, nil
}

// Now is the time on the monitor's clock, the one TTL expiries are read
// against.
func (m *Monitor) Now() time.Time { return m.clk.Now() }

// Clock is the monitor's clock, for what its origin times on it.
func (m *Monitor) Clock() clock.Clock { return m.clk }

// Depend registers row k as a data dependency of the generation gen of
// fragmentID, before whoever renders it reads k. It is the only way a
// dependency is recorded: from then on a write to k invalidates the entry,
// until a Lookup miss hands out another generation and clears them.
// Registered after the read, a write landing between the two would find
// nothing to invalidate, and the entry would stay valid — and be named by
// every concurrent Lookup that hits it — with content older than the row.
// Registered first, such a write is either seen by the read or invalidates
// the entry. A generation the entry no longer has registers nothing.
func (m *Monitor) Depend(fragmentID string, gen uint32, k repository.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.dir[fragmentID]
	if !ok || !e.valid || e.gen != gen {
		return
	}
	set, ok := m.deps[k]
	if !ok {
		set = make(map[string]struct{})
		m.deps[k] = set
	}
	if _, dup := set[fragmentID]; !dup {
		set[fragmentID] = struct{}{}
		e.deps = append(e.deps, k)
	}
}

// Commit records the content size (for stats) of the generation gen of a
// fragment that just missed. A generation the entry no longer has commits
// nothing: whoever revalidated the entry commits its own.
func (m *Monitor) Commit(fragmentID string, gen uint32, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.dir[fragmentID]; ok && e.gen == gen {
		e.size = size
	}
}

// clearDepsLocked forgets every dependency of e.
func (m *Monitor) clearDepsLocked(e *entry) {
	for _, d := range e.deps {
		if set, ok := m.deps[d]; ok {
			delete(set, e.fragmentID)
			if len(set) == 0 {
				delete(m.deps, d)
			}
		}
	}
	e.deps = e.deps[:0]
}

// Earliest is the earlier of two TTL expiries, where zero means none.
func Earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// allocKeyLocked pops a free dpcKey, evicting the LRU valid fragment when
// the freeList is empty (the replacement manager of Section 4.3.3).
func (m *Monitor) allocKeyLocked() (uint32, error) {
	for {
		key, ok := m.free.pop()
		if !ok {
			if err := m.evictLRULocked(); err != nil {
				return 0, err
			}
			continue
		}
		// Purge the stale directory entry that last held this key, if
		// it is still parked there invalid.
		if old, ok := m.byKey[key]; ok {
			if oe, ok := m.dir[old]; ok && oe.dpcKey == key && !oe.valid {
				m.removeEntryLocked(oe)
			}
			delete(m.byKey, key)
		}
		return key, nil
	}
}

func (m *Monitor) evictLRULocked() error {
	victim := m.oldest
	if victim == nil {
		return fmt.Errorf("bem: freeList empty but no valid fragment to evict (capacity %d)", m.cfg.Capacity)
	}
	m.evictVisited++
	m.invalidateLocked(victim, &m.stats.Evictions, ReasonEviction)
	return nil
}

// touchLocked stamps e, which is valid and off the recency list, with the
// current tick and links it in as the newest.
func (m *Monitor) touchLocked(e *entry) {
	e.lastUsed = m.lruTick
	e.older, e.newer = m.newest, nil
	if m.newest != nil {
		m.newest.newer = e
	} else {
		m.oldest = e
	}
	m.newest = e
}

// unlinkLocked takes e off the recency list.
func (m *Monitor) unlinkLocked(e *entry) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		m.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		m.newest = e.older
	}
	e.older, e.newer = nil, nil
}

// invalidateLocked marks e invalid, returns its key to the freeList tail,
// and schedules the invalidation hook with its reason.
func (m *Monitor) invalidateLocked(e *entry, counter *int64, reason InvalidationReason) {
	if !e.valid {
		return
	}
	e.valid = false
	m.unlinkLocked(e)
	m.free.push(e.dpcKey)
	if counter != nil {
		*counter++
	}
	m.pendingHooks = append(m.pendingHooks, hookEvent{e.fragmentID, e.dpcKey, e.gen, reason})
}

func (m *Monitor) removeEntryLocked(e *entry) {
	m.clearDepsLocked(e)
	delete(m.dir, e.fragmentID)
}

// Invalidate explicitly invalidates one fragment, returning whether it was
// present and valid.
func (m *Monitor) Invalidate(fragmentID string) bool {
	m.mu.Lock()
	e, ok := m.dir[fragmentID]
	hit := ok && e.valid
	if hit {
		m.invalidateLocked(e, &m.stats.ExplicitInvalidations, ReasonExplicit)
	}
	evs := m.drainHooksLocked()
	m.mu.Unlock()
	m.fire(evs)
	return hit
}

// InvalidateStale invalidates the fragment currently holding the given
// dpcKey at the given generation. The DPC calls this (via the origin's
// stale-report header) when a GET instruction could not be satisfied from
// its store — e.g. after a proxy restart or a lost SET — so the next
// request regenerates the fragment instead of looping through the bypass
// fallback forever. Returns whether anything was invalidated.
func (m *Monitor) InvalidateStale(key, gen uint32) bool {
	m.mu.Lock()
	var hit bool
	if fragID, ok := m.byKey[key]; ok {
		if e, ok := m.dir[fragID]; ok && e.valid && e.dpcKey == key && e.gen == gen {
			m.invalidateLocked(e, &m.stats.StaleInvalidations, ReasonStale)
			hit = true
		}
	}
	evs := m.drainHooksLocked()
	m.mu.Unlock()
	m.fire(evs)
	return hit
}

// InvalidateDependents invalidates every valid fragment that declared a
// dependency on the given repository key.
func (m *Monitor) InvalidateDependents(k repository.Key) int {
	m.mu.Lock()
	n := 0
	for fragID := range m.deps[k] {
		if e, ok := m.dir[fragID]; ok && e.valid {
			m.invalidateLocked(e, &m.stats.DataInvalidations, ReasonData)
			n++
		}
	}
	evs := m.drainHooksLocked()
	m.mu.Unlock()
	m.fire(evs)
	return n
}

// SweepExpired proactively invalidates every fragment whose TTL has
// passed, returning the count. (Lookup also does this lazily; the sweep
// exists for the invalidation-manager loop.)
func (m *Monitor) SweepExpired() int {
	m.mu.Lock()
	now := m.clk.Now()
	n := 0
	for _, e := range m.dir {
		if e.valid && !e.expiry.IsZero() && !now.Before(e.expiry) {
			m.invalidateLocked(e, &m.stats.TTLInvalidations, ReasonTTL)
			n++
		}
	}
	evs := m.drainHooksLocked()
	m.mu.Unlock()
	m.fire(evs)
	return n
}

// TopFragments returns up to n directory entries ordered by hit count
// (descending), ties broken by fragmentID for determinism.
func (m *Monitor) TopFragments(n int) []FragmentInfo {
	m.mu.Lock()
	out := make([]FragmentInfo, 0, len(m.dir))
	for _, e := range m.dir {
		out = append(out, FragmentInfo{
			FragmentID: e.fragmentID,
			DpcKey:     e.dpcKey,
			Gen:        e.gen,
			Valid:      e.valid,
			Size:       e.size,
			Hits:       e.hits,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].FragmentID < out[j].FragmentID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// StartSweeper runs the invalidation-manager loop: SweepExpired every
// interval until the returned stop function is called. The paper's cache
// invalidation manager "monitors fragments to determine when they become
// invalid"; lazy expiry at Lookup already guarantees correctness, so the
// sweeper's job is reclaiming slots for fragments that stopped being
// requested.
func (m *Monitor) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.SweepExpired()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Stats returns a snapshot of monitor counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.DirectorySize = len(m.dir)
	s.FreeKeys = m.free.len()
	for _, e := range m.dir {
		if e.valid {
			s.ValidFragments++
		}
	}
	return s
}

// CheckInvariants verifies the freeList/directory key discipline; tests
// and the property harness call it after mutation storms.
//
// Invariants: (1) every dpcKey in [0, capacity) is either on the freeList
// or held by exactly one *valid* directory entry; (2) no key appears twice
// across those two places; (3) at most Capacity fragments are valid; (4)
// the recency list holds exactly the valid entries, oldest lastUsed first.
func (m *Monitor) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[uint32]string, m.cfg.Capacity)
	for _, k := range m.free.snapshot() {
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("bem: key %d on freeList twice (also %s)", k, prev)
		}
		seen[k] = "freeList"
	}
	valid := 0
	for id, e := range m.dir {
		if !e.valid {
			continue
		}
		valid++
		if prev, dup := seen[e.dpcKey]; dup {
			return fmt.Errorf("bem: key %d held by valid entry %q but already in %s", e.dpcKey, id, prev)
		}
		seen[e.dpcKey] = "entry " + id
	}
	if valid > m.cfg.Capacity {
		return fmt.Errorf("bem: %d valid fragments exceed capacity %d", valid, m.cfg.Capacity)
	}
	for k := 0; k < m.cfg.Capacity; k++ {
		if _, ok := seen[uint32(k)]; !ok {
			return fmt.Errorf("bem: key %d neither free nor validly held", k)
		}
	}
	listed := 0
	var prev *entry
	for e := m.oldest; e != nil; prev, e = e, e.newer {
		listed++
		switch {
		case listed > valid:
			return fmt.Errorf("bem: recency list runs past the %d valid entries", valid)
		case !e.valid || m.dir[e.fragmentID] != e:
			return fmt.Errorf("bem: recency list holds %q, which is not a valid directory entry", e.fragmentID)
		case e.older != prev:
			return fmt.Errorf("bem: recency list back-link of %q is broken", e.fragmentID)
		case prev != nil && prev.lastUsed >= e.lastUsed:
			return fmt.Errorf("bem: recency list out of order: %q (tick %d) before %q (tick %d)",
				prev.fragmentID, prev.lastUsed, e.fragmentID, e.lastUsed)
		}
	}
	if listed != valid || m.newest != prev {
		return fmt.Errorf("bem: recency list holds %d entries and ends at the wrong one, %d are valid", listed, valid)
	}
	return nil
}

// keyQueue is a FIFO of dpcKeys implemented as a growable ring buffer.
type keyQueue struct {
	buf        []uint32
	head, size int
}

func newKeyQueue(capHint int) *keyQueue {
	if capHint < 1 {
		capHint = 1
	}
	return &keyQueue{buf: make([]uint32, capHint)}
}

func (q *keyQueue) len() int { return q.size }

func (q *keyQueue) push(k uint32) {
	if q.size == len(q.buf) {
		nb := make([]uint32, 2*len(q.buf))
		for i := 0; i < q.size; i++ {
			nb[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = nb
		q.head = 0
	}
	q.buf[(q.head+q.size)%len(q.buf)] = k
	q.size++
}

func (q *keyQueue) pop() (uint32, bool) {
	if q.size == 0 {
		return 0, false
	}
	k := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return k, true
}

func (q *keyQueue) snapshot() []uint32 {
	out := make([]uint32, q.size)
	for i := 0; i < q.size; i++ {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}
