package dpc

import (
	"errors"
	"hash/maphash"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpcache/internal/fragstore"
	"dpcache/internal/metrics"
	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// A lease is the origin's "same" kept at the proxy. The paper's DPC asks the
// origin on every request because only the BEM knows whether a template is
// still valid; a proxy on the invalidation fabric hears every BEM
// invalidation too (Apply), so it can keep the answer until one revokes it.
//
// A proxy live on the fabric (fabric.go) asks for a lease on each bodyless
// GET it sends the origin (X-DPC-Lease). The template the origin then writes
// opens with the page's shell: a BEM entry that depends on every row the
// layout and the untagged blocks read. So everything that determines the
// template — the shell and the entry of each GET — is a BEM entry whose
// death reaches the proxy as a fragment event. An answer by reference to
// such a request grants the lease, until the earliest TTL expiry among those
// entries. The proxy files it under the request's exact fetch key, and the
// next fetch of that key runs the held plan with no round trip. A grant that
// says the run never read the visitor (";page") also vouches for the page
// itself: the answer is filed in the page tier for every visitor, with the
// grant's end in its record (pagestage.go).
//
// Revocation needs no list of who holds what. A fragment event (k, g)
// raises slot k's floor to g+1, and the store the assembler reads and writes
// then refuses any SET or GET of slot k below it (floorStore). Generations
// are BEM-wide and never reused, so a lease is live exactly when every ref
// of its plan still resolves — whichever of the grant and the event reached
// the proxy first, and however late a SET of the dead generation arrives. A
// lease is also void past its term, and when its plan has left the plan
// cache. A sequence gap — events lost — clears the table with the other
// tiers, and a grant whose fetch began before a gap or a flush is not
// filed. No lease outlives PageCacheTTL, the staleness the page tier already
// accepts should the fabric go quiet.
//
// A void lease costs nothing but the attempt: its run commits nothing, and
// the request goes on to the origin with the ordinary offer.

const (
	// leaseBuckets × leaseWays slots of 80 bytes: 1.25 MiB however many
	// keys pass through. A lease is filed under the visitor's fetch key,
	// whatever its scope: a page-scoped grant reaches the page's other
	// visitors through the page tier.
	leaseBuckets = 1 << 13
	leaseWays    = 2
)

// Why a lease was voided: its label in dpc.lease_<cause>_voids and in the
// lease:void:<cause> trace event.
const (
	// voidFloor: a ref of its plan did not resolve — a fabric event named
	// it, or its slot is gone from the store.
	voidFloor = "floor"
	// voidExpired: its term ran out.
	voidExpired = "expired"
	// voidPlan: its plan has left the plan cache.
	voidPlan = "plan"
	// voidGap: a sequence gap cleared the table.
	voidGap = "gap"
)

// lease is one filed grant. A zero key is an empty slot.
type lease struct {
	key       string          // the fetch key, compared in full
	digest    tmplplan.Digest // the template, whose plan runs in its place
	ctype     string          // the origin answer's Content-Type
	deadline  int64           // end of term, in the proxy clock's UnixNano
	cacheable bool            // the origin answer let the page rule file the page (pageCacheable)
}

// leaseTable is the fixed-size key → lease memory. One mutex covers it, and
// it orders a filing against a clear: a gap bumps the tier's epoch before
// it clears, and a filing checks the epoch under the mutex.
type leaseTable struct {
	// hash picks a key's bucket; it may collide, since a slot matches only
	// its own key.
	hash func(string) uint64
	mu   sync.Mutex
	// buckets is allocated when the proxy joins the fabric (open): a proxy
	// that never does has no use for it.
	buckets *[leaseBuckets][leaseWays]lease

	hits, grants, pageGrants, voids *metrics.Counter
	byCause                         map[string]*metrics.Counter
}

func newLeaseTable(reg *metrics.Registry) *leaseTable {
	seed := maphash.MakeSeed()
	return &leaseTable{
		hash:       func(key string) uint64 { return maphash.String(seed, key) },
		hits:       reg.Counter("dpc.lease_hits"),
		grants:     reg.Counter("dpc.lease_grants"),
		pageGrants: reg.Counter("dpc.lease_page_grants"),
		voids:      reg.Counter("dpc.lease_voids"),
		byCause: map[string]*metrics.Counter{
			voidFloor:   reg.Counter("dpc.lease_floor_voids"),
			voidExpired: reg.Counter("dpc.lease_expired_voids"),
			voidPlan:    reg.Counter("dpc.lease_plan_voids"),
			voidGap:     reg.Counter("dpc.lease_gap_voids"),
		},
	}
}

// open allocates the slots, once.
func (t *leaseTable) open() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buckets == nil {
		t.buckets = new([leaseBuckets][leaseWays]lease)
	}
}

// bucket returns key's bucket, nil before open; the caller holds t.mu.
func (t *leaseTable) bucket(key string) *[leaseWays]lease {
	if t.buckets == nil {
		return nil
	}
	return &t.buckets[t.hash(key)%leaseBuckets]
}

// get returns the lease filed under key.
func (t *leaseTable) get(key string) (lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.bucket(key); b != nil {
		for _, l := range b {
			if l.key == key {
				return l, true
			}
		}
	}
	return lease{}, false
}

// file puts l in its key's slot, or else over the bucket's older slot,
// unless filable says no under the table's mutex. It reports whether l was
// filed.
func (t *leaseTable) file(l lease, filable func() bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucket(l.key)
	if b == nil || !filable() {
		return false
	}
	if b[0].key != l.key {
		b[1] = b[0]
	}
	b[0] = l
	return true
}

// void empties key's slot and counts why.
func (t *leaseTable) void(key, cause string) {
	t.mu.Lock()
	if b := t.bucket(key); b != nil {
		for i := range b {
			if b[i].key == key {
				b[i] = lease{}
			}
		}
	}
	t.mu.Unlock()
	t.count(cause, 1)
}

// clear empties the table, counting each lease it held as voided by cause.
func (t *leaseTable) clear(cause string) {
	n := 0
	t.mu.Lock()
	if t.buckets != nil {
		for i := range t.buckets {
			for j := range t.buckets[i] {
				if t.buckets[i][j].key != "" {
					t.buckets[i][j] = lease{}
					n++
				}
			}
		}
	}
	t.mu.Unlock()
	t.count(cause, n)
}

func (t *leaseTable) count(cause string, n int) {
	t.voids.Add(int64(n))
	t.byCause[cause].Add(int64(n))
}

// leasing reports whether r is a request a lease may stand in for, and so
// one whose origin fetch asks for a lease: a bodyless GET, through a proxy
// live on the fabric (fabric.live) — a proxy that would not hear the
// invalidations could not keep one, and one that pulls them stops trusting
// it has heard them all before the hub can stop waiting for it — and checks
// generations (Config.Strict), so that a slot holding another generation
// never resolves a lease's ref.
func (p *Proxy) leasing(r *http.Request) bool {
	return p.cfg.Strict && p.fabric.live() && r.Method == http.MethodGet &&
		r.ContentLength == 0 && len(r.TransferEncoding) == 0
}

// useLease lets a live lease filed under the request's fetch key stand in
// for its origin fetch: the plan it names becomes the request's held plan,
// for assemble to run as it runs a template answered by reference. A lease
// found past its term or without its plan is voided, and the request
// fetches.
func (p *Proxy) useLease(rs *reqState) bool {
	if !p.leasing(rs.r) {
		return false
	}
	l, ok := p.leases.get(rs.flightKey())
	if !ok {
		return false
	}
	if p.clk.Now().UnixNano() >= l.deadline {
		p.voidLease(rs, voidExpired)
		return false
	}
	plan := p.plans.Lookup(l.digest)
	if plan == nil {
		p.voidLease(rs, voidPlan)
		return false
	}
	rs.held = plan
	rs.ctype, rs.cacheState = l.ctype, "LEASE"
	if rs.pageCapture != nil && !l.cacheable {
		rs.pageCapture.refuse()
	}
	rs.span.Event(trace.KindHit, "origin", "lease:hit", 0)
	return true
}

func (p *Proxy) voidLease(rs *reqState, cause string) {
	p.leases.void(rs.flightKey(), cause)
	rs.span.Event(trace.KindMiss, "origin", "lease:void:"+cause, 0)
}

// assembleLease runs the plan a lease holds, held whole so that a ref that
// does not resolve leaves nothing committed. served is false when the lease
// turned out void — the caller then fetches from the origin — and true when
// the page went out, or err says why it did not.
func (p *Proxy) assembleLease(rs *reqState) (served bool, err error) {
	_, err = p.assemblePage(rs, nil, 0, wholePage)
	if errors.Is(err, ErrStale) && !rs.streamed {
		p.voidLease(rs, voidFloor)
		return false, nil
	}
	if err == nil {
		p.leases.hits.Inc()
	}
	return true, err
}

// grantLease files the lease an answer by reference carries (HeaderLease)
// under the request's fetch key, for a fetch that started at start, when
// the tier's epoch read before it was epoch. The term is what the origin
// granted, capped at the page tier's TTL. A grant ending in ";page" also
// dates the response's tier record (rs.pageUntil), and admits an identified
// visitor's page to the page rule under the key every visitor of the page
// is served from. A response the origin opted into the tier under its own
// max-age is not leased: a lease keeps no headers to renew that opt-in
// with. A grant that does not parse is not filed.
func (p *Proxy) grantLease(rs *reqState, resp *http.Response, start time.Time, epoch uint64) {
	v := resp.Header.Get(headerLease)
	if v == "" || rs.fillRule == ruleStatic || !p.leasing(rs.r) {
		return
	}
	v, scope, scoped := strings.Cut(v, ";")
	if scoped && scope != "page" {
		return
	}
	term := p.pageTTL
	if v != "none" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return
		}
		term = min(term, time.Duration(ms)*time.Millisecond)
	}
	if term <= 0 {
		return
	}
	l := lease{
		key:       rs.flightKey(),
		digest:    rs.held.Digest(),
		ctype:     resp.Header.Get("Content-Type"),
		deadline:  start.Add(term).UnixNano(),
		cacheable: pageCacheable(resp.Header),
	}
	if !p.leases.file(l, func() bool { return p.fabric.epoch.Load() == epoch }) {
		return
	}
	p.leases.grants.Inc()
	if scoped {
		p.leases.pageGrants.Inc()
		rs.pageUntil = l.deadline
		if _, identified := p.pageRule(rs.r); identified && l.cacheable {
			p.admitFill(rs, anonymousPageKey(rs.r), p.pageTTL, rulePage, epoch)
		}
	}
}

// floorStore is the store the assembler reads and writes: the configured
// backend behind a per-slot floor, 4 bytes a slot. A fragment event (k, g)
// raises slot k's floor to g+1 (Apply); a SET or GET of slot k at a
// generation below its floor is refused. The floor is the proxy's one
// record of dead generations, and it never expires. One rule serves leases
// and whole-response entries: an entry's record names the generations it
// was built from, and one below its floor voids the entry where it is
// filed or read (voided). A lease's refs resolve exactly
// while every entry it names lives: a SET of a dead generation that
// arrives after its event, in a template generated before it, cannot bring
// the generation back. A page's refs are all within the store's capacity
// (a SET outside it fails, a GET misses), so each has a floor.
type floorStore struct {
	fragstore.FragmentStore
	floor []atomic.Uint32
}

func newFloorStore(s fragstore.FragmentStore) *floorStore {
	return &floorStore{FragmentStore: s, floor: make([]atomic.Uint32, s.Capacity())}
}

// raise kills every generation of slot key up to gen.
func (s *floorStore) raise(key, gen uint32) {
	if int64(key) >= int64(len(s.floor)) || gen == math.MaxUint32 {
		return
	}
	f := &s.floor[key]
	for cur := f.Load(); cur <= gen && !f.CompareAndSwap(cur, gen+1); cur = f.Load() {
	}
}

// dead reports that slot key's generation gen is below its floor.
func (s *floorStore) dead(key, gen uint32) bool {
	return int64(key) < int64(len(s.floor)) && gen < s.floor[key].Load()
}

// Set implements fragstore.FragmentStore; a dead generation is dropped.
func (s *floorStore) Set(key, gen uint32, content []byte) error {
	if s.dead(key, gen) {
		return nil
	}
	return s.FragmentStore.Set(key, gen, content)
}

// Get implements fragstore.FragmentStore; a dead generation misses.
func (s *floorStore) Get(key, gen uint32, strict bool) ([]byte, bool) {
	if s.dead(key, gen) {
		return nil, false
	}
	return s.FragmentStore.Get(key, gen, strict)
}

// GetCrossings implements fragstore.CrossingGetter.
func (s *floorStore) GetCrossings(key, gen uint32, strict bool) ([]byte, bool, fragstore.Crossings) {
	if s.dead(key, gen) {
		return nil, false, fragstore.Crossings{}
	}
	return fragstore.GetCrossings(s.FragmentStore, key, gen, strict)
}
