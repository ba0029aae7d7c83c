package dpc

import (
	"errors"
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

// A lease is the origin's template kept at the proxy. The paper's DPC asks
// the origin on every request because only the BEM knows whether a template
// is still valid; a proxy on the invalidation fabric hears every BEM
// invalidation too (Apply), so it can keep the answer until one revokes it.
//
// A proxy live on the fabric (fabric.go) asks for a lease on each bodyless
// GET it sends the origin (X-DPC-Lease). The template the origin then writes
// opens with the page's shell: a BEM entry that depends on every row the
// layout and the untagged blocks read. So everything that determines the
// template — the shell and the entry of each GET — is a BEM entry whose
// death reaches the proxy as a fragment event. A template that carries no
// SET, answering such a request, grants the lease, until the earliest TTL
// expiry among those entries. Once the template's plan has run clean the
// proxy files the lease under the request's exact fetch key, and the next
// fetch of that key runs the plan with no round trip.
//
// A grant that says the run never read the visitor (";page") is the page's,
// and each answer has one keeper. An identified visitor's such answer, on a
// proxy whose page tier is on, is filed in the tier for every visitor, with
// the grant's end in its record (pagestage.go), and that entry is all that
// keeps it: no lease is filed under the visitor's key, and its plan is not
// kept, since the tier answers the visitor first and the entry's record
// carries the same refs, epoch and end. Every other grant — an anonymous
// answer, the fallback of every anonymous visitor once the tier has evicted
// its entry; an answer the tier did not take; any grant on a proxy without
// the page tier — is a lease.
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
// the request goes on to the origin as a miss.

// maxLeases bounds the table: filing a new key when it holds this many
// first evicts one other lease (dpc.lease_evictions).
const maxLeases = 1 << 14

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

// lease is one filed grant, held under its fetch key.
type lease struct {
	plan      string // the template's plan-cache key (tmplplan.Plan.Key), whose plan runs in its place
	ctype     string // the origin answer's Content-Type
	deadline  int64  // end of term, in the proxy clock's UnixNano
	cacheable bool   // the origin answer let the page rule file the page (pageCacheable)
}

// leaseTable is the fetch key → lease memory, a map bounded at maxLeases:
// it holds what was filed and nothing more, and below its bound no lease
// gives way to another. One mutex covers it, and it orders a filing against
// a clear: a gap bumps the tier's epoch before it clears, and a filing
// checks the epoch under the mutex.
type leaseTable struct {
	mu     sync.Mutex
	leases map[string]lease
	// resident counts the leases held; file, void and clear move it under mu.
	resident *metrics.Gauge

	hits, grants, pageGrants, voids, evictions *metrics.Counter
	byCause                                    map[string]*metrics.Counter
}

func newLeaseTable(reg *metrics.Registry) *leaseTable {
	return &leaseTable{
		leases:     make(map[string]lease),
		resident:   reg.Gauge("dpc.lease_resident"),
		hits:       reg.Counter("dpc.lease_hits"),
		grants:     reg.Counter("dpc.lease_grants"),
		pageGrants: reg.Counter("dpc.lease_page_grants"),
		voids:      reg.Counter("dpc.lease_voids"),
		evictions:  reg.Counter("dpc.lease_evictions"),
		byCause: map[string]*metrics.Counter{
			voidFloor:   reg.Counter("dpc.lease_floor_voids"),
			voidExpired: reg.Counter("dpc.lease_expired_voids"),
			voidPlan:    reg.Counter("dpc.lease_plan_voids"),
			voidGap:     reg.Counter("dpc.lease_gap_voids"),
		},
	}
}

// get returns the lease filed under key.
func (t *leaseTable) get(key string) (lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.leases[key]
	return l, ok
}

// file files l under key, unless filable says no under the table's mutex,
// and reports whether l was filed. l replaces key's lease where one is
// filed; a new key at the bound first evicts one other lease, the first
// the map's iteration — random in its start — yields.
func (t *leaseTable) file(key string, l lease, filable func() bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !filable() {
		return false
	}
	if _, refiled := t.leases[key]; !refiled {
		if len(t.leases) >= maxLeases {
			for victim := range t.leases {
				delete(t.leases, victim)
				break
			}
			t.evictions.Inc()
		} else {
			t.resident.Add(1)
		}
	}
	t.leases[key] = l
	return true
}

// void drops key's lease and counts why.
func (t *leaseTable) void(key, cause string) {
	t.mu.Lock()
	if _, ok := t.leases[key]; ok {
		delete(t.leases, key)
		t.resident.Add(-1)
	}
	t.mu.Unlock()
	t.count(cause, 1)
}

// clear empties the table, counting each lease it held as voided by cause.
func (t *leaseTable) clear(cause string) {
	t.mu.Lock()
	n := len(t.leases)
	t.leases = make(map[string]lease) // a cleared map would keep its size
	t.resident.Add(int64(-n))
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

// serveLease serves the request from the lease filed under its fetch key,
// beside the tier probe and ahead of admission and the flight, since it asks
// the origin nothing: the plan the lease holds runs whole, and the request
// goes to respond. A page-rule capture the pagecache stage attached tees the
// page, and is refused once the page has gone out if the answer that granted
// the lease forbade caching. A lease found void — past its term, without its
// plan, or with a ref that does not resolve — is dropped, and the request
// goes on to the origin as a miss.
func (p *Proxy) serveLease(rs *reqState) (stageOutcome, error) {
	l, ok := p.useLease(rs)
	if !ok {
		return stageNext, nil
	}
	_, err := p.assemblePage(rs, nil, 0, wholePage)
	if errors.Is(err, ErrStale) && !rs.streamed {
		// Held whole, the run committed nothing.
		p.voidLease(rs, voidFloor)
		rs.ctype, rs.cacheState = "", ""
		return stageNext, nil
	}
	if err != nil {
		return stageNext, err
	}
	p.leases.hits.Inc()
	if rs.pageCapture != nil && !l.cacheable {
		rs.pageCapture.refuse()
	}
	return stageRespond, nil
}

// useLease finds a live lease filed under the request's fetch key and makes
// the plan it names the request's held plan, for assemble to run in place
// of a template. A lease found past its term or without its plan is voided.
func (p *Proxy) useLease(rs *reqState) (lease, bool) {
	if !p.leasing(rs.r) {
		return lease{}, false
	}
	l, ok := p.leases.get(rs.flightKey())
	if !ok {
		return lease{}, false
	}
	if p.clk.Now().UnixNano() >= l.deadline {
		p.voidLease(rs, voidExpired)
		return lease{}, false
	}
	plan := p.plans.LookupKey(l.plan)
	if plan == nil {
		p.voidLease(rs, voidPlan)
		return lease{}, false
	}
	rs.held = plan
	rs.ctype, rs.cacheState = l.ctype, "LEASE"
	rs.span.Event(trace.KindHit, "origin", "lease:hit", 0)
	return l, true
}

func (p *Proxy) voidLease(rs *reqState, cause string) {
	p.leases.void(rs.flightKey(), cause)
	rs.span.Event(trace.KindMiss, "origin", "lease:void:"+cause, 0)
}

// grantLease takes in the lease a template answer carries (HeaderLease), for
// a fetch that started at start, when the tier's epoch read before it was
// epoch: rs.grantUntil, for assemble to hand to its keeper once the
// template's plan has run (tierKeeps, fileLease). The term is what the
// origin granted, capped at the page tier's TTL. A grant ending in ";page"
// also dates the response's tier record (rs.pageUntil), and admits an
// identified visitor's page to the page rule under the key every visitor of
// the page is served from. A response the origin opted into the tier under
// its own max-age is not leased: a lease keeps no headers to renew that
// opt-in with. A grant that does not parse, or whose fetch began before a
// gap or a flush, is dropped.
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
	if term <= 0 || p.fabric.epoch.Load() != epoch {
		return
	}
	rs.grantUntil, rs.grantEpoch = start.Add(term).UnixNano(), epoch
	rs.grantCacheable = pageCacheable(resp.Header)
	if scoped {
		rs.pageUntil = rs.grantUntil
		if _, identified := p.pageRule(rs.r); identified && rs.grantCacheable {
			p.admitFill(rs, anonymousPageKey(rs.r), p.pageTTL, rulePage, epoch)
		}
	}
}

// tierKeeps reports that the page tier is the only keeper the grant rs's
// answer carried needs: rs is an identified visitor's, the grant is
// page-scoped, and the capture grantLease attached under the key every
// visitor of the page is served from (anonymousPageKey) will file the n
// bytes the run wrote — it was neither refused nor outgrown. stagePageCache
// probes the tier before the lease, and the entry's record carries the
// lease's refs, epoch and end, so while the entry lives a lease filed
// beside it would never be read; once the tier evicts it, a lease would
// serve this one visitor.
func (p *Proxy) tierKeeps(rs *reqState, n int64) bool {
	c := rs.pageCapture
	return rs.pageUntil != 0 && rs.fillRule == rulePage && c != nil && !c.discarded &&
		n <= maxPageCaptureBytes && !anonymousSession(rs.r)
}

// fileLease files the lease grantLease took in, ending at until, to run
// plan in place of the request's template, unless a gap or a flush has
// moved the tier's epoch since the fetch began.
func (p *Proxy) fileLease(rs *reqState, until int64, plan *tmplplan.Plan) {
	l := lease{
		plan:      plan.Key(),
		ctype:     rs.ctype,
		deadline:  until,
		cacheable: rs.grantCacheable,
	}
	if !p.leases.file(rs.flightKey(), l, func() bool { return p.fabric.epoch.Load() == rs.grantEpoch }) {
		return
	}
	p.leases.grants.Inc()
	if rs.pageUntil != 0 {
		p.leases.pageGrants.Inc()
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
	rd    fragstore.Reader // the backend's own read path; nil when it has none
	pk    fragstore.Peeker // the backend's Peek; nil when it has none
	floor []atomic.Uint32
}

func newFloorStore(s fragstore.FragmentStore) *floorStore {
	rd, _ := s.(fragstore.Reader)
	pk, _ := s.(fragstore.Peeker)
	return &floorStore{FragmentStore: s, rd: rd, pk: pk, floor: make([]atomic.Uint32, s.Capacity())}
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

// Read implements fragstore.Reader: the assembler's every GET comes here,
// and goes on to the backend's read path with its scratch when the backend
// has one.
func (s *floorStore) Read(key, gen uint32, strict bool, sc *fragstore.Scratch) ([]byte, bool, fragstore.Crossings) {
	if s.dead(key, gen) {
		return nil, false, fragstore.Crossings{}
	}
	if s.rd == nil {
		data, ok := s.FragmentStore.Get(key, gen, strict)
		return data, ok, fragstore.Crossings{}
	}
	return s.rd.Read(key, gen, strict, sc)
}

// peek is the backend's Peek behind the floor: a dead generation, or a
// backend that cannot peek, finds nothing.
func (s *floorStore) peek(key, gen uint32) ([]byte, bool) {
	if s.pk == nil || s.dead(key, gen) {
		return nil, false
	}
	return s.pk.Peek(key, gen)
}
