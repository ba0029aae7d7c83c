package depindex

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpcache/internal/clock"
)

// checkInvariants verifies what must hold whenever no operation is in
// flight: every shard's recency list is closed and holds exactly the
// indexed fragments; each slab record is live or on its free list, never
// both; the table is at most 3/4 full and finds every fragment; a key's
// reference count is the number of edges pointing at it, and the key table
// holds no string without one; and the byte ledger is the cost of exactly
// what is held.
func (ix *Index) checkInvariants() error {
	for i := range ix.shards {
		ix.shards[i].mu.Lock()
		defer ix.shards[i].mu.Unlock()
	}
	ix.keys.mu.Lock()
	defer ix.keys.mu.Unlock()

	refs := make(map[uint32]uint32) // key id → edges pointing at it
	var want int64
	for si := range ix.shards {
		sh := &ix.shards[si]
		liveFrag := make(map[uint32]bool)
		liveMore := make(map[uint32]bool)
		edges := 0
		edge := func(kid, until uint32) error {
			if kid == 0 || int(kid) > len(ix.keys.recs) || until == 0 {
				return fmt.Errorf("shard %d: edge to key id %d, deadline %d", si, kid, until)
			}
			refs[kid]++
			edges++
			return nil
		}
		prev := uint32(0)
		for i := sh.head; i != 0; {
			if i > sh.frags.used || liveFrag[i] {
				return fmt.Errorf("shard %d: recency list revisits or overruns at record %d", si, i)
			}
			liveFrag[i] = true
			e := sh.frags.at(i)
			if e.prev != prev {
				return fmt.Errorf("shard %d: record %d links back to %d, reached from %d", si, i, e.prev, prev)
			}
			if mix(e.ref)&ix.mask != uint64(si) {
				return fmt.Errorf("shard %d: holds %d, which hashes elsewhere", si, e.ref)
			}
			if got, _ := sh.find(e.ref, mix(e.ref)); got != i {
				return fmt.Errorf("shard %d: table finds %d at record %d, it is record %d", si, e.ref, got, i)
			}
			if e.key == 0 && e.more == 0 {
				return fmt.Errorf("shard %d: record %d has no edge", si, i)
			}
			if e.key != 0 {
				if err := edge(e.key, e.until); err != nil {
					return err
				}
			}
			for j := e.more; j != 0; j = sh.more.at(j).next {
				if j > sh.more.used || liveMore[j] {
					return fmt.Errorf("shard %d: overflow chain of record %d revisits or overruns at %d", si, i, j)
				}
				liveMore[j] = true
				if err := edge(sh.more.at(j).key, sh.more.at(j).until); err != nil {
					return err
				}
			}
			prev, i = i, e.next
		}
		if sh.tail != prev {
			return fmt.Errorf("shard %d: tail is %d, the list ends at %d", si, sh.tail, prev)
		}
		if len(liveFrag) != sh.live || edges != sh.edges {
			return fmt.Errorf("shard %d: counts %d fragments / %d edges, holds %d / %d", si, sh.live, sh.edges, len(liveFrag), edges)
		}
		indexed := 0
		for _, i := range sh.tab {
			if i != 0 {
				indexed++
			}
		}
		if indexed != sh.live || indexed*4 > len(sh.tab)*3 {
			return fmt.Errorf("shard %d: table of %d holds %d slots for %d fragments", si, len(sh.tab), indexed, sh.live)
		}
		free := 0
		for i := sh.freeFrag; i != 0; i = sh.frags.at(i).next {
			if i > sh.frags.used || liveFrag[i] || free > int(sh.frags.used) {
				return fmt.Errorf("shard %d: free record %d is live, out of range or on a cycle", si, i)
			}
			free++
		}
		if free+sh.live != int(sh.frags.used) {
			return fmt.Errorf("shard %d: %d live + %d free of %d records handed out", si, sh.live, free, sh.frags.used)
		}
		free = 0
		for j := sh.freeMore; j != 0; j = sh.more.at(j).next {
			if j > sh.more.used || liveMore[j] || free > int(sh.more.used) {
				return fmt.Errorf("shard %d: free overflow record %d is live, out of range or on a cycle", si, j)
			}
			free++
		}
		if free+len(liveMore) != int(sh.more.used) {
			return fmt.Errorf("shard %d: %d live + %d free of %d overflow records handed out", si, len(liveMore), free, sh.more.used)
		}
		want += int64(sh.live)*entryCost + int64(len(liveMore))*overflowCost
	}

	for id, n := range refs {
		r := ix.keys.recs[id-1]
		if r.refs != n || ix.keys.ids[r.s] != id {
			return fmt.Errorf("key %d %q: %d references for %d edges (table maps it to %d)", id, r.s, r.refs, n, ix.keys.ids[r.s])
		}
		want += int64(len(r.s)) + keyCost
	}
	if len(ix.keys.ids) != len(refs) {
		return fmt.Errorf("key table holds %d strings, edges point at %d", len(ix.keys.ids), len(refs))
	}
	free := 0
	for id := ix.keys.free; id != 0; id = ix.keys.recs[id-1].next {
		if r := ix.keys.recs[id-1]; r.s != "" || r.refs != 0 || free > len(ix.keys.recs) {
			return fmt.Errorf("free key id %d still holds %q (%d references) or is on a cycle", id, r.s, r.refs)
		}
		free++
	}
	if free+len(refs) != len(ix.keys.recs) {
		return fmt.Errorf("%d keys + %d free ids of %d handed out", len(refs), free, len(ix.keys.recs))
	}
	if got := ix.bytes.Load(); got != want {
		return fmt.Errorf("ledger says %d bytes, the structures cost %d", got, want)
	}
	return nil
}

// The model's universe and time scale.
const (
	modelRefs    = 24
	modelKeys    = 8
	modelHorizon = time.Minute
)

var modelSteps = []time.Duration{
	300 * time.Millisecond, time.Second, 7 * time.Second, 31 * time.Second,
	modelHorizon + time.Second, tombstoneTTL + time.Second, 3 * time.Minute,
}

func modelRef(b byte) ID        { return MakeID(uint32(b%modelRefs)/4, uint32(b%modelRefs)%4) }
func modelKey(b byte) string    { return fmt.Sprintf("GET\x00/page/%d\x00", b%modelKeys) }
func modelRefName(id ID) string { return Ref(uint32(id>>32), uint32(id)) }

// oracleEdge is one edge the oracle remembers: when it expires, to the
// nanosecond, and whether the index has been released from holding it.
type oracleEdge struct {
	until    time.Duration
	optional bool
}

// oracle is the map-of-sets the index is checked against.
type oracle struct {
	edges map[ID]map[string]*oracleEdge
	// dead holds, for a ref marked invalid and not recorded since, when
	// its tombstone runs out: from then on the index may forget its edges.
	dead map[ID]time.Duration
	// tomb holds when each marked ref's tombstone runs out.
	tomb map[ID]time.Duration
}

func newOracle() *oracle {
	return &oracle{
		edges: make(map[ID]map[string]*oracleEdge),
		dead:  make(map[ID]time.Duration),
		tomb:  make(map[ID]time.Duration),
	}
}

func (o *oracle) record(now time.Duration, id ID, key string) {
	if until, ok := o.dead[id]; ok {
		if now >= until {
			// The index may already have swept the generation's old edges.
			for _, e := range o.edges[id] {
				e.optional = true
			}
		}
		delete(o.dead, id)
	}
	if o.edges[id] == nil {
		o.edges[id] = make(map[string]*oracleEdge)
	}
	o.edges[id][key] = &oracleEdge{until: now + modelHorizon}
}

// check holds one Lookup answer to the oracle. Soundness: every unexpired
// dependent the oracle holds for id is in the answer, or the answer is
// inexact. And nothing is invented: every key in the answer was recorded
// and has not expired by the index's whole-second reckoning.
func (o *oracle) check(now time.Duration, id ID, keys []string, exact, lossless bool) error {
	got := make(map[string]bool, len(keys))
	for _, k := range keys {
		if got[k] {
			return fmt.Errorf("answer repeats %q", k)
		}
		got[k] = true
		if e := o.edges[id][k]; e == nil || secFloor(now) >= secCeil(e.until) {
			return fmt.Errorf("answer holds %q, which the oracle never recorded or has expired", k)
		}
	}
	if lossless && !exact {
		return fmt.Errorf("inexact answer though nothing was ever evicted")
	}
	if until, dead := o.dead[id]; dead && now >= until {
		return nil // a dead generation past its tombstone: nobody asks
	}
	for k, e := range o.edges[id] {
		if now < e.until && !e.optional && !got[k] && exact {
			return fmt.Errorf("exact answer %v misses %q, live until %v", keys, k, e.until)
		}
	}
	return nil
}

// runModel decodes ops into a File / Record / Lookup / MarkInvalid /
// AnyInvalid / advance / Flush / BumpEpoch sequence and applies it to an
// index of the given budget on a fake clock and to the oracle, checking
// every answer against the oracle and the index's invariants after every
// step.
func runModel(t *testing.T, shards int, budget int64, ops []byte) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1_000_000, 500))
	ix := New(Config{Shards: shards, ByteBudget: budget, Horizon: modelHorizon, Clock: fake})
	o := newOracle()
	start := fake.Now()
	for step := 0; len(ops) >= 2; step++ {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		now := fake.Now().Sub(start)
		fail := func(format string, a ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d arg %d, t=%v, budget %d): %s", step, op%10, arg, now, budget, fmt.Sprintf(format, a...))
		}
		switch op % 10 {
		case 0, 1, 2: // file one page's refs
			n := 1 + int(op/10)%6
			ids := make([]ID, n)
			for i := range ids {
				ids[i] = modelRef(arg + byte(i)*5)
			}
			key := modelKey(op / 60)
			ix.File(ids, key, ix.hz)
			for _, id := range ids {
				o.record(now, id, key)
			}
		case 3: // the string shim
			id, key := modelRef(arg), modelKey(op/10)
			ix.Record(modelRefName(id), key)
			o.record(now, id, key)
		case 4, 5:
			id := modelRef(arg)
			keys, exact := ix.Lookup(id)
			if err := o.check(now, id, keys, exact, ix.Stats().Evictions == 0); err != nil {
				fail("Lookup(%s): %v", modelRefName(id), err)
			}
		case 6: // an invalidation, as a tier subscriber applies it
			id := modelRef(arg)
			ix.MarkInvalid(id)
			o.tomb[id] = now + tombstoneTTL
			o.dead[id] = now + tombstoneTTL
			keys, exact := ix.Lookup(id)
			if err := o.check(now, id, keys, exact, ix.Stats().Evictions == 0); err != nil {
				fail("Lookup(%s) after MarkInvalid: %v", modelRefName(id), err)
			}
		case 7:
			ids := []ID{modelRef(arg), modelRef(arg + 7)}
			got := ix.AnyInvalid(ids)
			must, may := false, false
			for _, id := range ids {
				if until, ok := o.tomb[id]; ok {
					must = must || now < until
					may = may || secFloor(now) < secCeil(until)
				}
			}
			if (must && !got) || (got && !may) {
				fail("AnyInvalid = %v, oracle: must %v may %v", got, must, may)
			}
		case 8:
			fake.Advance(modelSteps[int(arg)%len(modelSteps)])
		case 9:
			epoch := ix.Epoch()
			if arg%4 == 0 {
				ix.Flush()
				o = newOracle()
			} else {
				ix.BumpEpoch("model")
			}
			if ix.Epoch() == epoch {
				fail("epoch did not move")
			}
		}
		if err := ix.checkInvariants(); err != nil {
			fail("%v", err)
		}
		if st := ix.Stats(); st.Bytes > budget {
			fail("settled over budget: %+v", st)
		}
	}

	// With nothing evicted the index is the oracle: every lookup is exact
	// and equal, and the occupancy counters add up to the answers.
	st := ix.Stats()
	if st.Evictions != 0 || budget < 1<<30 {
		return
	}
	now := fake.Now().Sub(start)
	fragments, edges := 0, 0
	held := make(map[string]bool)
	for b := byte(0); b < modelRefs; b++ {
		id := modelRef(b)
		keys, exact := ix.Lookup(id)
		if err := o.check(now, id, keys, exact, true); err != nil {
			t.Fatalf("final Lookup(%s): %v", modelRefName(id), err)
		}
		if len(keys) > 0 {
			fragments++
		}
		edges += len(keys)
		for _, k := range keys {
			held[k] = true
		}
	}
	st = ix.Stats()
	if st.Fragments != fragments || st.Edges != edges || st.Keys != len(held) {
		t.Fatalf("stats %+v, the lookups found %d fragments, %d edges, %d keys", st, fragments, edges, len(held))
	}
}

// modelOps draws a seeded operation sequence weighted toward filing.
func modelOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 2*n)
	rng.Read(ops)
	return ops
}

// modelBudgets runs from one fragment on one page to unbounded.
var modelBudgets = []int64{
	entryCost + keyCost + int64(len(modelKey(0))),
	300, 700, 1500, 1 << 40,
}

func TestModelAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := modelOps(seed, 600)
		for _, budget := range modelBudgets {
			runModel(t, 1+int(seed%2)*3, budget, ops)
		}
	}
}

// FuzzDepindexModel feeds the same operation encoding to the fuzzer.
func FuzzDepindexModel(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(modelOps(seed, 200), uint8(seed), uint16(seed*300))
	}
	f.Fuzz(func(t *testing.T, ops []byte, shards uint8, budget uint16) {
		b := int64(budget)
		if budget == 0 {
			b = 1 << 40
		}
		runModel(t, 1+int(shards%8), b, ops)
	})
}
