package fragstore_test

import (
	"fmt"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/fragstore/storetest"
	"dpcache/internal/metrics"
)

// sharded builds the sharded backend the way the system does: through New.
func sharded(t testing.TB, cfg fragstore.Config) fragstore.FragmentStore {
	t.Helper()
	cfg.Backend = fragstore.BackendSharded
	s, err := fragstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConformance runs the shared suite against every backend
// configuration the system can select.
func TestConformance(t *testing.T) {
	storetest.Run(t, "slot", func(capacity int) (fragstore.FragmentStore, error) {
		return fragstore.NewSlotStore(capacity)
	})
	for name, cfg := range map[string]fragstore.Config{
		// Without a budget: the slot array over 16 and 1 lock stripes.
		"sharded":        {},
		"sharded-1shard": {Shards: 1},
		// Budgets large enough that the conformance workloads never evict:
		// the accounting contract must hold with the policies armed.
		"sharded-lru":  {ByteBudget: 1 << 30, Eviction: "lru"},
		"sharded-gdsf": {ByteBudget: 1 << 30, Eviction: "gdsf"},
	} {
		storetest.Run(t, name, func(capacity int) (fragstore.FragmentStore, error) {
			cfg.Backend, cfg.Capacity = fragstore.BackendSharded, capacity
			return fragstore.New(cfg)
		})
	}
	// The engine's view with no budget, which no backend selects any more.
	storetest.Run(t, "keyed-view", keyedView)
}

// TestRetainedSlices runs the retention suite on every backend, with
// budgets small enough that its values evict, and a tiered store's cross
// the tier boundary both ways and reuse the heap file's freed pages.
func TestRetainedSlices(t *testing.T) {
	storetest.RunRetention(t, "slot", func(capacity int) (fragstore.FragmentStore, error) {
		return fragstore.NewSlotStore(capacity)
	})
	for name, cfg := range map[string]fragstore.Config{
		"sharded":      {},
		"sharded-lru":  {ByteBudget: 1 << 10, Eviction: "lru"},
		"sharded-gdsf": {ByteBudget: 1 << 10, Eviction: "gdsf"},
	} {
		storetest.RunRetention(t, name, func(capacity int) (fragstore.FragmentStore, error) {
			cfg.Backend, cfg.Capacity = fragstore.BackendSharded, capacity
			return fragstore.New(cfg)
		})
	}
	storetest.RunRetention(t, "keyed-view", keyedView)
	storetest.RunRetention(t, "tiered", tieredFactory(t, 0))
	storetest.RunRetention(t, "tiered-small-ram", tieredFactory(t, 1<<10))
	storetest.RunRetention(t, "tiered-tiny-ram", tieredFactory(t, 64))
}

// keyedView returns KeyedStore's fragment view with no budget.
func keyedView(capacity int) (fragstore.FragmentStore, error) {
	ks, err := fragstore.NewKeyed(fragstore.KeyedConfig{})
	if err != nil {
		return nil, err
	}
	return ks.AsFragmentStore(capacity)
}

func TestNewSelectsBackend(t *testing.T) {
	s, err := fragstore.New(fragstore.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Backend != fragstore.BackendSlot {
		t.Fatalf("default backend = %q", st.Backend)
	}
	s, err = fragstore.New(fragstore.Config{
		Backend: fragstore.BackendSharded, Capacity: 8, Shards: 4,
		ByteBudget: 1024, Eviction: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Backend != fragstore.BackendSharded || st.Shards != 4 || st.ByteBudget != 1024 {
		t.Fatalf("sharded stats = %+v", st)
	}
	if _, err := fragstore.New(fragstore.Config{Backend: "bogus", Capacity: 8}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := fragstore.New(fragstore.Config{Capacity: 8, ByteBudget: 1}); err == nil {
		t.Fatal("slot backend accepted a byte budget")
	}
	if _, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendSharded, Capacity: 8, Eviction: "clock"}); err == nil {
		t.Fatal("unknown eviction policy accepted")
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, fragstore.DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		s := sharded(t, fragstore.Config{Capacity: 1024, Shards: tc.in})
		if got := s.Stats().Shards; got != tc.want {
			t.Errorf("Shards=%d rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBudgetRequiresPolicy(t *testing.T) {
	if _, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendSharded, Capacity: 8, ByteBudget: 100}); err == nil {
		t.Fatal("byte budget without a policy accepted")
	}
	for _, pol := range []string{"lru", "gdsf"} {
		if _, err := fragstore.New(fragstore.Config{
			Backend: fragstore.BackendSharded, Capacity: 8, Eviction: pol}); err == nil {
			t.Fatalf("eviction policy %q without a byte budget accepted", pol)
		}
	}
	if _, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendSharded, Capacity: 8, ByteBudget: -1, Eviction: "lru"}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// singleShard returns a one-shard LRU/GDSF store so eviction order is
// deterministic (no key→shard spreading).
func singleShard(t *testing.T, budget int64, pol fragstore.Policy) fragstore.FragmentStore {
	t.Helper()
	return sharded(t, fragstore.Config{Capacity: 1024, Shards: 1, ByteBudget: budget, Eviction: pol.String()})
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	s := singleShard(t, 30, fragstore.PolicyLRU)
	pay := make([]byte, 10)
	for k := uint32(0); k < 3; k++ { // fills the budget exactly
		if err := s.Set(k, 1, pay); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(0, 1, false) // key 0 is now hotter than key 1
	if err := s.Set(3, 1, pay); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(1, 1, false); ok {
		t.Fatal("least-recently-used key 1 survived eviction")
	}
	for _, k := range []uint32{0, 2, 3} {
		if _, ok := s.Get(k, 1, false); !ok {
			t.Fatalf("key %d evicted, want key 1 only", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBytes != 10 {
		t.Fatalf("eviction stats = %+v", st)
	}
	if st.Bytes > 30 {
		t.Fatalf("bytes %d exceed budget", st.Bytes)
	}
}

func TestLRUBudgetHolds(t *testing.T) {
	s := singleShard(t, 100, fragstore.PolicyLRU)
	for i := 0; i < 200; i++ {
		k := uint32(i % 50)
		if err := s.Set(k, 1, make([]byte, 1+i%17)); err != nil {
			t.Fatal(err)
		}
		if got := s.Bytes(); got > 100 {
			t.Fatalf("bytes %d exceed budget after set %d", got, i)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions under sustained over-budget writes")
	}
}

func TestGDSFPrefersSmallHotFragments(t *testing.T) {
	s := singleShard(t, 1000, fragstore.PolicyGDSF)
	// A small, frequently hit fragment...
	if err := s.Set(1, 1, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Get(1, 1, false)
	}
	// ...and a large, cold one filling the rest of the budget.
	if err := s.Set(2, 1, make([]byte, 900)); err != nil {
		t.Fatal(err)
	}
	// A new medium fragment forces an eviction: GDSF must sacrifice the
	// large cold fragment, not the small hot one.
	if err := s.Set(3, 1, make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(1, 1, false); !ok {
		t.Fatal("small hot fragment evicted")
	}
	if _, ok := s.Get(2, 1, false); ok {
		t.Fatal("large cold fragment survived")
	}
}

func TestGDSFAgingAdmitsFreshEntries(t *testing.T) {
	s := singleShard(t, 100, fragstore.PolicyGDSF)
	// Make key 0 extremely hot, then stop touching it.
	_ = s.Set(0, 1, make([]byte, 60))
	for i := 0; i < 1000; i++ {
		s.Get(0, 1, false)
	}
	// Sustained fresh traffic must eventually displace it: each eviction
	// raises the shard's aging term, so fresh entries catch up. (Probing
	// key 0 during the loop would count as hits and keep it hot, so the
	// check happens once, at the end.)
	for i := 1; i <= 3000; i++ {
		_ = s.Set(uint32(i%40+1), 1, make([]byte, 30))
	}
	if _, ok := s.Get(0, 1, false); ok {
		t.Fatal("once-hot entry never aged out under sustained fresh traffic")
	}
}

// The budget is a global ledger, not a per-shard partition: keys crowding
// a shard must not evict while the store as a whole has headroom. Keys are
// hashed to shards, so the crowding is arranged by shard count: split
// evenly across 128 shards the budget would hold one entry per shard, and
// 120 hashed keys are certain to collide somewhere.
func TestGlobalBudgetToleratesSkewedKeys(t *testing.T) {
	s := sharded(t, fragstore.Config{Capacity: 2048, Shards: 128, ByteBudget: 12800, Eviction: "lru"})
	// 120 × 100 B = 12000 B, 94% of the global budget.
	pay := make([]byte, 100)
	for i := 0; i < 120; i++ {
		if err := s.Set(uint32(i*8), 1, pay); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted %d entries while %d/%d bytes under the global budget (per-shard partitioning?)",
			st.Evictions, st.Bytes, st.ByteBudget)
	}
	if got := s.Resident(); got != 120 {
		t.Fatalf("resident = %d, want all 120 skewed entries", got)
	}
	// Pushing past the global budget must now evict — the ledger is a
	// bound, not a suggestion.
	for i := 120; i < 130; i++ {
		if err := s.Set(uint32(i*8), 1, pay); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after exceeding the global budget")
	}
	if st.Bytes > st.ByteBudget {
		t.Fatalf("settled at %d bytes, over the %d budget", st.Bytes, st.ByteBudget)
	}
}

// Victims are taken in global policy order, whichever shards hold them:
// a large write must claw its overflow back from the oldest entries
// wherever they hashed, never from itself and never out of order.
func TestGlobalBudgetEvictsColdestAcrossShards(t *testing.T) {
	s := sharded(t, fragstore.Config{Capacity: 1024, Shards: 8, ByteBudget: 1000, Eviction: "lru"})
	for k := uint32(0); k < 9; k++ {
		if err := s.Set(k, 1, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// 900 B resident + 500 B incoming: exactly the four oldest must go.
	if err := s.Set(100, 1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 4 || st.Bytes != 1000 {
		t.Fatalf("evictions = %d, bytes = %d; want 4 evictions settling at 1000 B", st.Evictions, st.Bytes)
	}
	for k := uint32(4); k < 9; k++ {
		if _, ok := s.Get(k, 1, false); !ok {
			t.Fatalf("key %d evicted ahead of an older entry", k)
		}
	}
	if _, ok := s.Get(100, 1, false); !ok {
		t.Fatal("fresh entry evicted instead of the cold ones")
	}
}

// A single entry larger than the whole budget must be refused, not
// admitted by flushing every shard — and an overwritten slot must not
// keep its stale content.
func TestOversizedSetRefusedNotFlushed(t *testing.T) {
	s := sharded(t, fragstore.Config{Capacity: 1024, Shards: 8, ByteBudget: 1000, Eviction: "lru"})
	for i := 0; i < 8; i++ {
		if err := s.Set(uint32(i), 1, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Set(0, 2, make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(0, 2, false); ok {
		t.Fatal("oversized entry admitted")
	}
	if got := s.Resident(); got != 7 {
		t.Fatalf("resident = %d after oversized set, want the 7 untouched entries", got)
	}
	if st := s.Stats(); st.Evictions != 1 || st.EvictedBytes != 5000 {
		t.Fatalf("refusal not counted: %+v", st)
	}
	if got := s.Bytes(); got != 700 {
		t.Fatalf("bytes after refusal = %d, want 700", got)
	}
}

func TestShardedDistributesKeys(t *testing.T) {
	s := sharded(t, fragstore.Config{Capacity: 4096, Shards: 8})
	for k := uint32(0); k < 4096; k++ {
		if err := s.Set(k, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Resident() != 4096 || s.Bytes() != 4096 {
		t.Fatalf("Resident=%d Bytes=%d after filling", s.Resident(), s.Bytes())
	}
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, name := range []string{"none", "lru", "gdsf"} {
		p, err := fragstore.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != name {
			t.Errorf("ParsePolicy(%q).String() = %q", name, p)
		}
	}
	if p, err := fragstore.ParsePolicy(""); err != nil || p != fragstore.PolicyNone {
		t.Errorf("empty policy = %v, %v", p, err)
	}
	if _, err := fragstore.ParsePolicy("arc"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPublish(t *testing.T) {
	reg := metrics.NewRegistry()
	s := sharded(t, fragstore.Config{Capacity: 16, Shards: 2, ByteBudget: 1 << 20, Eviction: "lru"})
	_ = s.Set(1, 1, []byte("abcde"))
	s.Get(1, 1, false)
	s.Get(9, 1, false)
	fragstore.Publish(reg, "dpc.store", s.Stats())
	snap := reg.Snapshot()
	for key, want := range map[string]int64{
		"dpc.store.capacity":    16,
		"dpc.store.resident":    1,
		"dpc.store.bytes":       5,
		"dpc.store.byte_budget": 1 << 20,
		"dpc.store.shards":      2,
		"dpc.store.sets":        1,
		"dpc.store.hits":        1,
		"dpc.store.misses":      1,
	} {
		if snap[key] != want {
			t.Errorf("%s = %d, want %d", key, snap[key], want)
		}
	}
	fragstore.Publish(nil, "x", s.Stats()) // must not panic
}

func TestShardedStatsAggregate(t *testing.T) {
	s := sharded(t, fragstore.Config{Capacity: 64, Shards: 4})
	for k := uint32(0); k < 8; k++ {
		_ = s.Set(k, 1, []byte(fmt.Sprintf("frag-%d", k)))
	}
	s.Drop(3)
	st := s.Stats()
	if st.Sets != 8 || st.Drops != 1 || st.Resident != 7 {
		t.Fatalf("aggregate stats = %+v", st)
	}
}

// The view must add nothing to the engine's hot path: a warm Get formats
// no key and allocates nothing, and an overwriting Set allocates only the
// copy of the content it is contractually obliged to make.
func TestViewAllocations(t *testing.T) {
	s, err := keyedView(4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	fill := func() {
		for k := uint32(0); k < 4096; k++ {
			_ = s.Set(k, 1, payload)
		}
	}
	fill()
	k := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		k = (k + 1) % 4096
		if _, ok := s.Get(k, 1, true); !ok {
			t.Fatalf("warm slot %d missed", k)
		}
	}); n != 0 {
		t.Errorf("view Get allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k = (k + 1) % 4096
		_ = s.Set(k, 2, payload)
	}); n != 1 {
		t.Errorf("view Set overwrite allocates %v times per call, want 1 (the content copy)", n)
	}
}

// Slot n lives under the engine key "k<n>". The tiered backend writes
// that key into its heap file, so changing the spelling would turn every
// existing file cold: the format is pinned here, inside the key table
// and past it.
func TestViewKeyFormat(t *testing.T) {
	ks, err := fragstore.NewKeyed(fragstore.KeyedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ks.AsFragmentStore(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	for slot, key := range map[uint32]string{0: "k0", 17: "k17", 1048575: "k1048575", 1048576: "k1048576", 4294967295: "k4294967295"} {
		if err := v.Set(slot, 3, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if e, ok := ks.Get(key); !ok || e.Gen != 3 {
			t.Errorf("slot %d is not stored under %q", slot, key)
		}
	}
}
