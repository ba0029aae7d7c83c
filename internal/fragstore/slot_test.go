package fragstore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dpcache/internal/fragstore"
)

// slotStores builds the slot array at one lock stripe (the slot backend)
// and at sixteen (the sharded backend without a byte budget), over a
// capacity that is not a multiple of the stripe count, so the last stripes
// hold one slot fewer than the first.
func slotStores(t *testing.T, capacity int) map[string]fragstore.FragmentStore {
	t.Helper()
	out := make(map[string]fragstore.FragmentStore)
	for _, cfg := range []fragstore.Config{
		{Backend: fragstore.BackendSlot},
		{Backend: fragstore.BackendSharded, Shards: 16},
	} {
		cfg.Capacity = capacity
		s, err := fragstore.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if want := max(cfg.Shards, 1); st.Shards != want || st.Backend != cfg.Backend || st.ByteBudget != 0 {
			t.Fatalf("%+v built %+v, want the array over %d stripe(s)", cfg, st, want)
		}
		out[fmt.Sprintf("%s-%dstripes", cfg.Backend, st.Shards)] = s
	}
	return out
}

type slotEntry struct {
	gen  uint32
	data []byte
}

// TestSlotModel drives the slot array and a map oracle through the same
// random Sets, strict and loose Gets, Drops and DropAlls, and checks the
// array's contents, Resident, Bytes and every Stats counter after each
// operation.
func TestSlotModel(t *testing.T) {
	const capacity, steps = 37, 4000
	for name, s := range slotStores(t, capacity) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			oracle := make(map[uint32]slotEntry)
			var want fragstore.Stats
			for step := 0; step < steps; step++ {
				// Keys run a few past the capacity: those Sets fail, those
				// Gets miss, those Drops do nothing.
				key := uint32(rng.Intn(capacity + 3))
				gen := uint32(rng.Intn(3))
				var op string
				switch r := rng.Intn(100); {
				case r < 40:
					op = fmt.Sprintf("Set(%d, %d)", key, gen)
					data := bytes.Repeat([]byte{byte(step)}, rng.Intn(20))
					err := s.Set(key, gen, data)
					if int(key) >= capacity {
						if err == nil {
							t.Fatalf("step %d: %s past the capacity succeeded", step, op)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: %s: %v", step, op, err)
					}
					want.Sets++
					oracle[key] = slotEntry{gen, data}
				case r < 80:
					strict := r < 60
					op = fmt.Sprintf("Get(%d, %d, %v)", key, gen, strict)
					got, ok := s.Get(key, gen, strict)
					e, held := oracle[key]
					wantOK := held && (!strict || e.gen == gen)
					if ok != wantOK || (ok && !bytes.Equal(got, e.data)) {
						t.Fatalf("step %d: %s = %q, %v; oracle holds %+v, %v", step, op, got, ok, e, held)
					}
					if ok {
						want.Hits++
					} else {
						want.Misses++
					}
				case r < 98:
					op = fmt.Sprintf("Drop(%d)", key)
					s.Drop(key)
					if _, held := oracle[key]; held {
						want.Drops++
						delete(oracle, key)
					}
				default:
					op = "DropAll()"
					s.DropAll()
					want.Drops += int64(len(oracle))
					clear(oracle)
				}
				want.Resident, want.Bytes = len(oracle), 0
				for _, e := range oracle {
					want.Bytes += int64(len(e.data))
				}
				st := s.Stats()
				if st.Resident != want.Resident || st.Bytes != want.Bytes || st.Sets != want.Sets ||
					st.Hits != want.Hits || st.Misses != want.Misses || st.Drops != want.Drops ||
					st.Evictions != 0 || st.EvictedBytes != 0 {
					t.Fatalf("step %d: after %s Stats = %+v, want %+v", step, op, st, want)
				}
				if s.Resident() != want.Resident || s.Bytes() != want.Bytes {
					t.Fatalf("step %d: after %s Resident, Bytes = %d, %d; want %d, %d",
						step, op, s.Resident(), s.Bytes(), want.Resident, want.Bytes)
				}
			}
		})
	}
}

// TestSlotStress runs writers and readers against the array at once and
// checks, once the writers stop, that Resident and Bytes equal the sum
// over the slots and that every operation was counted once.
func TestSlotStress(t *testing.T) {
	const capacity, workers, ops = 101, 4, 2000
	for name, s := range slotStores(t, capacity) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			var sets, gets [workers]int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < ops; i++ {
						key := uint32(rng.Intn(capacity))
						switch r := rng.Intn(100); {
						case r < 45:
							if err := s.Set(key, uint32(w), make([]byte, rng.Intn(64))); err != nil {
								t.Error(err)
								return
							}
							sets[w]++
						case r < 90:
							s.Get(key, uint32(w), r < 70)
							gets[w]++
						case r < 99:
							s.Drop(key)
						default:
							s.DropAll()
						}
					}
				}(w)
			}
			wg.Wait()

			before := s.Stats()
			var resident int
			var bytes int64
			for k := uint32(0); k < capacity; k++ {
				if data, ok := s.Get(k, 0, false); ok {
					resident++
					bytes += int64(len(data))
				}
			}
			if before.Resident != resident || before.Bytes != bytes {
				t.Fatalf("Resident, Bytes = %d, %d; the slots hold %d, %d", before.Resident, before.Bytes, resident, bytes)
			}
			var wantSets, wantGets int64
			for w := range sets {
				wantSets += sets[w]
				wantGets += gets[w]
			}
			if before.Sets != wantSets || before.Hits+before.Misses != wantGets {
				t.Fatalf("Stats = %+v after %d Sets and %d Gets", before, wantSets, wantGets)
			}
		})
	}
}
