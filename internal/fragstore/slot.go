package fragstore

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// SlotStore is the paper-faithful fragment memory of Section 4.3.3: "an
// in-memory array of pointers to cached fragments, where the DpcKey serves
// as the array index". Slots are written only by SET instructions; invalid
// slots are never explicitly cleared — their content simply goes
// unreferenced until a SET reuses the slot, exactly the freeList
// discipline the BEM enforces. (Drop exists for the coherency extension,
// which must stop serving a fragment immediately.)
//
// The array is split into lock stripes: slot k sits under stripe
// k & (n−1), and each stripe holds its own slots, RWMutex, resident and
// byte counts and operation counters, padded to whole cache lines. The
// slot backend has one stripe — the paper's single RWMutex, and the
// reference the conformance suite holds every other backend to; the
// sharded backend without a byte budget has Config.Shards of them. An
// array with no budget can never evict, so it keeps no eviction state:
// a Get is an index, a lock and a generation compare.
type SlotStore struct {
	stripes  []stripe
	shift    uint   // log2(len(stripes)): slot k is slots[k>>shift] of stripe k&mask
	mask     uint32 // len(stripes) − 1
	capacity int
	backend  string
}

type stripeState struct {
	mu       sync.RWMutex
	slots    []slot
	resident int
	bytes    int64

	sets, hits, misses, drops atomic.Int64
}

// cacheLine is the padding unit that keeps two stripes' locks and
// counters off each other's cache lines.
const cacheLine = 64

type stripe struct {
	stripeState
	_ [cacheLine - unsafe.Sizeof(stripeState{})%cacheLine]byte
}

type slot struct {
	set  bool
	gen  uint32
	data []byte
}

// NewSlotStore returns a single-stripe store with the given slot capacity:
// the paper's array under one RWMutex.
func NewSlotStore(capacity int) (*SlotStore, error) {
	return newSlotStore(capacity, 1, BackendSlot)
}

// newSlotStore returns a store of capacity slots over stripes lock stripes
// (a power of two), reporting backend as its name.
func newSlotStore(capacity, stripes int, backend string) (*SlotStore, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("fragstore: store capacity must be positive, got %d", capacity)
	}
	s := &SlotStore{
		stripes:  make([]stripe, stripes),
		shift:    uint(bits.TrailingZeros(uint(stripes))),
		mask:     uint32(stripes - 1),
		capacity: capacity,
		backend:  backend,
	}
	for i := range s.stripes {
		// Stripe i holds slots i, i+n, i+2n, … below capacity.
		s.stripes[i].slots = make([]slot, (capacity-i+stripes-1)/stripes)
	}
	return s, nil
}

// locate returns the stripe holding key and key's slot in it; key must be
// below capacity.
func (s *SlotStore) locate(key uint32) (*stripe, *slot) {
	st := &s.stripes[key&s.mask]
	return st, &st.slots[key>>s.shift]
}

// Capacity returns the slot count.
func (s *SlotStore) Capacity() int { return s.capacity }

// Set stores content into a slot, stamping it with the generation from the
// SET tag. The content is copied.
func (s *SlotStore) Set(key, gen uint32, content []byte) error {
	if int64(key) >= int64(s.capacity) {
		return fmt.Errorf("fragstore: key %d outside store capacity %d", key, s.capacity)
	}
	cp := make([]byte, len(content))
	copy(cp, content)
	st, sl := s.locate(key)
	st.sets.Add(1)
	st.mu.Lock()
	if !sl.set {
		st.resident++
	}
	st.bytes += int64(len(cp)) - int64(len(sl.data))
	sl.set = true
	sl.gen = gen
	sl.data = cp
	st.mu.Unlock()
	return nil
}

// Get returns the slot's content; see FragmentStore.Get for strict.
func (s *SlotStore) Get(key, gen uint32, strict bool) ([]byte, bool) {
	if int64(key) >= int64(s.capacity) {
		s.stripes[key&s.mask].misses.Add(1)
		return nil, false
	}
	st, sl := s.locate(key)
	st.mu.RLock()
	if !sl.set || (strict && sl.gen != gen) {
		st.mu.RUnlock()
		st.misses.Add(1)
		return nil, false
	}
	data := sl.data
	st.mu.RUnlock()
	st.hits.Add(1)
	return data, true
}

// Peek implements Peeker: the slot's content at exactly gen, read under
// the stripe's read lock and counted nowhere.
func (s *SlotStore) Peek(key, gen uint32) ([]byte, bool) {
	if int64(key) >= int64(s.capacity) {
		return nil, false
	}
	st, sl := s.locate(key)
	st.mu.RLock()
	data, ok := sl.data, sl.set && sl.gen == gen
	st.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return data, true
}

// Drop clears a slot.
func (s *SlotStore) Drop(key uint32) {
	if int64(key) >= int64(s.capacity) {
		return
	}
	st, sl := s.locate(key)
	st.mu.Lock()
	if sl.set {
		st.resident--
		st.drops.Add(1)
	}
	st.bytes -= int64(len(sl.data))
	*sl = slot{}
	st.mu.Unlock()
}

// DropAll clears every slot, one stripe at a time.
func (s *SlotStore) DropAll() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for j := range st.slots {
			if st.slots[j].set {
				st.drops.Add(1)
			}
			st.slots[j] = slot{}
		}
		st.bytes = 0
		st.resident = 0
		st.mu.Unlock()
	}
}

// Bytes returns the total content bytes currently resident.
func (s *SlotStore) Bytes() int64 { return s.Stats().Bytes }

// Resident returns the number of set slots.
func (s *SlotStore) Resident() int { return s.Stats().Resident }

// Stats implements FragmentStore. Each stripe is read under its own lock,
// so the totals are a sum of per-stripe snapshots, exact once writers stop.
func (s *SlotStore) Stats() Stats {
	out := Stats{Backend: s.backend, Shards: len(s.stripes), Capacity: s.capacity}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		out.Resident += st.resident
		out.Bytes += st.bytes
		st.mu.RUnlock()
		out.Sets += st.sets.Load()
		out.Hits += st.hits.Load()
		out.Misses += st.misses.Load()
		out.Drops += st.drops.Load()
	}
	return out
}
