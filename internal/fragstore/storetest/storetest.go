// Package storetest is the conformance suite every FragmentStore backend
// must pass. It exercises the contract the assembler, proxy, and coherency
// subscriber rely on: generation-checked gets, copy-on-set, byte and
// residency accounting, drop semantics, and concurrent safety (Run), and
// that a slice the store returned is never modified (RunRetention).
package storetest

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"dpcache/internal/fragstore"
)

// Factory builds a fresh store with the given key-space capacity. It is
// called once per subtest.
type Factory func(capacity int) (fragstore.FragmentStore, error)

// Run executes the conformance suite against the backend under name.
func Run(t *testing.T, name string, factory Factory) {
	t.Helper()
	mk := func(t *testing.T, capacity int) fragstore.FragmentStore {
		t.Helper()
		s, err := factory(capacity)
		if err != nil {
			t.Fatalf("factory(%d): %v", capacity, err)
		}
		return s
	}

	t.Run(name+"/SetGet", func(t *testing.T) {
		s := mk(t, 8)
		if err := s.Set(3, 7, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(3, 7, true)
		if !ok || string(got) != "hello" {
			t.Fatalf("Get = %q, %v", got, ok)
		}
	})

	// A page's shell is a fragment with no bytes: its SET is a hit like any
	// other, whether the content came as nil or as an empty slice.
	t.Run(name+"/ZeroLengthSet", func(t *testing.T) {
		s := mk(t, 8)
		for key, content := range map[uint32][]byte{2: nil, 5: {}} {
			if err := s.Set(key, 9, content); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key, 9, true); !ok || len(got) != 0 {
				t.Fatalf("key %d: strict Get = %q, %v; want a hit with no bytes", key, got, ok)
			}
			if _, ok := s.Get(key, 8, true); ok {
				t.Fatalf("key %d: strict Get matched another generation", key)
			}
			if got, ok := s.Get(key, 8, false); !ok || len(got) != 0 {
				t.Fatalf("key %d: non-strict Get = %q, %v; want a hit with no bytes", key, got, ok)
			}
		}
		if n := s.Resident(); n != 2 {
			t.Fatalf("Resident = %d, want the 2 empty fragments", n)
		}
	})

	t.Run(name+"/GetUnset", func(t *testing.T) {
		s := mk(t, 8)
		if _, ok := s.Get(0, 0, false); ok {
			t.Fatal("unset key reported a hit")
		}
	})

	t.Run(name+"/StrictGenerationCheck", func(t *testing.T) {
		s := mk(t, 8)
		if err := s.Set(1, 5, []byte("v5")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(1, 6, true); ok {
			t.Fatal("strict Get matched a different generation")
		}
		if got, ok := s.Get(1, 6, false); !ok || string(got) != "v5" {
			t.Fatalf("non-strict Get = %q, %v (want any-generation hit)", got, ok)
		}
		if got, ok := s.Get(1, 5, true); !ok || string(got) != "v5" {
			t.Fatalf("strict Get with matching gen = %q, %v", got, ok)
		}
	})

	t.Run(name+"/KeyOutOfRange", func(t *testing.T) {
		s := mk(t, 2)
		if err := s.Set(2, 1, []byte("x")); err == nil {
			t.Fatal("Set beyond capacity succeeded")
		}
		if _, ok := s.Get(2, 1, false); ok {
			t.Fatal("Get beyond capacity reported a hit")
		}
		s.Drop(2) // must not panic
	})

	t.Run(name+"/SetCopiesContent", func(t *testing.T) {
		s := mk(t, 2)
		buf := []byte("original")
		if err := s.Set(0, 1, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "CLOBBER!")
		if got, _ := s.Get(0, 1, true); !bytes.Equal(got, []byte("original")) {
			t.Fatalf("stored content aliased caller buffer: %q", got)
		}
	})

	t.Run(name+"/Overwrite", func(t *testing.T) {
		s := mk(t, 4)
		if err := s.Set(2, 1, []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(2, 2, []byte("second, longer")); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(2, 2, true); !ok || string(got) != "second, longer" {
			t.Fatalf("Get after overwrite = %q, %v", got, ok)
		}
		if _, ok := s.Get(2, 1, true); ok {
			t.Fatal("old generation still strict-matches after overwrite")
		}
		if s.Bytes() != int64(len("second, longer")) || s.Resident() != 1 {
			t.Fatalf("Bytes=%d Resident=%d after overwrite", s.Bytes(), s.Resident())
		}
	})

	t.Run(name+"/BytesAndResident", func(t *testing.T) {
		s := mk(t, 4)
		_ = s.Set(0, 1, []byte("abc"))
		_ = s.Set(1, 1, []byte("defg"))
		if s.Bytes() != 7 || s.Resident() != 2 {
			t.Fatalf("Bytes=%d Resident=%d, want 7, 2", s.Bytes(), s.Resident())
		}
		s.Drop(1)
		if s.Bytes() != 3 || s.Resident() != 1 {
			t.Fatalf("after Drop: Bytes=%d Resident=%d, want 3, 1", s.Bytes(), s.Resident())
		}
		if _, ok := s.Get(1, 1, false); ok {
			t.Fatal("dropped key still resident")
		}
	})

	t.Run(name+"/DropIdempotent", func(t *testing.T) {
		s := mk(t, 4)
		_ = s.Set(0, 1, []byte("x"))
		s.Drop(0)
		s.Drop(0)
		if s.Bytes() != 0 || s.Resident() != 0 {
			t.Fatalf("double Drop corrupted accounting: Bytes=%d Resident=%d", s.Bytes(), s.Resident())
		}
	})

	t.Run(name+"/DropAll", func(t *testing.T) {
		s := mk(t, 16)
		for k := uint32(0); k < 16; k++ {
			_ = s.Set(k, 1, []byte("payload"))
		}
		s.DropAll()
		if s.Bytes() != 0 || s.Resident() != 0 {
			t.Fatalf("after DropAll: Bytes=%d Resident=%d", s.Bytes(), s.Resident())
		}
		for k := uint32(0); k < 16; k++ {
			if _, ok := s.Get(k, 1, false); ok {
				t.Fatalf("key %d survived DropAll", k)
			}
		}
		// The store must remain usable after a full flush.
		if err := s.Set(3, 2, []byte("again")); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(3, 2, true); !ok || string(got) != "again" {
			t.Fatalf("Set after DropAll = %q, %v", got, ok)
		}
	})

	t.Run(name+"/Capacity", func(t *testing.T) {
		s := mk(t, 32)
		if s.Capacity() != 32 {
			t.Fatalf("Capacity = %d, want 32", s.Capacity())
		}
		if _, err := factory(0); err == nil {
			t.Fatal("factory accepted zero capacity")
		}
		if _, err := factory(-1); err == nil {
			t.Fatal("factory accepted negative capacity")
		}
	})

	t.Run(name+"/StatsConsistency", func(t *testing.T) {
		s := mk(t, 8)
		_ = s.Set(0, 1, []byte("aa"))
		_ = s.Set(1, 1, []byte("bbb"))
		s.Get(0, 1, true)  // hit
		s.Get(5, 1, false) // miss: unset
		s.Get(0, 2, true)  // miss: resident under another generation
		s.Get(8, 1, false) // miss: beyond capacity
		s.Drop(1)
		st := s.Stats()
		if st.Backend == "" {
			t.Fatal("Stats.Backend is empty")
		}
		if st.Capacity != 8 || st.Resident != s.Resident() || st.Bytes != s.Bytes() {
			t.Fatalf("Stats occupancy mismatch: %+v vs Resident=%d Bytes=%d", st, s.Resident(), s.Bytes())
		}
		if st.Sets != 2 || st.Hits != 1 || st.Misses != 3 || st.Drops != 1 {
			t.Fatalf("Stats activity mismatch: %+v", st)
		}
	})

	t.Run(name+"/ConcurrentMixed", func(t *testing.T) {
		const capacity = 64
		s := mk(t, capacity)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("worker-%d-payload", g))
				for i := 0; i < 500; i++ {
					k := uint32((g*31 + i) % capacity)
					switch i % 4 {
					case 0, 1:
						if got, ok := s.Get(k, 1, false); ok && len(got) == 0 {
							t.Errorf("hit returned empty content for key %d", k)
							return
						}
					case 2:
						if err := s.Set(k, 1, payload); err != nil {
							t.Errorf("Set(%d): %v", k, err)
							return
						}
					default:
						s.Drop(k)
					}
				}
			}(g)
		}
		wg.Wait()
		// Accounting must still be coherent after the storm.
		st := s.Stats()
		if st.Bytes < 0 || st.Resident < 0 || st.Resident > capacity {
			t.Fatalf("accounting out of range after concurrency: %+v", st)
		}
	})
}

// RunRetention checks the contract's retention rule against the backend
// under name: a slice returned by Get, or by Peek when the store is a
// fragstore.Peeker, keeps its bytes through everything the store does
// afterwards — a Set of a new generation over it, Drop, DropAll, and what
// the backend does under pressure: budget eviction, demotion to a disk tier
// and promotion back, and the reuse of a heap file's freed pages. A Peek
// must leave Stats exactly as it found them. factory should build a store
// whose budget, if it has one, holds a few of 32 values of up to 200 bytes.
func RunRetention(t *testing.T, name string, factory Factory) {
	t.Helper()
	t.Run(name+"/RetainedSlices", func(t *testing.T) {
		const keys = 32
		s, err := factory(keys)
		if err != nil {
			t.Fatalf("factory(%d): %v", keys, err)
		}
		if c, ok := s.(io.Closer); ok {
			t.Cleanup(func() { _ = c.Close() })
		}
		value := func(key, gen uint32) []byte {
			v := make([]byte, 8+(key*37+gen*11)%193)
			for i := range v {
				v[i] = byte(key*7 + gen*13 + uint32(i))
			}
			return v
		}
		type held struct {
			key, gen uint32
			b        []byte
		}
		var kept []held
		pk, peeks := s.(fragstore.Peeker)
		keep := func(key, gen uint32) {
			t.Helper()
			if b, ok := s.Get(key, gen, true); ok {
				kept = append(kept, held{key, gen, b})
			}
			if !peeks {
				return
			}
			before := s.Stats()
			b, ok := pk.Peek(key, gen)
			if after := s.Stats(); after != before {
				t.Fatalf("Peek(%d, %d) moved Stats: %+v, then %+v", key, gen, before, after)
			}
			if ok {
				kept = append(kept, held{key, gen, b})
			}
			if _, ok := pk.Peek(key, gen+1); ok {
				t.Fatalf("Peek(%d, %d) matched generation %d", key, gen+1, gen)
			}
		}
		verify := func(after string) {
			t.Helper()
			for _, h := range kept {
				if !bytes.Equal(h.b, value(h.key, h.gen)) {
					t.Fatalf("after %s: a slice returned for key %d gen %d now reads %q", after, h.key, h.gen, h.b)
				}
			}
		}
		for gen := uint32(1); gen <= 4; gen++ {
			for k := uint32(0); k < keys; k++ {
				if err := s.Set(k, gen, value(k, gen)); err != nil {
					t.Fatal(err)
				}
				keep(k, gen)
			}
			verify(fmt.Sprintf("the Sets of generation %d", gen))
			for k := uint32(0); k < keys; k++ {
				keep(k, gen) // a second read: a disk hit now earns RAM
			}
			verify(fmt.Sprintf("rereading generation %d", gen))
			for k := gen % 3; k < keys; k += 3 {
				s.Drop(k)
			}
			verify("Drop")
		}
		s.DropAll()
		verify("DropAll")
		for k := uint32(0); k < keys; k++ {
			if err := s.Set(k, 9, value(k, 9)); err != nil {
				t.Fatal(err)
			}
			keep(k, 9)
		}
		verify("the Sets after DropAll")
		if len(kept) == 0 {
			t.Fatal("no read hit: nothing was retained")
		}
	})
}
