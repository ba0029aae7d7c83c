package tmplplan

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
)

// scratchContent is the one value slot key holds at generation gen: a
// pure function, so the generations a template names fix its page.
func scratchContent(key, gen uint32) []byte {
	n := 40 + int(key*37+gen*11)%300
	unit := fmt.Sprintf("<%d:%d>", key, gen)
	return bytes.Repeat([]byte(unit), n/len(unit)+1)[:n]
}

// ownedValue is a value the store handed out as its own (a RAM entry, a
// promoted copy, an eviction's held victim), with its checksum when read.
type ownedValue struct {
	data []byte
	sum  uint32
	key  uint32
	gen  uint32
}

// TestScratchAliasing runs plans through the run's scratch over a tiered
// store whose RAM tier holds a few fragments, so most GETs are disk hits —
// served in place into the scratch, or promoted — while writers Set, Drop
// and DropAll, every Set forcing evictions and the readers' repeats forcing
// promotions. Every assembled page must be the bytes of the generations its
// template named, and no value the store owns may change after a scratch
// read: each reader keeps the last values a plain Get returned and checks
// their checksums after its later runs. A scratch that became a RAM entry,
// a promoted copy or a held victim fails the checksum, and under the race
// detector the overwrite is a race.
func TestScratchAliasing(t *testing.T) {
	const (
		keys     = 24
		readers  = 4
		runs     = 300
		getsPer  = 6
		keepLast = 16
	)
	store, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendTiered, Capacity: keys, Eviction: "lru",
		ByteBudget: 600, // two or three fragments
		DiskPath:   filepath.Join(t.TempDir(), "alias.heap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.(io.Closer).Close()
	for k := uint32(0); k < keys; k++ {
		if err := store.Set(k, 1, scratchContent(k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	codec := tmpl.Binary{}
	exec := &Exec{Store: store, Strict: true, Codec: codec}

	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := uint32(rng.Intn(keys))
				switch r := rng.Intn(1000); {
				case r < 960: // mostly generation 1; each Set evicts
					gen := uint32(1)
					if r < 30 {
						gen = 2
					}
					if err := store.Set(k, gen, scratchContent(k, gen)); err != nil {
						t.Error(err)
						return
					}
				case r < 999:
					store.Drop(k)
				default:
					store.DropAll()
				}
				runtime.Gosched()
			}
		}(int64(w + 1))
	}

	var served, stale atomic.Int64
	var readersDone sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersDone.Add(1)
		go func(seed int64) {
			defer readersDone.Done()
			rng := rand.New(rand.NewSource(seed))
			var owned []ownedValue
			var page bytes.Buffer
			for run := 0; run < runs; run++ {
				// A template of getsPer GETs, each key named twice in a row
				// now and then so that its second read promotes.
				var ins []tmpl.Instruction
				var want bytes.Buffer
				for g := 0; g < getsPer; g++ {
					k, gen := uint32(rng.Intn(keys)), uint32(1)
					if rng.Intn(20) == 0 {
						gen = 2
					}
					reps := 1 + rng.Intn(2)
					for i := 0; i < reps; i++ {
						ins = append(ins, lit("|"), get(k, gen))
						want.WriteString("|")
						want.Write(scratchContent(k, gen))
					}
				}
				p, err := Compile(codec, encode(t, codec, ins))
				if err != nil {
					t.Error(err)
					return
				}
				page.Reset()
				_, err = exec.Run(p, &page, nil)
				switch {
				case errors.Is(err, ErrStale):
					stale.Add(1)
				case err != nil:
					t.Error(err)
					return
				case !bytes.Equal(page.Bytes(), want.Bytes()):
					got, w := page.Bytes(), want.Bytes()
					at := 0
					for at < len(got) && at < len(w) && got[at] == w[at] {
						at++
					}
					t.Errorf("page of %d B differs from the oracle's %d B at byte %d: %q, want %q",
						len(got), len(w), at, got[at:min(at+24, len(got))], w[at:min(at+24, len(w))])
					return
				default:
					served.Add(1)
				}
				for _, v := range owned {
					if crc32.ChecksumIEEE(v.data) != v.sum {
						t.Errorf("the store's value of %d:%d changed after a scratch read", v.key, v.gen)
						return
					}
				}
				// A value the store owns: whatever tier held it, it must be
				// the generation's bytes and must stay so.
				k, gen := uint32(rng.Intn(keys)), 1+uint32(rng.Intn(2))
				if data, ok := store.Get(k, gen, true); ok {
					if !bytes.Equal(data, scratchContent(k, gen)) {
						t.Errorf("Get(%d, %d) returned %d B that are not the generation's %d", k, gen, len(data), len(scratchContent(k, gen)))
						return
					}
					owned = append(owned, ownedValue{data: data, sum: crc32.ChecksumIEEE(data), key: k, gen: gen})
					if len(owned) > keepLast {
						owned = owned[1:]
					}
				}
			}
		}(int64(100 + r))
	}
	readersDone.Wait()
	stop.Store(true)
	writers.Wait()

	ts, _ := fragstore.DiskStats(store)
	t.Logf("%d pages served, %d stale; disk hits %d: %d promoted, %d in place; %d demotions, %d clean evictions",
		served.Load(), stale.Load(), ts.DiskHits, ts.Promotions, ts.ServedInPlace, ts.Demotions, ts.CleanEvictions)
	if served.Load() == 0 || ts.Promotions == 0 || ts.ServedInPlace == 0 {
		t.Fatalf("the run did not cross the tier boundary both ways: %d pages served, %+v", served.Load(), ts)
	}
}
