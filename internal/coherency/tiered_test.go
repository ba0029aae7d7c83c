package coherency

import (
	"io"
	"path/filepath"
	"testing"

	"dpcache/internal/fragstore"
)

// TestStoreSubscriberDropsDiskResident pins the coherency guarantee at
// the tier boundary: a fabric invalidation must remove a fragment that
// has been demoted out of RAM and lives only in the heap file — the
// disk tier honors tombstones exactly like the RAM tier.
func TestStoreSubscriberDropsDiskResident(t *testing.T) {
	fs, err := fragstore.New(fragstore.Config{
		Backend:    fragstore.BackendTiered,
		Capacity:   16,
		ByteBudget: 16, // two 8-byte fragments: the third put demotes
		Eviction:   "lru",
		DiskPath:   filepath.Join(t.TempDir(), "fabric.heap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.(io.Closer).Close() })
	for k := uint32(1); k <= 3; k++ {
		if err := fs.Set(k, 5, []byte("88888888")); err != nil {
			t.Fatal(err)
		}
	}
	tierStats := func() fragstore.TieredStats {
		ts, ok := fragstore.DiskStats(fs)
		if !ok {
			t.Fatal("tiered backend reports no disk tier")
		}
		return ts
	}
	if st := tierStats(); st.Disk.Resident != 1 {
		t.Fatalf("setup: want key 1 demoted to disk, got %+v", st)
	}

	sub := NewStoreSubscriber(fs)
	sub.Apply(Event{Seq: 1, Kind: KindFragment, FragmentID: "f1", Key: 1, Gen: 5})
	if _, ok := fs.Get(1, 5, false); ok {
		t.Fatal("invalidated disk-resident fragment still served")
	}
	if st := tierStats(); st.Disk.Resident != 0 {
		t.Fatalf("invalidated fragment still on disk: %+v", st)
	}

	// A sequence gap flushes everything, disk tier included.
	for k := uint32(1); k <= 3; k++ {
		fs.Set(k, 5, []byte("88888888"))
	}
	sub.Apply(Event{Seq: 5, Kind: KindFragment, FragmentID: "f2", Key: 2, Gen: 5})
	if fs.Resident() != 0 {
		t.Fatalf("gap flush left %d entries across the tiers", fs.Resident())
	}
	if st := tierStats(); st.Disk.Resident != 0 {
		t.Fatalf("gap flush left disk entries: %+v", st)
	}
}
