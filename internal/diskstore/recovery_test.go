package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// entryFor derives a deterministic value for key i so recovery checks
// can verify content, not just presence.
func entryFor(i, size int) []byte {
	v := make([]byte, size)
	rand.New(rand.NewSource(int64(i) * 7919)).Read(v)
	return v
}

// TestRecoveryTornFile is the crash-drill: fill the store under
// concurrent write load, then simulate a crash-torn heap file by
// truncating it mid-page AND bit-flipping a byte inside a surviving
// page. Reopening must discard exactly the damaged pages — no panic,
// no corrupt reads — while every entry on intact pages is served with
// its bytes verified.
func TestRecoveryTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.heap")
	s, err := Open(Config{Path: path, PageBytes: MinPageBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				e := Entry{Value: entryFor(i, 1024+i*17), Gen: uint64(i)}
				if !s.Put(fmt.Sprintf("k%d", i), e) {
					t.Errorf("Put k%d refused", i)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	pages := int(fi.Size() / MinPageBytes)
	if pages < 6 {
		t.Fatalf("want a multi-page file for a meaningful tear, got %d pages", pages)
	}

	// Tear 1: truncate mid-page, leaving a partial final page.
	tornSize := fi.Size() - MinPageBytes/2
	if err := os.Truncate(path, tornSize); err != nil {
		t.Fatal(err)
	}
	// Tear 2: flip one bit inside the record area of an interior page.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	flippedPage := pages / 2
	flipOff := int64(flippedPage)*MinPageBytes + MinPageBytes/2
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, flipOff); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one, flipOff); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Config{Path: path, PageBytes: MinPageBytes})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	defer s2.Close()

	st := s2.Stats()
	// The torn tail and the bit-flipped page must both be discarded.
	if st.ChecksumDiscards < 2 {
		t.Fatalf("expected >=2 checksum discards (torn tail + bit flip), got %d", st.ChecksumDiscards)
	}
	if st.RecoveredEntries == 0 {
		t.Fatal("nothing recovered from intact pages")
	}
	if st.RecoveredEntries >= n {
		t.Fatalf("recovered %d entries; the damage should have claimed some", st.RecoveredEntries)
	}

	// Every recovered entry must serve exact bytes; entries lost to the
	// tear miss cleanly.
	served := 0
	for i := 0; i < n; i++ {
		e, ok := s2.Get(fmt.Sprintf("k%d", i))
		if !ok {
			continue
		}
		if !bytes.Equal(e.Value, entryFor(i, 1024+i*17)) || e.Gen != uint64(i) {
			t.Fatalf("k%d served corrupt bytes after recovery", i)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no intact entries served after tear")
	}

	// The recovered store must remain fully writable, including reuse
	// of the discarded pages' space.
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("new%d", i)
		if !s2.Put(k, Entry{Value: entryFor(1000+i, 2048)}) {
			t.Fatalf("post-recovery Put %s refused", k)
		}
		if e, ok := s2.Get(k); !ok || !bytes.Equal(e.Value, entryFor(1000+i, 2048)) {
			t.Fatalf("post-recovery roundtrip %s failed", k)
		}
	}
}

// TestRecoveryAllPagesCorrupt drives the degenerate case: every page
// damaged. The store must open empty and be usable.
func TestRecoveryAllPagesCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dead.heap")
	s, err := Open(Config{Path: path, PageBytes: MinPageBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s.Put(fmt.Sprintf("k%d", i), Entry{Value: entryFor(i, 900)})
	}
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 16; off < len(raw); off += MinPageBytes {
		raw[off] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Path: path, PageBytes: MinPageBytes})
	if err != nil {
		t.Fatalf("reopen over fully-corrupt file: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.RecoveredEntries != 0 || st.Resident != 0 {
		t.Fatalf("recovered entries from corrupt pages: %+v", st)
	}
	if st.ChecksumDiscards == 0 {
		t.Fatal("no discards counted")
	}
	if !s2.Put("fresh", Entry{Value: []byte("v")}) {
		t.Fatal("store unusable after total corruption")
	}
	if e, ok := s2.Get("fresh"); !ok || string(e.Value) != "v" {
		t.Fatal("post-corruption put lost")
	}
}

// TestTailFrameSurvivesKillAndPoolPressure pins the tail-frame pin loss:
// deleting a record on the unsealed tail page clones its frame, and the
// tail's standing pin must move onto the clone. With PoolPages 1, reads
// of sealed pages otherwise evict the tail and the next Put finds no
// frame to append into.
func TestTailFrameSurvivesKillAndPoolPressure(t *testing.T) {
	s := openTemp(t, Config{PageBytes: MinPageBytes, PoolPages: 1})
	big := make([]byte, MinPageBytes/2)
	for _, k := range []string{"a1", "a2", "b1", "b2"} {
		s.Put(k, Entry{Value: big})
	}
	s.Put("tailkey", Entry{Value: []byte("x")})
	s.Put("tailkey2", Entry{Value: []byte("y")})
	s.Delete("tailkey") // a kill in the unsealed tail clones its frame
	// Read only keys on sealed pages, so an unpinned tail frame would be
	// evicted and never reloaded.
	for round := 0; round < 3; round++ {
		for _, k := range []string{"a1", "b1", "a2"} {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("lost %q", k)
			}
		}
	}
	s.Put("after", Entry{Value: []byte("z")})
	for _, k := range []string{"after", "tailkey2"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("lost %q", k)
		}
	}
}

// TestReplayOutranksIncompleteRecords: replay passes over a record one of
// whose segments was lost — a value spanning three pages, the last of them
// torn off — but its first segment stays in the file, on a page that holds
// another live record. Records written afterwards must still outrank it: a
// new record of the key under the same sequence would be read back at the
// next replay as one more segment of the broken one, and lost with it.
func TestReplayOutranksIncompleteRecords(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "incomplete.heap"), PageBytes: MinPageBytes}
	reopen := func(s *Store) *Store {
		t.Helper()
		if s != nil {
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	s := reopen(nil)
	s.Put("keeps-the-page-alive", Entry{Value: []byte("x")})
	s.Put("k", Entry{Value: make([]byte, 5*MinPageBytes/2)}) // highest sequence in the file
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fi, err := os.Stat(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 3*MinPageBytes {
		t.Fatalf("setup: want k over three pages, the file has %d bytes", fi.Size())
	}
	if err := os.Truncate(cfg.Path, fi.Size()-MinPageBytes); err != nil {
		t.Fatal(err)
	}
	s = reopen(nil)
	if _, ok := s.Peek("k"); ok {
		t.Fatal("incomplete record recovered")
	}
	if st := s.Stats(); st.RecoveredEntries != 1 {
		t.Fatalf("setup: want only the page's other record recovered: %+v", st)
	}
	s.Put("k", Entry{Value: []byte("new")})
	s = reopen(s)
	defer s.Close()
	if e, ok := s.Get("k"); !ok || string(e.Value) != "new" {
		t.Fatalf("Get(k) after the second replay = %q, %v; want the value stored after the first", e.Value, ok)
	}
}

// TestReplayErasesRecycledPages: a page whose records all lost at replay —
// here a record whose kill never reached the file beside the newer record
// that replaced it — is erased when it is recycled. A tail later placed on
// it is not written until sealed, so a crash before then must not find the
// old record there to bring back after its key was deleted.
func TestReplayErasesRecycledPages(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Path: filepath.Join(dir, "recycled.heap"), PageBytes: MinPageBytes}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, MinPageBytes-96) // a record that fills a page alone
	s.Put("j", Entry{Value: whole, Gen: 1})
	s.Put("f", Entry{Value: whole}) // seals page 0, which holds only j
	img := make([]byte, MinPageBytes)
	if _, err := s.file.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	s.Put("j", Entry{Value: whole, Gen: 2}) // kills and frees page 0
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, 0); err != nil { // as if the kill never landed
		t.Fatal(err)
	}
	f.Close()

	s = openTemp(t, cfg)
	if e, ok := s.Peek("j"); !ok || e.Gen != 2 {
		t.Fatalf("replay: j = gen %d, %v; want the newer record", e.Gen, ok)
	}
	s.Delete("j")
	s.Put("t", Entry{Value: []byte("x")}) // the tail takes page 0, the free list's first
	if s.tail != 0 {
		t.Fatalf("setup: tail on page %d, want the recycled page 0", s.tail)
	}
	cfg.Path = filepath.Join(dir, "crashed.heap")
	s = s.crash(t, cfg)
	defer s.Close()
	if e, ok := s.Peek("j"); ok {
		t.Fatalf("deleted j came back at gen %d after a crash", e.Gen)
	}
}

// TestTailTakesOnlyErasedFreePages: a page freed while an older image of it
// is still being written back is not taken for the next tail until its
// erasure has landed, or a crash before that tail is sealed would replay
// the older image's records, deletions undone. The write-back in flight is
// played by its flag.
func TestTailTakesOnlyErasedFreePages(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Path: filepath.Join(dir, "erasure.heap"), PageBytes: MinPageBytes}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, MinPageBytes-96) // a record that fills a page alone
	s.Put("j", Entry{Value: whole, Gen: 1})
	s.Put("f1", Entry{Value: whole}) // seals page 0, which holds only j
	s.mu.Lock()
	s.flushing[0] = true // a write-back of page 0's image is in flight
	s.mu.Unlock()
	s.Delete("j")                    // frees page 0; its erasure waits for that write
	s.Put("f2", Entry{Value: whole}) // seals page 1 and places a new tail
	if s.tail == 0 {
		t.Fatal("the new tail took page 0 before its erasure landed")
	}
	s.mu.Lock()
	delete(s.flushing, 0) // the write lands; its flusher looks for more work
	s.mu.Unlock()
	s.flushDirty(false)
	cfg.Path = filepath.Join(dir, "crashed.heap")
	s = s.crash(t, cfg)
	defer s.Close()
	if e, ok := s.Peek("j"); ok {
		t.Fatalf("deleted j came back at gen %d after a crash", e.Gen)
	}
	if _, ok := s.Peek("f1"); !ok {
		t.Fatal("f1, on a sealed page, lost")
	}
}

// TestReplayLoserStaysDead: a record that loses at replay to a newer record
// of its key — its kill never reached the file — on a page another live
// record keeps, is killed by the replay and its page written back. Left
// live in the file, it would be replayed again once the winner is deleted,
// even after a clean Close.
func TestReplayLoserStaysDead(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "loser.heap"), PageBytes: MinPageBytes}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("o", Entry{Value: []byte("keeps page 0 live")})
	s.Put("j", Entry{Value: []byte("first"), Gen: 1})
	s.Put("f", Entry{Value: make([]byte, MinPageBytes-96)}) // seals page 0
	img := make([]byte, MinPageBytes)
	if _, err := s.file.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	s.Put("j", Entry{Value: []byte("second"), Gen: 2}) // kills gen 1 on page 0
	if d := s.index["j"]; d.segs[0].page == 0 {
		t.Fatal("setup: gen 2 was staged on page 0")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, 0); err != nil { // as if the kill never landed
		t.Fatal(err)
	}
	f.Close()

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Peek("j"); !ok || e.Gen != 2 {
		t.Fatalf("replay: j = gen %d, %v; want the newer record", e.Gen, ok)
	}
	s.Delete("j")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTemp(t, cfg)
	if e, ok := s.Peek("j"); ok {
		t.Fatalf("deleted j came back at gen %d", e.Gen)
	}
	if e, ok := s.Peek("o"); !ok || string(e.Value) != "keeps page 0 live" {
		t.Fatalf("o = %q, %v; want its record, beside the killed loser", e.Value, ok)
	}
}
