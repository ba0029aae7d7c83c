package dpc

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
)

// A flight's broadcast buffer is a pooled array: who gives it back, when,
// and what the next flight's followers can see of it.

func never() bool { return false }

// held reports whether the flight still holds its pooled buffer.
func (f *flight) held() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bufRef != nil
}

// drain reads the flight through fol until it reaches a terminal state.
func drain(f *flight, fol *follower) ([]byte, flightChunk) {
	var page []byte
	scratch := make([]byte, 100) // several reads per page
	for {
		c := f.next(fol, scratch, never)
		page = append(page, scratch[:c.n]...)
		if c.n == 0 && (c.state != flightOpen || c.overrun) {
			return page, c
		}
	}
}

// A follower still attached when the leader finishes reads the whole page,
// concurrently with the leader's appends, and the buffer goes back on its
// detach, not on the leader's close.
func TestFlightBufferReturnedByLastDetach(t *testing.T) {
	f := newFlight("k", http.MethodGet, defaultBroadcastBytes)
	fol := f.attach()
	want := bytes.Repeat([]byte("0123456789"), 500)
	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _ = drain(f, fol)
	}()
	f.publishHeaders("text/html", -1)
	for off := 0; off < len(want); off += 250 {
		f.append(want[off : off+250])
	}
	f.close(false)
	if !f.held() {
		t.Fatal("close returned the buffer under an attached follower")
	}
	wg.Wait()
	if !bytes.Equal(got, want) {
		t.Fatalf("follower read %d bytes, want the %d-byte page", len(got), len(want))
	}
	f.detach(fol)
	if f.held() {
		t.Fatal("the last detach of a finished flight kept the buffer")
	}
	if f.attach() != nil {
		t.Fatal("a flight that gave its buffer back accepted a follower")
	}
}

// With no follower attached the leader's close is what returns the buffer;
// a follower that left while the flight was open returned nothing.
func TestFlightBufferReturnedByClose(t *testing.T) {
	f := newFlight("k", http.MethodGet, defaultBroadcastBytes)
	fol := f.attach()
	f.append([]byte("page"))
	f.detach(fol)
	if !f.held() {
		t.Fatal("a detach from an open flight returned the buffer: later followers need byte zero")
	}
	f.close(false)
	if f.held() {
		t.Fatal("close with nobody attached kept the buffer")
	}
}

// An aborted flight's uncommitted follower is told so and handed nothing;
// the buffer goes back when it leaves.
func TestFlightBufferAbortedWithFollower(t *testing.T) {
	f := newFlight("k", http.MethodGet, defaultBroadcastBytes)
	fol := f.attach()
	f.append([]byte("torn prefix"))
	f.close(true)
	if c := f.next(fol, make([]byte, 64), never); c.state != flightAborted {
		t.Fatalf("follower saw state %v, want aborted", c.state)
	}
	if !f.held() {
		t.Fatal("buffer returned under an attached follower")
	}
	f.detach(fol)
	if f.held() {
		t.Fatal("buffer not returned after the aborted flight's last detach")
	}
}

// A sealed flight trims its buffer behind its followers; one that keeps up
// still reads every byte, and the trimmed array goes back like any other.
func TestFlightBufferSealedAndTrimmed(t *testing.T) {
	const max = 1024
	f := newFlight("k", http.MethodGet, max)
	fol := f.attach()
	chunk := bytes.Repeat([]byte("y"), 512)
	var got []byte
	scratch := make([]byte, 512)
	for i := 0; i < 8; i++ { // 4 KiB through a 1 KiB cap
		chunk[0] = byte('a' + i)
		f.append(chunk)
		c := f.next(fol, scratch, never)
		got = append(got, scratch[:c.n]...)
	}
	f.mu.Lock()
	sealed, start := f.sealed, f.start
	f.mu.Unlock()
	if !sealed || start == 0 {
		t.Fatalf("sealed=%v start=%d: the flight never trimmed", sealed, start)
	}
	f.close(false)
	if len(got) != 8*512 || got[0] != 'a' || got[7*512] != 'h' {
		t.Fatalf("follower read %d bytes across the trim, want %d in order", len(got), 8*512)
	}
	f.detach(fol)
	if f.held() {
		t.Fatal("trimmed buffer not returned")
	}
}

// Two users' flights run back to back through one pooled array, the second
// page shorter than the first: the second flight's follower receives its
// own page and not a byte of the earlier one. The pool may hand back
// another array on any given round (and drops some on purpose under the
// race detector), so rounds repeat until the reuse has been seen.
func TestFlightBufferReuseLeaksNothingAcrossUsers(t *testing.T) {
	g := newFlightGroup(0)
	alice := bytes.Repeat([]byte("alice's account page "), 200)
	bob := []byte("bob's short page")
	run := func(user string, page []byte) *byte {
		t.Helper()
		r, _ := http.NewRequest(http.MethodGet, "/account", nil)
		r.Header.Set("X-User", user)
		key := flightKey(r)
		f, leader, _ := g.join(key, http.MethodGet)
		_, _, fol := g.join(key, http.MethodGet)
		if !leader || fol == nil {
			t.Fatalf("%s: join gave leader=%v follower=%v", user, leader, fol)
		}
		f.publishHeaders("text/html", -1)
		f.append(page)
		f.mu.Lock()
		array := &f.buf[:1][0]
		f.mu.Unlock()
		g.finish(f, false)
		got, c := drain(f, fol)
		f.detach(fol)
		if c.state != flightDone || !bytes.Equal(got, page) {
			t.Fatalf("%s's follower read %q, want exactly its own %d-byte page", user, got, len(page))
		}
		return array
	}
	reused := false
	for round := 0; round < 64 && !reused; round++ {
		first := run("alice", alice)
		reused = run("bob", bob) == first
	}
	if !reused {
		t.Fatal("the pool never handed the second flight the first one's array in 64 rounds")
	}
}
