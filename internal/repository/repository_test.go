package repository

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPutGetRoundtrip(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "books", Row: "fiction"}
	r.Put(k, map[string]string{"title": "Dune"})
	row, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if row.Fields["title"] != "Dune" {
		t.Fatalf("title = %q", row.Fields["title"])
	}
}

func TestGetMissingRow(t *testing.T) {
	r := New(LatencyModel{})
	_, err := r.Get(Key{Table: "t", Row: "nope"})
	var nf ErrNotFound
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if nf.Key.Row != "nope" {
		t.Fatalf("ErrNotFound.Key = %v", nf.Key)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	r.Put(k, map[string]string{"a": "1"})
	row, _ := r.Get(k)
	row.Fields["a"] = "tampered"
	row2, _ := r.Get(k)
	if row2.Fields["a"] != "1" {
		t.Fatal("Get leaked internal map")
	}
}

func TestPutCopiesCallerMap(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	m := map[string]string{"a": "1"}
	r.Put(k, m)
	m["a"] = "tampered"
	if r.Field(k, "a", "") != "1" {
		t.Fatal("Put aliased caller map")
	}
}

func TestVersionsMonotonic(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	v1 := r.Put(k, map[string]string{"a": "1"})
	v2 := r.Put(k, map[string]string{"a": "2"})
	if v2 <= v1 {
		t.Fatalf("versions not monotonic: %d then %d", v1, v2)
	}
	if r.Version(k) != v2 {
		t.Fatalf("Version = %d, want %d", r.Version(k), v2)
	}
}

func TestVersionMissingRowIsZero(t *testing.T) {
	r := New(LatencyModel{})
	if v := r.Version(Key{Table: "x", Row: "y"}); v != 0 {
		t.Fatalf("Version of missing row = %d, want 0", v)
	}
}

func TestUpdateBusFiresOnPutAndDelete(t *testing.T) {
	r := New(LatencyModel{})
	var events []UpdateEvent
	var mu sync.Mutex
	r.Subscribe(func(ev UpdateEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	k := Key{Table: "t", Row: "r"}
	r.Put(k, map[string]string{"a": "1"})
	r.Delete(k)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Deleted || !events[1].Deleted {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Key != k {
		t.Fatalf("event key = %v", events[0].Key)
	}
}

func TestDeleteMissingStillPublishes(t *testing.T) {
	r := New(LatencyModel{})
	fired := false
	r.Subscribe(func(UpdateEvent) { fired = true })
	r.Delete(Key{Table: "none", Row: "none"})
	if !fired {
		t.Fatal("delete of missing row did not publish (must be conservative)")
	}
}

func TestFieldDefaulting(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	if got := r.Field(k, "a", "def"); got != "def" {
		t.Fatalf("missing row Field = %q", got)
	}
	r.Put(k, map[string]string{"a": "1"})
	if got := r.Field(k, "b", "def"); got != "def" {
		t.Fatalf("missing column Field = %q", got)
	}
	if got := r.Field(k, "a", "def"); got != "1" {
		t.Fatalf("present Field = %q", got)
	}
}

func TestScanAndLen(t *testing.T) {
	r := New(LatencyModel{})
	for _, row := range []string{"a", "b", "c"} {
		r.Put(Key{Table: "t", Row: row}, nil)
	}
	if r.Len("t") != 3 {
		t.Fatalf("Len = %d", r.Len("t"))
	}
	seen := map[string]bool{}
	for _, k := range r.Scan("t") {
		seen[k] = true
	}
	if len(seen) != 3 || !seen["a"] || !seen["b"] || !seen["c"] {
		t.Fatalf("Scan = %v", seen)
	}
}

func TestQueryLatencyCharged(t *testing.T) {
	r := New(LatencyModel{QueryDelay: 20 * time.Millisecond})
	k := Key{Table: "t", Row: "r"}
	r.Put(k, map[string]string{"a": "1"})
	start := time.Now()
	if _, err := r.Get(k); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("Get returned in %v, want >= ~20ms latency", elapsed)
	}
}

func TestCounters(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	r.Put(k, nil)
	_, _ = r.Get(k)
	_, _ = r.Get(k)
	if r.QueryCount() != 2 || r.UpdateCount() != 1 {
		t.Fatalf("counts = %d queries, %d updates", r.QueryCount(), r.UpdateCount())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	r := New(LatencyModel{})
	k := Key{Table: "t", Row: "r"}
	r.Put(k, map[string]string{"n": "0"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Put(k, map[string]string{"n": "x"})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_, _ = r.Get(k)
				_ = r.Version(k)
			}
		}()
	}
	wg.Wait()
	if r.UpdateCount() != 8*200+1 { // +1 for the seed Put
		t.Fatalf("updates = %d, want %d", r.UpdateCount(), 8*200+1)
	}
}

func TestKeyString(t *testing.T) {
	if (Key{Table: "a", Row: "b"}).String() != "a/b" {
		t.Fatal("Key.String format changed")
	}
}
