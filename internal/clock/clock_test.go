package clock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := Real{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestFakeStartsAtGivenTime(t *testing.T) {
	start := time.Date(2002, 6, 4, 0, 0, 0, 0, time.UTC) // SIGMOD 2002 opening day
	f := NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", f.Now(), start)
	}
}

func TestFakeAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	f.Advance(90 * time.Second)
	if got := f.Now(); !got.Equal(time.Unix(90, 0)) {
		t.Fatalf("after Advance, Now() = %v, want %v", got, time.Unix(90, 0))
	}
}

func TestFakeSet(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	target := time.Unix(1e6, 0)
	f.Set(target)
	if !f.Now().Equal(target) {
		t.Fatalf("after Set, Now() = %v, want %v", f.Now(), target)
	}
}

func TestFakeZeroValueUsable(t *testing.T) {
	var f Fake
	f.Advance(time.Hour)
	if f.Now().IsZero() {
		t.Fatal("zero-value Fake did not advance")
	}
}

func TestFakeConcurrentAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Advance(time.Second)
			_ = f.Now()
		}()
	}
	wg.Wait()
	if got := f.Now(); !got.Equal(time.Unix(50, 0)) {
		t.Fatalf("after 50 concurrent 1s advances, Now() = %v, want %v", got, time.Unix(50, 0))
	}
}

// record returns an AfterFunc callback that appends name and the clock's
// reading to *got.
func record(f *Fake, got *[]string, name string) func() {
	return func() { *got = append(*got, name+"@"+f.Now().Format("05.000")) }
}

func TestFakeTimersFireInDeadlineOrder(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	var got []string
	f.AfterFunc(3*time.Second, record(f, &got, "c"))
	f.AfterFunc(time.Second, record(f, &got, "a"))
	f.AfterFunc(2*time.Second, record(f, &got, "b"))
	f.Advance(5 * time.Second)
	if want := "[a@01.000 b@02.000 c@03.000]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s: deadline order, each reading its own deadline", got, want)
	}
	if !f.Now().Equal(time.Unix(5, 0)) {
		t.Fatalf("after the move Now() = %v, want the target", f.Now())
	}
}

func TestFakeTimerTiesFireInCreationOrder(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	var got []string
	for _, name := range []string{"x", "y", "z"} {
		f.AfterFunc(time.Second, record(f, &got, name))
	}
	f.Advance(time.Second)
	if want := "[x@01.000 y@01.000 z@01.000]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestFakeTimerStopBeforeDeadline(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	var got []string
	stopped := f.AfterFunc(time.Second, record(f, &got, "stopped"))
	f.AfterFunc(time.Second, record(f, &got, "kept"))
	if f.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", f.Pending())
	}
	if !stopped.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported true")
	}
	f.Advance(time.Minute)
	if want := "[kept@01.000]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
	if f.Pending() != 0 {
		t.Fatalf("Pending() = %d after firing, want 0", f.Pending())
	}
}

func TestFakeSetBackwardsFiresNothing(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	var got []string
	f.AfterFunc(time.Second, record(f, &got, "later"))
	f.AfterFunc(0, record(f, &got, "due"))
	f.Set(time.Unix(50, 0))
	if len(got) != 0 || f.Pending() != 2 {
		t.Fatalf("a backwards Set fired %v (pending %d), want nothing fired", got, f.Pending())
	}
	f.Set(time.Unix(101, 0))
	if want := "[due@40.000 later@41.000]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestFakeAdvancePastSeveralDeadlinesFiresEachOnce(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	counts := make([]int, 4)
	for i := range counts {
		f.AfterFunc(time.Duration(i+1)*time.Second, func() { counts[i]++ })
	}
	// A timer started by a firing one fires in the same move when due.
	var chained int
	f.AfterFunc(time.Second, func() { f.AfterFunc(time.Second, func() { chained++ }) })
	f.Advance(10 * time.Second)
	f.Advance(10 * time.Second)
	if fmt.Sprint(counts) != "[1 1 1 1]" || chained != 1 {
		t.Fatalf("fire counts %v, chained %d; want each timer exactly once", counts, chained)
	}
}

func TestRealAfterFunc(t *testing.T) {
	done := make(chan struct{})
	Real{}.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("real timer never fired")
	}
}
