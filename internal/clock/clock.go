// Package clock abstracts time so that TTL-driven cache logic and every
// deadline that decides an outcome are testable.
//
// Production code uses Real; tests use a Fake that only moves when told to,
// and fires the timers it holds as it moves.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock supplies the current time and timers that run on it.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has passed on this clock. On Real, f runs
	// in its own goroutine; on Fake, in the goroutine that moves the clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call.
type Timer interface {
	// Stop prevents the call if it has not run yet, reporting whether it
	// did so.
	Stop() bool
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now returns the current system time.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc is time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a manually advanced Clock. The zero value starts at the Unix
// epoch; use NewFake or Set to pick a different origin. Fake is safe for
// concurrent use.
//
// A timer fires when Advance or Set moves the clock to or past its
// deadline: due timers fire one at a time, in (deadline, creation) order,
// each with the clock reading its deadline, in the goroutine that moved
// the clock. A timer created while others fire is fired in the same move
// if it is due by its end. A timer due at creation (d <= 0) waits for the
// next move, even a zero one.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers []*fakeTimer // sorted by (deadline, seq)
}

type fakeTimer struct {
	f        *Fake
	deadline time.Time
	seq      uint64
	fn       func()
}

// NewFake returns a Fake clock set to start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// AfterFunc schedules fn for when the clock reaches now+d.
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	t := &fakeTimer{f: f, deadline: f.now.Add(d), seq: f.seq, fn: fn}
	i := sort.Search(len(f.timers), func(i int) bool { return t.before(f.timers[i]) })
	f.timers = append(f.timers, nil)
	copy(f.timers[i+1:], f.timers[i:])
	f.timers[i] = t
	return t
}

func (t *fakeTimer) before(u *fakeTimer) bool {
	if !t.deadline.Equal(u.deadline) {
		return t.deadline.Before(u.deadline)
	}
	return t.seq < u.seq
}

// Stop removes the timer if it is still pending.
func (t *fakeTimer) Stop() bool {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, u := range f.timers {
		if u == t {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Pending reports how many timers have not fired or been stopped.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

// Advance moves the fake clock forward by d, firing the timers it passes.
func (f *Fake) Advance(d time.Duration) {
	f.move(func(now time.Time) time.Time { return now.Add(d) })
}

// Set jumps the fake clock to t, firing the timers due by then. Set
// backwards fires nothing.
func (f *Fake) Set(t time.Time) {
	f.move(func(time.Time) time.Time { return t })
}

// move reads its target off the clock and fires the due timers one at a
// time without the lock, so a callback may read the clock and start
// timers, then settles on the target.
func (f *Fake) move(to func(now time.Time) time.Time) {
	f.mu.Lock()
	target := to(f.now)
	for !target.Before(f.now) && len(f.timers) > 0 && !f.timers[0].deadline.After(target) {
		t := f.timers[0]
		f.timers = f.timers[1:]
		if t.deadline.After(f.now) {
			f.now = t.deadline
		}
		f.mu.Unlock()
		t.fn()
		f.mu.Lock()
	}
	f.now = target
	f.mu.Unlock()
}
