package origin

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dpcache/internal/clock"
)

// Fault injection: a deterministic misbehavior layer in front of the
// origin's page and static handlers, so tests and experiments can
// provoke overload, errors, hangs, and torn responses on demand. The
// admission-control work in internal/dpc is only provable against an
// origin that can be made to saturate and fail; a healthy in-process
// origin never exercises those paths. Admin endpoints (/healthz, /stats)
// are never fault-injected — a saturation experiment still needs to
// observe the origin.

// FaultConfig parameterizes a FaultInjector. The zero value injects
// nothing.
type FaultConfig struct {
	// Latency is added to every page/static request before it is served;
	// Jitter adds a uniform random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ErrorRate is the probability in [0, 1] a request is answered 500
	// before the handler runs.
	ErrorRate float64
	// HangRate is the probability a request sleeps Hang before being
	// served — the slow-backend tail, distinct from the base Latency.
	HangRate float64
	// Hang is the extra stall applied to hung requests (0 selects 5s).
	Hang time.Duration
	// AbortRate is the probability a page/static response is torn
	// mid-body: roughly half the body is written and flushed, then the
	// connection is aborted.
	AbortRate float64
	// MaxConcurrent bounds requests inside the fault layer (0 =
	// unbounded): excess arrivals queue, first come first served,
	// modeling a fixed origin worker pool — offered load past
	// MaxConcurrent/Latency collapses into queueing delay, which is what
	// a saturation experiment sweeps.
	MaxConcurrent int
	// Seed makes the random draws reproducible (0 selects 1).
	Seed int64
}

// FaultInjector applies a FaultConfig; safe for concurrent use. Its
// sleeps run on the clock of the Monitor its Server attaches it to (the
// real clock when there is none), so a test on a fake clock drives them.
type FaultInjector struct {
	cfg  FaultConfig
	clk  clock.Clock
	reg  *faultMetrics
	hang time.Duration

	mu   sync.Mutex
	rng  *rand.Rand
	busy int // workers serving a request
	// queue holds the arrivals waiting for a worker, oldest first. Its
	// order is fixed when a request is counted as waiting
	// (origin.fault_waiting), not when its goroutine next runs, so a test
	// that moves a fake clock once every request is parked replays it.
	queue []chan struct{}
}

// faultMetrics is the injector's metric set, bound when the Server
// attaches the injector (the Server owns the registry).
type faultMetrics struct {
	errors, hangs, aborts, queued interface{ Inc() }
	waiting                       interface{ Set(int64) } // len(queue), set under mu
}

// NewFaultInjector returns an injector for cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	hang := cfg.Hang
	if hang <= 0 {
		hang = 5 * time.Second
	}
	return &FaultInjector{
		cfg:  cfg,
		clk:  clock.Real{},
		rng:  rand.New(rand.NewSource(seed)),
		hang: hang,
	}
}

// roll draws a uniform float in [0, 1) under the injector's lock, so
// concurrent requests share one deterministic sequence.
func (f *FaultInjector) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

func (f *FaultInjector) jitter() time.Duration {
	if f.cfg.Jitter <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Duration(f.rng.Int63n(int64(f.cfg.Jitter)))
}

// wrap applies the configured faults around next. It returns true when
// the request was fully handled (error injected or slot wait cancelled)
// and next must not run.
func (f *FaultInjector) wrap(w http.ResponseWriter, r *http.Request, next func(http.ResponseWriter, *http.Request)) {
	if f.cfg.MaxConcurrent > 0 {
		if !f.acquire(r.Context()) {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		defer f.release()
	}
	if d := f.cfg.Latency + f.jitter(); d > 0 {
		f.sleep(r, d)
	}
	if f.cfg.HangRate > 0 && f.roll() < f.cfg.HangRate {
		if f.reg != nil {
			f.reg.hangs.Inc()
		}
		f.sleep(r, f.hang)
	}
	if f.cfg.ErrorRate > 0 && f.roll() < f.cfg.ErrorRate {
		if f.reg != nil {
			f.reg.errors.Inc()
		}
		http.Error(w, "origin: injected failure", http.StatusInternalServerError)
		return
	}
	if f.cfg.AbortRate > 0 && f.roll() < f.cfg.AbortRate {
		if f.reg != nil {
			f.reg.aborts.Inc()
		}
		next(&abortWriter{ResponseWriter: w}, r)
		return
	}
	next(w, r)
}

// acquire takes a worker. When all are busy the request queues (the whole
// point — queueing delay is the saturation signal), first come first
// served, but a caller that gives up leaves the queue, so a shed or
// timed-out request does not hold a place. It reports whether a worker was
// taken.
func (f *FaultInjector) acquire(ctx context.Context) bool {
	f.mu.Lock()
	if f.busy < f.cfg.MaxConcurrent {
		f.busy++
		f.mu.Unlock()
		return true
	}
	ready := make(chan struct{})
	f.queue = append(f.queue, ready)
	f.setWaitingLocked()
	f.mu.Unlock()
	if f.reg != nil {
		f.reg.queued.Inc()
	}
	select {
	case <-ready:
		return true
	case <-ctx.Done():
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, q := range f.queue {
		if q == ready {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			f.setWaitingLocked()
			return false
		}
	}
	f.releaseLocked() // handed a worker as it gave up: pass it on
	return false
}

// release hands the caller's worker to the oldest queued request, or frees
// it.
func (f *FaultInjector) release() {
	f.mu.Lock()
	f.releaseLocked()
	f.mu.Unlock()
}

func (f *FaultInjector) releaseLocked() {
	if len(f.queue) == 0 {
		f.busy--
		return
	}
	close(f.queue[0])
	f.queue = f.queue[1:]
	f.setWaitingLocked()
}

func (f *FaultInjector) setWaitingLocked() {
	if f.reg != nil {
		f.reg.waiting.Set(int64(len(f.queue)))
	}
}

// sleep waits d on the injector's clock, or until the client gives up.
func (f *FaultInjector) sleep(r *http.Request, d time.Duration) {
	done := make(chan struct{})
	t := f.clk.AfterFunc(d, func() { close(done) })
	defer t.Stop()
	select {
	case <-done:
	case <-r.Context().Done():
	}
}

// abortWriter tears a response mid-body: roughly half of the first body
// write goes out (flushed, so the bytes actually reach the wire), then
// the connection is aborted via http.ErrAbortHandler. Downstream, the
// proxy sees an unexpected EOF partway through the declared length.
type abortWriter struct {
	http.ResponseWriter
	wrote bool
}

func (a *abortWriter) Write(b []byte) (int, error) {
	if a.wrote {
		panic(http.ErrAbortHandler)
	}
	a.wrote = true
	n := len(b) / 2
	if n > 0 {
		_, _ = a.ResponseWriter.Write(b[:n])
		if fl, ok := a.ResponseWriter.(http.Flusher); ok {
			fl.Flush()
		}
	}
	panic(http.ErrAbortHandler)
}
