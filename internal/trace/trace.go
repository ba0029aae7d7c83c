// Package trace is the proxy's request-scoped tracing and decision-
// provenance layer: one root span per request, child spans per pipeline
// stage and per fragment reference resolved, each annotated with typed
// decision events (which cache tier answered, why a tier declined, which
// coalesce flight a request rode, what invalidated a fill). The framing
// follows determination provenance — record the decisions that determined
// an outcome, not just the outcome — so a single slow or stale response
// can be reconstructed after the fact from its trace alone.
//
// Cost model. A nil *Tracer is the off state: every method on a nil
// Tracer or nil *Span is a no-op, so an untraced request pays zero
// allocations and a handful of predicted branches (benchmarked by
// BenchmarkDisabledTracer / TestDisabledTracerZeroAlloc). When tracing is
// enabled, every request records a full span tree (tail sampling:
// slowness is only known at the end), and admission into the bounded
// ring is what is sampled — a deterministic 1-in-SampleEvery rate, plus
// every request at or over the slow threshold, plus every request whose
// upstream proxy propagated a trace id (X-DPC-Trace), so a cluster
// request yields one stitched tree across rings.
package trace

import (
	"context"
	"log"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// ctxKey keys the span carried by a request context.
type ctxKey struct{}

// NewContext threads a span through a context.Context; the pipeline
// attaches the root span to each request's context so any depth of the
// call tree (assembler, async reporters) can annotate the same trace.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil (safe to use
// directly — every Span method is nil-safe).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Header is the request header that propagates a trace id across proxy
// hops (edge → interior proxy → …). A request arriving with a valid id
// adopts it and is always admitted to the ring, so the hop's trace can be
// stitched to the caller's by id.
const Header = "X-DPC-Trace"

// ResponseHeader is stamped on responses to rate- or remote-sampled
// requests so a single curl can be correlated with its /_dpc/trace entry.
const ResponseHeader = "X-DPC-Trace-Id"

// Bounds on one span's recorded detail. Past them, further children or
// events are counted but not retained, so a pathological page (thousands
// of fragment refs) cannot balloon a single trace.
const (
	maxChildren = 512
	maxEvents   = 128
)

// Kind classifies a decision event.
type Kind string

// The decision-event vocabulary (documented in docs/OBSERVABILITY.md).
const (
	// KindHit: a cache tier answered the request (Tier names it).
	KindHit Kind = "hit"
	// KindMiss: a tier was consulted and declined; Note says why when the
	// reason is anything beyond plain absence.
	KindMiss Kind = "miss"
	// KindBypass: a tier was skipped without lookup (Note: the cause,
	// e.g. "identity" for an identity-bearing request at the page tier).
	KindBypass Kind = "bypass"
	// KindRole: the coalesce stage assigned a flight role; Note is
	// "leader", "follower", or "head-follower" and N the flight id.
	KindRole Kind = "role"
	// KindStaleBypass: assembly found stale fragment refs and the request
	// was recovered with a bypass fetch; Note carries the refs.
	KindStaleBypass Kind = "stale-bypass"
	// KindInvalidated: a whole-response tier entry was found void — this
	// request's fill, or an entry its read found (dropped, not served);
	// Note is the cause ("fragment-floor", "epoch-flush:<cause>").
	KindInvalidated Kind = "invalidated"
	// KindFill: a cache tier stored this response (Tier names it, N the
	// body bytes).
	KindFill Kind = "fill"
	// KindShed: the admission stage refused to queue this request on the
	// origin (fast 503 + Retry-After); Note is the pressure signal that
	// tripped ("inflight", "queue", "per-tenant", "negcache").
	KindShed Kind = "shed"
	// KindStaleServe: the admission stage answered from an expired cache
	// entry instead of queueing on the origin; Tier names the tier and N
	// is the staleness in milliseconds.
	KindStaleServe Kind = "stale-serve"
	// KindTier: resolving a fragment ref crossed the store's RAM/disk
	// boundary (Tier "disk"). Note is "promote" (the ref was served from
	// disk and copied into RAM), "serve-in-place" (served from disk and
	// left there: a first touch with RAM full, or an entry RAM cannot
	// hold), "demote-write" or "demote-clean" (RAM victims a promotion
	// displaced: written to disk, or evicted for free because disk still
	// held their copy); N counts them.
	KindTier Kind = "tier"
	// KindInfo: an annotation that is provenance but not a decision
	// (origin response shape, capture overflow, …).
	KindInfo Kind = "info"
	// KindError: the request failed; Note is the error.
	KindError Kind = "error"
)

// Event is one typed decision annotation on a span.
type Event struct {
	at   time.Duration // offset from the trace start
	kind Kind
	tier string
	note string
	n    int64
}

// Span is one timed node of a request's trace tree. The zero value is not
// usable; spans come from Tracer.StartRequest and Span.Child. All methods
// are safe on a nil receiver (the disabled path) and safe for concurrent
// use (an async goroutine may finish a child while the root is captured).
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Duration // offset from the trace start
	dur      time.Duration // -1 until finished
	events   []Event
	children []*Span
	truncEv  int // events dropped past maxEvents
	truncCh  int // children dropped past maxChildren
	bytes    int64
	ttfb     time.Duration // -1 until first byte

	// Root-only fields.
	root    *rootState
	isRoot  bool
	tracer  *Tracer
	id      string
	remote  bool // id adopted from an upstream proxy's X-DPC-Trace
	sampled bool // rate- or remote-sampled: admitted regardless of speed
}

// rootState is shared by every span of one trace.
type rootState struct {
	began time.Time
}

// now returns the current offset from the trace start.
func (s *Span) now() time.Duration { return time.Since(s.root.began) }

// Child starts a sub-span. Nil-safe: a nil receiver returns nil, so the
// whole tree of calls below a disabled tracer stays allocation-free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, root: s.root, dur: -1, ttfb: -1, start: s.now()}
	s.mu.Lock()
	if len(s.children) < maxChildren {
		s.children = append(s.children, c)
	} else {
		// Over the per-span bound: count the loss and record nothing more
		// below this span (the nil child absorbs the caller's calls).
		s.truncCh++
		c = nil
	}
	s.mu.Unlock()
	return c
}

// Event records one typed decision annotation.
func (s *Span) Event(kind Kind, tier, note string, n int64) {
	if s == nil {
		return
	}
	at := s.now()
	s.mu.Lock()
	if len(s.events) < maxEvents {
		s.events = append(s.events, Event{at: at, kind: kind, tier: tier, note: note, n: n})
	} else {
		s.truncEv++
	}
	s.mu.Unlock()
}

// AddBytes accumulates response bytes attributed to this span.
func (s *Span) AddBytes(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.bytes += n
	s.mu.Unlock()
}

// MarkFirstByte records the time to first byte once; later calls are
// no-ops.
func (s *Span) MarkFirstByte() {
	if s == nil {
		return
	}
	at := s.now()
	s.mu.Lock()
	if s.ttfb < 0 {
		s.ttfb = at
	}
	s.mu.Unlock()
}

// Finish closes the span. Finishing the root span files the trace with
// its tracer (ring admission, metrics, slow log); finishing twice is a
// no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	at := s.now()
	s.mu.Lock()
	if s.dur >= 0 {
		s.mu.Unlock()
		return
	}
	s.dur = at - s.start
	s.mu.Unlock()
	if s.isRoot {
		s.tracer.finish(s)
	}
}

// TraceID returns the trace's id ("" on a nil or non-root span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Sampled reports whether this trace was rate- or remote-sampled — known
// at request start, so callers can stamp response headers and propagate
// the id downstream. (A slow-only capture is decided at Finish and is not
// reported here.)
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery admits 1 in N finished traces to the ring by rate
	// (deterministic: requests 1, N+1, 2N+1, … are sampled). 0 selects
	// 64; 1 samples everything.
	SampleEvery int
	// SlowThreshold admits every trace at least this slow regardless of
	// the rate, and emits the one-line slow-request log for it. 0 selects
	// 250ms; negative disables slow capture.
	SlowThreshold time.Duration
	// RingSize bounds retained traces (0 selects 256).
	RingSize int
	// Log receives the one-line structured slow-request summaries; nil
	// selects the standard logger.
	Log func(format string, args ...any)
	// OnSampled, OnDropped, and OnSlow are metric hooks: a trace admitted
	// to the ring, a finished trace not admitted, a trace at or over the
	// slow threshold. Optional.
	OnSampled, OnDropped, OnSlow func()
}

// Tracer samples request traces into a bounded ring. A nil *Tracer is a
// valid disabled tracer.
type Tracer struct {
	every int
	slow  time.Duration
	logf  func(format string, args ...any)

	onSampled, onDropped, onSlow func()

	mu   sync.Mutex
	seq  uint64
	ring []TraceJSON // capacity-bounded, oldest overwritten
	next int
	n    int
}

// New returns a Tracer with the given config.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.Log == nil {
		cfg.Log = log.Printf
	}
	return &Tracer{
		every:     cfg.SampleEvery,
		slow:      cfg.SlowThreshold,
		logf:      cfg.Log,
		onSampled: cfg.OnSampled,
		onDropped: cfg.OnDropped,
		onSlow:    cfg.OnSlow,
		ring:      make([]TraceJSON, cfg.RingSize),
	}
}

// Enabled reports whether tracing is on. Nil-safe; the proxy's hot path
// guards every per-request trace allocation behind it.
func (t *Tracer) Enabled() bool { return t != nil }

// StartRequest opens a root span. remote is the incoming X-DPC-Trace
// header value: a valid id is adopted (stitching this hop's trace to the
// upstream proxy's) and forces ring admission; anything else starts a
// fresh trace subject to rate sampling.
func (t *Tracer) StartRequest(name, remote string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		name:   name,
		root:   &rootState{began: time.Now()},
		dur:    -1,
		ttfb:   -1,
		isRoot: true,
		tracer: t,
	}
	if validID(remote) {
		s.id, s.remote, s.sampled = remote, true, true
		return s
	}
	s.id = newID()
	t.mu.Lock()
	t.seq++
	s.sampled = (t.seq-1)%uint64(t.every) == 0
	t.mu.Unlock()
	return s
}

// finish files a completed root span: admit to the ring when rate- or
// remote-sampled or slow, count the outcome, and log slow requests.
func (t *Tracer) finish(s *Span) {
	slow := t.slow >= 0 && s.dur >= t.slow
	if !s.sampled && !slow {
		if t.onDropped != nil {
			t.onDropped()
		}
		return
	}
	tj := snapshot(s, slow)
	t.mu.Lock()
	t.ring[t.next] = tj
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	if t.onSampled != nil {
		t.onSampled()
	}
	if slow {
		if t.onSlow != nil {
			t.onSlow()
		}
		t.logf("dpc.trace slow id=%s name=%q dur_ms=%d ttfb_ms=%d bytes=%d spans=%d remote=%v",
			tj.ID, tj.Root.Name, tj.DurUS/1000, tj.Root.TTFBUS/1000, tj.Root.Bytes, spanCount(tj.Root), tj.Remote)
	}
}

// Traces returns the retained traces newest-first, filtered to those at
// least minDur long (0 returns everything).
func (t *Tracer) Traces(minDur time.Duration) []TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceJSON, 0, t.n)
	for i := 0; i < t.n; i++ {
		// Walk backward from the most recently written slot.
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		if tj := t.ring[idx]; tj.DurUS >= minDur.Microseconds() {
			out = append(out, tj)
		}
	}
	return out
}

// Len reports retained traces (tests).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// --- captured (JSON) form ---

// TraceJSON is one captured trace as served by /_dpc/trace.
type TraceJSON struct {
	// ID is the trace id, shared across proxy hops when propagated.
	ID string `json:"id"`
	// Remote marks a trace whose id was adopted from an upstream proxy's
	// X-DPC-Trace header (this tree stitches under the caller's).
	Remote bool `json:"remote,omitempty"`
	// Slow marks a trace admitted by the slow threshold.
	Slow bool `json:"slow,omitempty"`
	// Start is the request's wall-clock start.
	Start time.Time `json:"start"`
	// DurUS is the end-to-end duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Root is the request's root span.
	Root SpanJSON `json:"root"`
}

// SpanJSON is one captured span.
type SpanJSON struct {
	Name string `json:"name"`
	// StartUS is the offset from the trace start, microseconds.
	StartUS int64 `json:"start_us"`
	// DurUS is the span duration in microseconds; -1 when the span had
	// not finished at capture time.
	DurUS int64 `json:"dur_us"`
	// Bytes are the response bytes attributed to the span.
	Bytes int64 `json:"bytes,omitempty"`
	// TTFBUS is the time to the span's first response byte, microseconds
	// (omitted when no byte was attributed).
	TTFBUS int64 `json:"ttfb_us,omitempty"`
	// Truncated counts events plus children dropped past the per-span
	// bounds.
	Truncated int         `json:"truncated,omitempty"`
	Events    []EventJSON `json:"events,omitempty"`
	Children  []SpanJSON  `json:"children,omitempty"`
}

// EventJSON is one captured decision event.
type EventJSON struct {
	AtUS int64  `json:"at_us"`
	Kind Kind   `json:"kind"`
	Tier string `json:"tier,omitempty"`
	Note string `json:"note,omitempty"`
	N    int64  `json:"n,omitempty"`
}

// snapshot deep-copies a span tree into its immutable captured form. Each
// span is locked individually, so concurrently finishing children are
// captured consistently (an unfinished child appears with DurUS -1).
func snapshot(s *Span, slow bool) TraceJSON {
	return TraceJSON{
		ID:     s.id,
		Remote: s.remote,
		Slow:   slow,
		Start:  s.root.began,
		DurUS:  s.dur.Microseconds(),
		Root:   snapshotSpan(s),
	}
}

func snapshotSpan(s *Span) SpanJSON {
	s.mu.Lock()
	sj := SpanJSON{
		Name:      s.name,
		StartUS:   s.start.Microseconds(),
		DurUS:     s.dur.Microseconds(),
		Bytes:     s.bytes,
		Truncated: s.truncEv + s.truncCh,
	}
	if s.ttfb >= 0 {
		sj.TTFBUS = s.ttfb.Microseconds()
	}
	if len(s.events) > 0 {
		sj.Events = make([]EventJSON, len(s.events))
		for i, e := range s.events {
			sj.Events[i] = EventJSON{AtUS: e.at.Microseconds(), Kind: e.kind, Tier: e.tier, Note: e.note, N: e.n}
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	if len(children) > 0 {
		sj.Children = make([]SpanJSON, len(children))
		for i, c := range children {
			sj.Children[i] = snapshotSpan(c)
		}
	}
	return sj
}

// spanCount counts the spans of a captured tree.
func spanCount(s SpanJSON) int {
	n := 1
	for _, c := range s.Children {
		n += spanCount(c)
	}
	return n
}

// --- trace ids ---

const idHex = "0123456789abcdef"

// newID returns a 16-hex-digit random trace id.
func newID() string {
	v := rand.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = idHex[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// validID reports whether v is a well-formed propagated trace id.
func validID(v string) bool {
	if len(v) != 16 {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ParseMinMS parses a "?min_ms=" query value into a duration filter for
// Traces; empty or invalid values mean no filter.
func ParseMinMS(v string) time.Duration {
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}
