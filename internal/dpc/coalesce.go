package dpc

import (
	"net/http"
	"slices"
	"strings"
	"sync"
)

// Single-flight coalescing of identical in-flight origin fetches: when N
// concurrent requests carry the same coalesce key, one leader performs the
// origin fetch and assembly while the other N-1 attach to the flight as
// followers. The paper puts the DPC on the critical path of every dynamic
// request, so a popular page going cold must not fan out as a thundering
// herd on the origin link.
//
// The flight is a chunked broadcast buffer (Varnish-style streaming
// object): the leader appends decoded output chunks as assembly proceeds,
// and each follower carries its own cursor into the buffer — it replays
// whatever is already buffered, then streams live until the leader closes
// the flight. Follower time-to-first-byte is therefore O(chunk), not
// O(page), and a follower that joins mid-assembly still sees the page from
// byte zero. When the leader aborts (origin error, torn stream), followers
// that have not committed any byte fall back to their own fetch instead of
// serving a torn page; committed followers abort their connections.
//
// The buffer retains the full page while the flight is joinable. Once it
// exceeds maxBytes the flight is sealed — late arrivals degrade to their
// own fetch — the retained prefix is trimmed up to the slowest attached
// cursor, and followers lagging more than maxBytes behind the leader are
// shed (overrun): their bytes are dropped so the retained window never
// exceeds the cap, and they recover via their own fetch (uncommitted) or
// an aborted connection (committed). A stalled client therefore cannot pin
// an unbounded page in memory.

// defaultBroadcastBytes bounds the broadcast buffer when
// Config.CoalesceBufferBytes is zero.
const defaultBroadcastBytes = 4 << 20

// flightState is the lifecycle of a broadcast flight.
type flightState int

const (
	// flightOpen: the leader is still producing chunks.
	flightOpen flightState = iota
	// flightDone: clean EOF; the buffer holds the complete page tail.
	flightDone
	// flightAborted: the leader failed; the buffered prefix must not be
	// served as a page.
	flightAborted
)

// follower is one attached request's cursor into the broadcast stream.
type follower struct {
	pos int64 // absolute offset of the next unread byte
	// overrun reports the follower fell more than the buffer cap behind
	// the leader: its unread bytes were dropped to bound the buffer, so
	// it can no longer be served from this flight.
	overrun bool
}

// flightChunk is one follower read: a chunk copied out of the buffer plus
// the flight state observed atomically with it.
type flightChunk struct {
	n       int // bytes copied into the caller's scratch buffer
	state   flightState
	total   int64  // absolute bytes appended so far
	ctype   string // leader's Content-Type (set before the first chunk)
	clen    int64  // leader's declared Content-Length, -1 when unknown
	overrun bool   // this follower's unread bytes were dropped (see follower)
}

// length is the page's length once the flight is done: the bytes appended,
// or a bodyless response's (HEAD) declared length.
func (c flightChunk) length() int64 {
	if c.total == 0 && c.clen > 0 {
		return c.clen
	}
	return c.total
}

// flight is one in-flight origin fetch that concurrent identical requests
// attach to.
type flight struct {
	key string
	// id identifies the flight in trace role events, so a leader and its
	// followers can be grouped across captured traces.
	id uint64
	// method is the leader's request method. HEAD followers may ride a
	// GET flight (they need only its committed headers); a GET must
	// never ride a HEAD flight, whose response has no body.
	method string
	max    int

	mu   sync.Mutex
	cond sync.Cond
	// buf holds bytes [start, start+len(buf)) of the stream. Its array
	// comes from pageBufPool on the first retained append (bufRef is the
	// pool's handle) and goes back once the flight is terminal and no
	// follower is attached (releaseBufLocked). Followers copy out of it
	// under mu and only from [start, total), bytes this flight appended, so
	// a recycled array never shows one flight's reader another's page.
	buf       []byte
	bufRef    *[]byte
	start     int64 // absolute offset of buf[0]
	total     int64 // absolute bytes appended so far
	ctype     string
	clen      int64 // declared Content-Length for bodyless responses (-1 unknown)
	state     flightState
	sealed    bool // over the byte cap, or buffer released: no new followers may attach
	followers map[*follower]struct{}
}

func newFlight(key, method string, max int) *flight {
	f := &flight{key: key, method: method, max: max, clen: -1, followers: make(map[*follower]struct{})}
	f.cond.L = &f.mu
	return f
}

// attach registers a new follower cursor at byte zero, or returns nil when
// the flight is sealed (the replay window is gone; the caller must fetch
// independently).
func (f *flight) attach() *follower {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return nil
	}
	fol := &follower{pos: f.start} // start is 0 until the flight seals
	f.followers[fol] = struct{}{}
	return fol
}

// detach removes a follower cursor. Departed followers must not pin the
// buffer prefix (sealed flights trim to the slowest live cursor) nor
// inflate the waiter count.
func (f *flight) detach(fol *follower) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.followers, fol)
	f.trimLocked()
	f.releaseBufLocked()
}

// releaseBufLocked returns the broadcast buffer to the pool once nobody can
// read it again: the flight is terminal, so the leader appends no more and
// (the group having dropped the flight before closing it) nobody new
// attaches, and the last follower has detached. close and detach both call
// it; whichever comes second finds the condition true. Sealing the flight
// turns an attach that should not happen into a refusal instead of a
// follower reading an empty page.
func (f *flight) releaseBufLocked() {
	if f.state == flightOpen || len(f.followers) > 0 || f.bufRef == nil {
		return
	}
	putPageBuf(f.bufRef, f.buf)
	f.buf, f.bufRef = nil, nil
	f.start, f.sealed = f.total, true
}

// publishHeaders records the response metadata followers replicate. Must be
// called before the first append. clen is the declared Content-Length for
// responses whose body does not carry it (HEAD), -1 when unknown.
func (f *flight) publishHeaders(ctype string, clen int64) {
	f.mu.Lock()
	f.ctype, f.clen = ctype, clen
	f.mu.Unlock()
}

// append broadcasts one decoded output chunk to the attached followers.
func (f *flight) append(p []byte) {
	if len(p) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state != flightOpen {
		return
	}
	if !f.sealed || len(f.followers) > 0 {
		if f.bufRef == nil {
			f.bufRef = pageBufPool.Get().(*[]byte)
			f.buf = (*f.bufRef)[:0]
		}
		f.buf = append(f.buf, p...)
	} else {
		// Sealed with nobody attached: no present or future reader exists,
		// so the bytes need not be retained at all.
		f.start += int64(len(p))
	}
	f.total += int64(len(p))
	if int64(len(f.buf)) > int64(f.max) {
		f.sealed = true
		// Shed followers too far behind to serve within the cap; their
		// cursors no longer pin the prefix, so the trim below restores
		// the bound no matter how slowly their clients read.
		floor := f.total - int64(f.max)
		for fol := range f.followers {
			if fol.pos < floor {
				fol.overrun = true
			}
		}
		f.trimLocked()
	}
	f.cond.Broadcast()
}

// close finishes the flight: clean EOF when aborted is false, otherwise the
// abort flag that sends followers to their own fetch.
func (f *flight) close(aborted bool) {
	f.mu.Lock()
	if f.state == flightOpen {
		if aborted {
			f.state = flightAborted
		} else {
			f.state = flightDone
		}
	}
	f.cond.Broadcast()
	f.releaseBufLocked()
	f.mu.Unlock()
}

// wake interrupts waiting followers (context cancellation). Taking the lock
// orders the broadcast against the waiter's cancellation check, so a
// cancelled follower cannot park forever.
func (f *flight) wake() {
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}

// next blocks until bytes past fol's cursor exist, the flight closes, or
// cancelled reports true; it copies at most len(scratch) bytes. The copy
// happens under the flight lock, so callers may write the scratch buffer
// out without racing the leader's appends or the trimmer.
func (f *flight) next(fol *follower, scratch []byte, cancelled func() bool) flightChunk {
	f.mu.Lock()
	defer f.mu.Unlock()
	for fol.pos == f.total && f.state == flightOpen && !fol.overrun && !cancelled() {
		f.cond.Wait()
	}
	c := flightChunk{state: f.state, total: f.total, ctype: f.ctype, clen: f.clen, overrun: fol.overrun}
	if fol.overrun {
		return c // the bytes at fol.pos were dropped; nothing left to copy
	}
	if fol.pos < f.total {
		c.n = copy(scratch, f.buf[fol.pos-f.start:])
		fol.pos += int64(c.n)
		f.trimLocked()
	}
	return c
}

// awaitClose blocks until the flight reaches a terminal state (or
// cancelled reports true), consuming — without copying — any bytes past
// the follower's cursor so a headers-only reader never pins the sealed
// buffer's trim window. HEAD followers riding a GET flight use it: they
// need the committed headers and the final byte count, not the body.
func (f *flight) awaitClose(fol *follower, cancelled func() bool) flightChunk {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.state == flightOpen && !cancelled() {
		if fol.pos < f.total {
			fol.pos = f.total
			f.trimLocked()
		}
		f.cond.Wait()
	}
	if fol.pos < f.total {
		fol.pos = f.total
		f.trimLocked()
	}
	return flightChunk{state: f.state, total: f.total, ctype: f.ctype, clen: f.clen}
}

// trimLocked drops the buffer prefix every live cursor has passed. Only
// sealed flights trim: an open, unsealed flight must keep byte zero for
// followers yet to attach.
func (f *flight) trimLocked() {
	if !f.sealed {
		return
	}
	min := f.total
	for fol := range f.followers {
		if !fol.overrun && fol.pos < min {
			min = fol.pos
		}
	}
	if drop := min - f.start; drop > 0 {
		n := copy(f.buf, f.buf[drop:])
		f.buf = f.buf[:n]
		f.start = min
	}
}

// waiterCount reports attached followers: a leader whose client has gone
// keeps draining the origin only while it is non-zero, and the admission
// stage bounds a flight's queue by it.
func (f *flight) waiterCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.followers)
}

// flightGroup tracks in-flight origin fetches by coalesce key.
type flightGroup struct {
	mu  sync.Mutex
	m   map[string]*flight
	seq uint64 // flight-id counter (trace role events)
	max int    // broadcast buffer byte cap per flight
}

func newFlightGroup(maxBytes int) *flightGroup {
	if maxBytes <= 0 {
		maxBytes = defaultBroadcastBytes
	}
	return &flightGroup{m: make(map[string]*flight), max: maxBytes}
}

// join returns the flight for key, starting one when there is none and
// lead allows it. leader is true for the caller that must perform the
// fetch and eventually call finish. Followers receive their attached
// cursor; a nil cursor with leader false means the flight is sealed and the
// caller must fetch independently. A nil *flight* with leader false is no
// flight the caller may lead, or a method mismatch: the key is
// GET-normalized so HEAD can ride a GET broadcast, but a GET arriving while
// a HEAD leads the key cannot be served a body and must fetch for itself.
func (g *flightGroup) join(key, method string, lead bool) (f *flight, leader bool, fol *follower) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		if method != f.method && method != http.MethodHead {
			return nil, false, nil
		}
		return f, false, f.attach()
	}
	if !lead {
		return nil, false, nil
	}
	f = newFlight(key, method, g.max)
	g.seq++
	f.id = g.seq
	g.m[key] = f
	return f, true, nil
}

// finish closes the leader's flight and releases its followers. The flight
// is removed from the group first so late arrivals start a fresh fetch
// instead of attaching to a closed one.
func (g *flightGroup) finish(f *flight, aborted bool) {
	g.mu.Lock()
	if g.m[f.key] == f {
		delete(g.m, f.key)
	}
	g.mu.Unlock()
	f.close(aborted)
}

// depth reports whether a flight is open for key and how many followers
// it currently has. The admission stage uses it to bound the coalesce
// queue: a request that would join an already-deep flight is shed.
func (g *flightGroup) depth(key string) (exists bool, waiters int) {
	g.mu.Lock()
	f, ok := g.m[key]
	g.mu.Unlock()
	if !ok {
		return false, 0
	}
	return true, f.waiterCount()
}

// waiting reports how many followers are attached to key (tests).
func (g *flightGroup) waiting(key string) int64 {
	g.mu.Lock()
	f, ok := g.m[key]
	g.mu.Unlock()
	if !ok {
		return 0
	}
	return int64(f.waiterCount())
}

// coalescable restricts sharing to idempotent, bodyless requests;
// side-effecting methods must each reach the origin.
func coalescable(r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return false
	}
	return r.ContentLength == 0 && len(r.TransferEncoding) == 0
}

// coalesceInvariantHeaders are the forwarded request headers that provably
// cannot change the response to a coalescable request: Content-Type
// describes a request body, and coalescable requests (bodyless GET/HEAD)
// carry none.
var coalesceInvariantHeaders = map[string]bool{
	"Content-Type": true,
}

// coalesceIdentityHeaders are the headers the coalesce key covers. They are
// derived from forwardedHeaders — the single source of truth for what the
// origin sees — minus the provably response-invariant ones, so the
// invariant "key covers every forwarded client header the origin may vary
// on" holds by construction instead of by parallel maintenance.
//
// Known, deliberate exclusion: X-Forwarded-For. It is synthesized from the
// connection's remote address (not taken from forwardedHeaders), differs
// for every client, and including it would disable coalescing outright.
// Origins that vary responses on client IP (geo-targeting) must not enable
// Coalesce; the paper's DPC personalizes by session identity headers,
// which the key covers.
var coalesceIdentityHeaders = coalesceIdentityFrom(forwardedHeaders)

func coalesceIdentityFrom(forwarded []string) []string {
	ids := make([]string, 0, len(forwarded))
	for _, h := range forwarded {
		if !coalesceInvariantHeaders[h] {
			ids = append(ids, h)
		}
	}
	return ids
}

// coalesceKey identifies an origin fetch: full request URI, method, and
// the identity headers above. Two requests sharing a key would receive
// byte-identical origin responses, so one fetch may serve all of them.
func coalesceKey(r *http.Request) string {
	return coalesceKeyAs(r, r.Method)
}

// coalesceKeyAs writes the URI first: the key doubles as the page rule's
// tier key, and every tier key begins with the URI and a NUL (see
// PageKeyPrefix).
func coalesceKeyAs(r *http.Request, method string) string {
	return buildKey(r, method, false)
}

// buildKey writes the URI, a NUL, method and each of the identity headers
// after a NUL of its own — blank, for the page identity headers, when
// anonymous — in one allocation.
func buildKey(r *http.Request, method string, anonymous bool) string {
	uri := r.URL.RequestURI()
	n := len(uri) + 1 + len(method) + len(coalesceIdentityHeaders)
	for _, h := range coalesceIdentityHeaders {
		if !anonymous || !slices.Contains(pageIdentityHeaders, h) {
			n += len(headerValue(r.Header, h))
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(uri)
	b.WriteByte(0)
	b.WriteString(method)
	for _, h := range coalesceIdentityHeaders {
		b.WriteByte(0)
		if !anonymous || !slices.Contains(pageIdentityHeaders, h) {
			b.WriteString(headerValue(r.Header, h))
		}
	}
	return b.String()
}

// headerValue is h.Get(name) for a name already in canonical form, as every
// name in forwardedHeaders and pageIdentityHeaders is: the first value, or
// "" when there is none. It indexes the map directly, where Get would
// re-canonicalize the constant name on every call.
func headerValue(h http.Header, name string) string {
	if v := h[name]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// flightKey maps a request onto the flight group: the coalesce key with
// HEAD normalized to GET, so a HEAD and a GET for the same resource
// share one flight — a GET fetch answers both, the HEAD follower served
// from the broadcast's committed headers alone. The flight records its
// leader's real method; join refuses the one unservable pairing (a GET
// arriving on a HEAD-led flight).
func flightKey(r *http.Request) string {
	if r.Method == http.MethodHead {
		return coalesceKeyAs(r, http.MethodGet)
	}
	return coalesceKey(r)
}
