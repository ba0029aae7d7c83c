package coherency

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// The pull side of the fabric: a subscriber that polls the hub instead of
// being posted to. The hub keeps its last events in a ring and serves them,
// in sequence, to each puller from the puller's cursor; a poll's cursor is
// also its ack. So a puller needs no endpoint of its own, and one stream
// per puller delivers in order by construction.
//
// A broadcast waits for every puller to ack it, as it waits for a push
// subscriber's Apply, or drops the puller once the bound has passed since
// the hub last answered it. That one deadline decides every drop. The
// puller, for its part, trusts an answer for three quarters of the bound
// from the moment it sent the poll, which is no later than the hub
// answered it, so it stops relying on having heard every event before the
// hub can stop waiting for it (dpc.Proxy.Follow). A poll that does not ack
// what the hub's last answer to it carried is answered as a gap, so a
// puller cannot push its deadline on without acking; the puller it was
// keeps its deadline. A dropped puller's next poll is a gap too. The hub
// holds a poll that finds nothing new for a quarter of the bound, so a
// healthy puller's answers arrive well inside that trust.
//
// So a broadcast returns within twice the bound: a puller last answered
// just before it may be answered once more, the event included, just
// before its deadline, and then has the bound from that answer to ack.
//
// Anyone who reaches the stream can join it and hold every broadcast for
// that long, and a BEM broadcasts inside page requests too (expiries,
// evictions, stale reports): serve the stream only to the origin's
// proxies. The hub takes at most MaxPullers pullers at once.
//
// Time here is wall time, whatever clock the monitor runs on: the stream is
// a socket, and its bound is a property of the network.

// EventsPath is where an origin serves its hub's stream.
const EventsPath = "/_dpc/events"

// DropAfter is how long after the hub last answered a puller a broadcast
// the puller has not acked drops it.
const DropAfter = 2 * time.Second

// MaxPullers is the most pullers a hub keeps at once. A join beyond it is
// refused (503 over HTTP) until a puller is dropped.
const MaxPullers = 64

// retain is the number of events the hub keeps for pullers; a cursor further
// behind is answered as a gap. A live puller is never more than the events
// in delivery behind, since each waits for its ack.
const retain = 1024

// ErrNoStream is what Poll returns when the URL serves no event stream: the
// origin answers 404, or another sign that nothing is there.
var ErrNoStream = errors.New("coherency: the origin serves no event stream")

// Cursor is a puller's position in one hub's stream. The zero Cursor joins:
// the puller holds nothing, so nothing before the hub's current sequence can
// be stale in it.
type Cursor struct {
	// Inc is the incarnation of the hub the puller follows.
	Inc uint64
	// Sub is the puller's id at that hub.
	Sub uint64
	// After is the last sequence number the puller applied: the ack.
	After uint64
}

// Answer is the hub's reply to one poll.
type Answer struct {
	// Inc and Seq are the hub's incarnation and last assigned sequence
	// number when it answered.
	Inc, Seq uint64
	// Sub is the puller's id, to send back with the next poll; zero when
	// the hub refused a join, having MaxPullers pullers already.
	Sub uint64
	// Gap says the hub could not vouch for the cursor: it was behind the
	// retained events, ahead of Seq, from an earlier incarnation, behind
	// what the hub last answered the puller (no ack), or the puller had
	// been dropped. The puller must flush everything the stream
	// kept current and restart at Seq. A gap carries no events.
	Gap bool
	// Bound is the hub's drop bound (DropAfter).
	Bound time.Duration
	// Events are the events after the cursor, in sequence.
	Events []Event
}

// Trust is how long after sending a poll its answer may be relied on: three
// quarters of the hub's bound.
func (a Answer) Trust() time.Duration { return a.Bound * 3 / 4 }

// puller is the hub's record of one pulling subscriber.
type puller struct {
	acked uint64
	// answered is the sequence number the hub last answered it through, at
	// answeredAt; the drop deadline is answeredAt plus the bound. parked
	// counts its polls waiting for an event (HubStats).
	answered   uint64
	answeredAt time.Time
	parked     int
}

// HubStats is a snapshot of a hub's sequence and its pullers.
type HubStats struct {
	Incarnation  uint64 `json:"incarnation"`
	Seq          uint64 `json:"seq"`
	AckedThrough uint64 `json:"acked_through"`
	Pullers      int    `json:"pullers"`
	Parked       int    `json:"parked"`
	Polls        uint64 `json:"polls"`
	Gaps         uint64 `json:"gaps"`
	Drops        uint64 `json:"drops"`
}

// notifyLocked wakes every parked poll and every waiting broadcast; the
// caller holds h.mu.
func (h *Hub) notifyLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// awaitPullers returns once every puller has acked seq, dropping those that
// do not in time.
func (h *Hub) awaitPullers(seq uint64) {
	for {
		h.mu.Lock()
		now := time.Now()
		var next time.Time
		for id, p := range h.pullers {
			if p.acked >= seq {
				continue
			}
			if due := h.dueLocked(p); !now.Before(due) {
				h.dropLocked(id)
			} else if next.IsZero() || due.Before(next) {
				next = due
			}
		}
		changed := h.changed
		h.mu.Unlock()
		if next.IsZero() {
			return
		}
		t := time.NewTimer(next.Sub(now))
		select {
		case <-changed:
		case <-t.C:
		}
		t.Stop()
	}
}

// dueLocked is when p may be dropped: the bound after the hub last answered
// it, by when it no longer trusts any answer it was sent.
func (h *Hub) dueLocked(p *puller) time.Time { return p.answeredAt.Add(h.bound) }

func (h *Hub) dropLocked(id uint64) {
	delete(h.pullers, id)
	h.drops++
	h.notifyLocked()
}

// joinLocked registers a new puller at the hub's sequence, told of a gap if
// gap. It first drops every puller past its deadline, so that pullers that
// went away do not pile up on a hub with no events, and refuses the join if
// the hub still has MaxPullers.
func (h *Hub) joinLocked(gap bool) Answer {
	now := time.Now()
	for id, p := range h.pullers {
		if !now.Before(h.dueLocked(p)) {
			h.dropLocked(id)
		}
	}
	if len(h.pullers) >= MaxPullers {
		return Answer{Inc: h.inc, Seq: h.seq, Bound: h.bound}
	}
	h.lastSub++
	h.pullers[h.lastSub] = &puller{acked: h.seq, answered: h.seq, answeredAt: now}
	if gap {
		h.gaps++
	}
	h.notifyLocked()
	return Answer{Inc: h.inc, Seq: h.seq, Sub: h.lastSub, Gap: gap, Bound: h.bound}
}

// vouchesLocked returns c's puller when the hub can serve the events after
// c: c is this incarnation's, its puller has not been dropped, and its ack
// is neither ahead of the sequence, nor behind what the hub last answered
// the puller, nor behind the ring. It returns nil otherwise.
func (h *Hub) vouchesLocked(c Cursor) *puller {
	if p := h.pullers[c.Sub]; p != nil && c.Inc == h.inc && c.After <= h.seq &&
		c.After >= p.answered && h.seq-c.After <= retain {
		return p
	}
	return nil
}

// Poll answers one poll from cursor c. A zero Sub joins at the current
// sequence at once. Otherwise c.After acks, and the answer carries the
// events after it, waiting up to a quarter of the bound for one when there
// is none yet. A cursor the hub cannot vouch for is answered at once as a
// gap, under a new id; the puller the cursor named, if the hub has it, is
// left to its deadline, since it may still trust an earlier answer. A poll
// whose ctx ends stops waiting, and is answered like any other.
func (h *Hub) Poll(ctx context.Context, c Cursor) Answer {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.polls++
	if c.Sub == 0 {
		return h.joinLocked(false)
	}
	p := h.vouchesLocked(c)
	if p == nil {
		return h.joinLocked(true)
	}
	if c.After > p.acked {
		p.acked = c.After
		h.notifyLocked()
	}
	if c.After == h.seq {
		p.parked++
		hold := time.NewTimer(h.bound / 4)
		for held := false; c.After == h.seq && h.pullers[c.Sub] == p && !held && ctx.Err() == nil; {
			changed := h.changed
			h.mu.Unlock()
			select {
			case <-changed:
			case <-hold.C:
				held = true
			case <-ctx.Done():
			}
			h.mu.Lock()
		}
		hold.Stop()
		p.parked--
		if h.vouchesLocked(c) != p {
			return h.joinLocked(true)
		}
	}
	evs := make([]Event, 0, h.seq-c.After)
	for s := c.After + 1; s <= h.seq; s++ {
		evs = append(evs, h.ring[s%retain])
	}
	p.answered, p.answeredAt = h.seq, time.Now()
	return Answer{Inc: h.inc, Seq: h.seq, Sub: c.Sub, Bound: h.bound, Events: evs}
}

// Stats reports the hub's sequence and its pullers.
func (h *Hub) Stats() HubStats {
	acked := h.AckedThrough()
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{Incarnation: h.inc, Seq: h.seq, AckedThrough: acked, Pullers: len(h.pullers),
		Polls: h.polls, Gaps: h.gaps, Drops: h.drops}
	for _, p := range h.pullers {
		st.Parked += p.parked
	}
	return st
}

// wireAnswer is the JSON encoding of an Answer.
type wireAnswer struct {
	Inc    uint64      `json:"inc"`
	Seq    uint64      `json:"seq"`
	Sub    uint64      `json:"sub"`
	Gap    bool        `json:"gap,omitempty"`
	Bound  int64       `json:"bound_ms"`
	Events []wireEvent `json:"events"`
}

// ServeHTTP serves the stream: GET EventsPath?after=N&inc=I&sub=S, each
// parameter a decimal number and all three absent on the first poll.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var c Cursor
	q := r.URL.Query()
	for _, f := range []struct {
		name string
		v    *uint64
	}{{"after", &c.After}, {"inc", &c.Inc}, {"sub", &c.Sub}} {
		if s := q.Get(f.name); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad %s: %v", f.name, err), http.StatusBadRequest)
				return
			}
			*f.v = n
		}
	}
	a := h.Poll(r.Context(), c)
	if a.Sub == 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "the hub has as many pullers as it takes", http.StatusServiceUnavailable)
		return
	}
	out := wireAnswer{Inc: a.Inc, Seq: a.Seq, Sub: a.Sub, Gap: a.Gap, Bound: a.Bound.Milliseconds(),
		Events: make([]wireEvent, len(a.Events))}
	for i, ev := range a.Events {
		out.Events[i] = toWire(ev)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	_ = json.NewEncoder(w).Encode(out)
}

// Poll sends one poll from c to the stream at streamURL (an origin's base
// URL followed by EventsPath). It returns ErrNoStream when the answer says
// nothing serves a stream there: a client error other than 408 or 429, or
// a 200 that is not JSON. A server error, such as a hub refusing a join, is
// an ordinary error.
func Poll(ctx context.Context, client *http.Client, streamURL string, c Cursor) (Answer, error) {
	u := streamURL
	if c.Sub != 0 {
		u += "?" + url.Values{
			"after": {strconv.FormatUint(c.After, 10)},
			"inc":   {strconv.FormatUint(c.Inc, 10)},
			"sub":   {strconv.FormatUint(c.Sub, 10)},
		}.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Answer{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Answer{}, err
	}
	defer resp.Body.Close()
	switch code := resp.StatusCode; {
	case code == http.StatusOK:
	case code >= 400 && code < 500 && code != http.StatusRequestTimeout && code != http.StatusTooManyRequests:
		return Answer{}, fmt.Errorf("%w (status %d)", ErrNoStream, code)
	default:
		return Answer{}, fmt.Errorf("coherency: poll: status %d", code)
	}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != "application/json" {
		return Answer{}, ErrNoStream
	}
	var wa wireAnswer
	if err := json.NewDecoder(resp.Body).Decode(&wa); err != nil {
		return Answer{}, fmt.Errorf("coherency: poll: %w", err)
	}
	a := Answer{Inc: wa.Inc, Seq: wa.Seq, Sub: wa.Sub, Gap: wa.Gap,
		Bound: time.Duration(wa.Bound) * time.Millisecond, Events: make([]Event, len(wa.Events))}
	for i, we := range wa.Events {
		a.Events[i] = fromWire(we)
	}
	if a.Sub == 0 || a.Bound <= 0 {
		return Answer{}, fmt.Errorf("coherency: poll: answer without a subscription or a bound")
	}
	return a, nil
}
