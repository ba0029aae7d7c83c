package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder was created.
type span struct {
	Name  string `json:"name"`
	Req   int64  `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent indexes the span that was running when this one began
	// (-1 for a root or an orphan); analyze fills it in.
	Parent int `json:"parent"`
}

// rootSpan names the span that brackets one whole request.
const rootSpan = "client"

// recorder collects spans in memory. The traced run has one sequential
// client, so the request a span belongs to is whichever is current, and
// the span that caused it is whichever was started last and still runs.
type recorder struct {
	on    atomic.Bool
	req   atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a span that has begun: its start time and its request, both
// taken at the start, so a call still returning when the client moves on
// is not charged to the next request.
type open struct{ start, req int64 }

func (r *recorder) begin() open {
	return open{start: int64(time.Since(r.epoch)), req: r.req.Load()}
}

// end records the span begun by o under name.
func (r *recorder) end(name string, o open) {
	s := span{Name: name, Req: o.req, Start: o.start, End: int64(time.Since(r.epoch)), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanReport is what analyze derives from a set of spans.
type spanReport struct {
	// selfNs is, per span name, the time during which a span of that
	// name was the innermost one running.
	selfNs map[string]int64
	// totalNs and calls are, per span name, summed durations and counts.
	totalNs map[string]int64
	calls   map[string]int64
	// rootNs is the summed duration of the root spans; the self times
	// add up to exactly this.
	rootNs int64
	roots  int
	// orphans counts spans that began while no root span of their
	// request was running.
	orphans int
}

// analyze attributes every instant of every root span to exactly one
// span: the one that started last among those running at that instant.
// That is a span's duration minus whatever its children cover, with
// overlapping children — a plan's parallel fragment GETs, or an origin
// handler that returns a moment after the proxy has its response
// headers — counted once. It also fills in each span's Parent.
func analyze(spans []span) spanReport {
	rep := spanReport{selfNs: map[string]int64{}, totalNs: map[string]int64{}, calls: map[string]int64{}}
	byReq := map[int64][]int{}
	for i, s := range spans {
		spans[i].Parent = -1
		byReq[s.Req] = append(byReq[s.Req], i)
		rep.totalNs[s.Name] += s.End - s.Start
		rep.calls[s.Name]++
	}
	for _, idx := range byReq {
		root := -1
		for _, i := range idx {
			if spans[i].Name == rootSpan {
				root = i
				break
			}
		}
		if root < 0 {
			rep.orphans += len(idx)
			continue
		}
		rep.roots++
		lo, hi := spans[root].Start, spans[root].End
		rep.rootNs += hi - lo

		// Spans that began outside the root are orphans and take no part.
		members := idx[:0:0]
		for _, i := range idx {
			if i == root || (spans[i].Start >= lo && spans[i].Start < hi) {
				members = append(members, i)
			} else {
				rep.orphans++
			}
		}
		// latest returns the running span, other than not, that started
		// last at time t.
		latest := func(t int64, not int) int {
			best := -1
			for _, i := range members {
				s := spans[i]
				if i == not || s.Start > t || s.End <= t {
					continue
				}
				if best < 0 || s.Start > spans[best].Start || (s.Start == spans[best].Start && i > best) {
					best = i
				}
			}
			return best
		}
		var cuts []int64
		for _, i := range members {
			if i != root {
				spans[i].Parent = latest(spans[i].Start, i)
			}
			cuts = append(cuts, spans[i].Start, min(spans[i].End, hi))
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for k := 0; k+1 < len(cuts); k++ {
			if cuts[k] == cuts[k+1] {
				continue
			}
			if i := latest(cuts[k], -1); i >= 0 {
				rep.selfNs[spans[i].Name] += cuts[k+1] - cuts[k]
			}
		}
	}
	return rep
}

// writeSpans writes the spans as a JSON array to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
