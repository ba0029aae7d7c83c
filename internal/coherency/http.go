package coherency

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The HTTP bridge carries hub events between machines: the hub side POSTs
// JSON events to each edge's invalidation endpoint; the edge side applies
// them to its subscriber, the edge proxy itself. Lost deliveries surface
// as sequence gaps, which the subscriber handles by flushing.

// wireEvent is the JSON encoding of an Event. Kind zero (fragment) and
// empty payload fields are omitted, so pre-generalization peers remain
// wire-compatible for the fragment stream.
type wireEvent struct {
	Seq   uint64 `json:"seq"`
	Kind  uint8  `json:"kind,omitempty"`
	Frag  string `json:"frag,omitempty"`
	Key   uint32 `json:"key"`
	Gen   uint32 `json:"gen"`
	Why   string `json:"why,omitempty"`
	URI   string `json:"uri,omitempty"`
	Scope string `json:"scope,omitempty"`
}

func toWire(ev Event) wireEvent {
	return wireEvent{
		Seq: ev.Seq, Kind: uint8(ev.Kind), Frag: ev.FragmentID,
		Key: ev.Key, Gen: ev.Gen, Why: ev.Reason, URI: ev.URI, Scope: ev.Scope,
	}
}

func fromWire(we wireEvent) Event {
	return Event{
		Seq: we.Seq, Kind: Kind(we.Kind), FragmentID: we.Frag,
		Key: we.Key, Gen: we.Gen, Reason: we.Why, URI: we.URI, Scope: we.Scope,
	}
}

// Handler returns the edge-side HTTP endpoint applying events to sub.
// Mount it at e.g. /_coherency/invalidate on the edge proxy's admin mux.
func Handler(sub Subscriber) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var we wireEvent
		if err := json.NewDecoder(r.Body).Decode(&we); err != nil {
			http.Error(w, fmt.Sprintf("bad event: %v", err), http.StatusBadRequest)
			return
		}
		acked := sub.Apply(fromWire(we))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]uint64{"acked": acked})
	})
}

// RemoteSubscriber is the hub-side proxy for an edge endpoint: it POSTs
// each event and records the remote ack. Delivery failures are dropped
// (the edge will observe the gap and flush), which is the conservative
// behavior Section 7's scalability discussion calls for.
type RemoteSubscriber struct {
	// URL is the edge's invalidation endpoint.
	URL string
	// Client overrides the default 2-second-timeout HTTP client.
	Client *http.Client

	mu     sync.Mutex
	acked  uint64
	errors int
}

// Apply implements Subscriber by delivering the event over HTTP.
func (r *RemoteSubscriber) Apply(ev Event) uint64 {
	client := r.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	body, err := json.Marshal(toWire(ev))
	if err != nil {
		return r.ackedValue()
	}
	resp, err := client.Post(r.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		r.mu.Lock()
		r.errors++
		r.mu.Unlock()
		return r.ackedValue()
	}
	defer resp.Body.Close()
	var out map[string]uint64
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
		r.mu.Lock()
		r.errors++
		r.mu.Unlock()
		return r.ackedValue()
	}
	r.mu.Lock()
	if out["acked"] > r.acked {
		r.acked = out["acked"]
	}
	v := r.acked
	r.mu.Unlock()
	return v
}

func (r *RemoteSubscriber) ackedValue() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

// Errors reports failed deliveries.
func (r *RemoteSubscriber) Errors() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errors
}
