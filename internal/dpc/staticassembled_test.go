package dpc

// Assembled pages entering the static tier: a template response carrying
// an explicit Cache-Control max-age is the origin's opt-in to cache the
// assembled result like any static asset — filed under the static key
// with fragment dependency edges, so the invalidation fabric can drop it
// surgically when a composing fragment dies.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/tmpl"
)

// assembledStaticOrigin serves a template page (SET 1:1 + GET 1:1) with
// the given extra headers, counting fetches.
func assembledStaticOrigin(extra map[string]string) (*httptest.Server, *atomic.Int64) {
	var fetches atomic.Int64
	var buf bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&buf)
	_ = enc.Literal([]byte("<html>"))
	_ = enc.Set(1, 1, []byte("assembled body"))
	_ = enc.Literal([]byte("</html>"))
	_ = enc.Flush()
	body := buf.Bytes()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		w.Header().Set("X-DPC-Template", "binary")
		for k, v := range extra {
			w.Header().Set(k, v)
		}
		_, _ = w.Write(body)
	}))
	return srv, &fetches
}

func assembledGet(t *testing.T, url string, hdr map[string]string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b), resp.Header.Get("X-Cache")
}

func TestAssembledStaticFillServesStatic(t *testing.T) {
	origin, fetches := assembledStaticOrigin(map[string]string{"Cache-Control": "max-age=60"})
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true })
	ts := httptest.NewServer(p)
	defer ts.Close()

	body1, state1 := assembledGet(t, ts.URL+"/page", nil)
	if state1 == "STATIC" {
		t.Fatalf("first request X-Cache = %q", state1)
	}
	if got := p.Registry().Snapshot()["dpc.static_assembled_fills"]; got != 1 {
		t.Fatalf("dpc.static_assembled_fills = %d, want 1", got)
	}
	body2, state2 := assembledGet(t, ts.URL+"/page", nil)
	if state2 != "STATIC" {
		t.Fatalf("second request X-Cache = %q, want STATIC", state2)
	}
	if body1 != body2 || body1 != "<html>assembled body</html>" {
		t.Fatalf("bodies: %q then %q", body1, body2)
	}
	if fetches.Load() != 1 {
		t.Fatalf("origin fetched %d times, want 1", fetches.Load())
	}
}

// A fragment invalidation through the fabric drops the assembled entry
// surgically: its dependency edges were recorded under the static key, and
// live as long as the origin's max-age keeps the entry — not the (shorter)
// page TTL, past which the invalidation would find no edge and the stale
// entry would be served for the rest of its minute.
func TestAssembledStaticFragmentInvalidation(t *testing.T) {
	origin, fetches := assembledStaticOrigin(map[string]string{"Cache-Control": "max-age=60"})
	defer origin.Close()
	fake := clock.NewFake(time.Unix(1000, 0))
	p := newTestProxy(t, origin.URL, func(c *Config) {
		c.Stream = true
		c.StaticClock, c.PageClock = fake, fake
	})
	ts := httptest.NewServer(p)
	defer ts.Close()

	assembledGet(t, ts.URL+"/page", nil)
	fake.Advance(10 * time.Second) // past defaultPageTTL, inside max-age
	if _, state := assembledGet(t, ts.URL+"/page", nil); state != "STATIC" {
		t.Fatalf("warm X-Cache = %q, want STATIC", state)
	}

	// The same wiring core.ProxySubscribers uses for the static tier.
	sub := coherency.NewStaticSubscriber(p.Static().Cache, p.DepIndex())
	sub.KeyPrefix = StaticKeyPrefix
	dropped := p.Registry().Counter("dpc.static_invalidations")
	sub.OnDrop = func(n int) { dropped.Add(int64(n)) }

	sub.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 1, Gen: 1})
	if sub.Dropped() != 1 {
		t.Fatalf("subscriber dropped %d entries (fallbacks=%d), want surgical 1", sub.Dropped(), sub.Fallbacks())
	}
	if dropped.Value() != 1 {
		t.Fatalf("dpc.static_invalidations = %d, want 1", dropped.Value())
	}
	if _, state := assembledGet(t, ts.URL+"/page", nil); state == "STATIC" {
		t.Fatal("stale assembled entry served after its fragment was invalidated")
	}
	if fetches.Load() != 2 {
		t.Fatalf("origin fetched %d times, want 2 (refetched after invalidation)", fetches.Load())
	}
}

// Without the origin's explicit max-age, assembled pages never enter the
// static tier; identity-bearing requests never do either; a non-allowlisted
// Vary refuses the opt-in and counts it.
func TestAssembledStaticRefusals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		extra   map[string]string
		reqHdr  map[string]string
		counter string
	}{
		{name: "no-opt-in"},
		{name: "identity", extra: map[string]string{"Cache-Control": "max-age=60"},
			reqHdr: map[string]string{"Cookie": "sid=1"}},
		{name: "vary", extra: map[string]string{"Cache-Control": "max-age=60", "Vary": "X-User"},
			counter: "dpc.static_uncacheable_vary"},
		{name: "private", extra: map[string]string{"Cache-Control": "private, max-age=60"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, _ := assembledStaticOrigin(tc.extra)
			defer origin.Close()
			p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true })
			ts := httptest.NewServer(p)
			defer ts.Close()

			assembledGet(t, ts.URL+"/page", tc.reqHdr)
			snap := p.Registry().Snapshot()
			if got := snap["dpc.static_assembled_fills"]; got != 0 {
				t.Fatalf("dpc.static_assembled_fills = %d, want 0", got)
			}
			if _, state := assembledGet(t, ts.URL+"/page", tc.reqHdr); state == "STATIC" {
				t.Fatal("refused page served STATIC")
			}
			if tc.counter != "" {
				if got := snap[tc.counter]; got != 1 {
					t.Fatalf("%s = %d, want 1", tc.counter, got)
				}
			}
		})
	}
}

// The opt-in lifts the look-ahead bound: a page larger than the spool is
// held whole and filed when the origin asked for it, and a page of the
// same size it did not ask for streams early and is not.
func TestAssembledStaticLiftsSpoolBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra map[string]string
		filed bool
	}{
		{"opted-in", map[string]string{"Cache-Control": "max-age=60"}, true},
		{"not-opted-in", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, _ := assembledStaticOrigin(tc.extra)
			defer origin.Close()
			p := newTestProxy(t, origin.URL, func(c *Config) {
				c.Stream = true
				c.StreamSpoolBytes = 16 // the page is 27 bytes
			})
			ts := httptest.NewServer(p)
			defer ts.Close()

			resp, err := http.Get(ts.URL + "/page")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "<html>assembled body</html>" {
				t.Fatalf("body = %q", body)
			}
			snap := p.Registry().Snapshot()
			if fills, streamed := snap["dpc.static_assembled_fills"], snap["dpc.streamed"]; (fills == 1) != tc.filed || (streamed == 1) == tc.filed {
				t.Fatalf("dpc.static_assembled_fills = %d, dpc.streamed = %d, filed=%v", fills, streamed, tc.filed)
			}
			if _, state := assembledGet(t, ts.URL+"/page", nil); (state == "STATIC") != tc.filed {
				t.Fatalf("revisit X-Cache = %q, filed=%v", state, tc.filed)
			}
		})
	}
}

// Plan-tier coherency: fragment events and purges are no-ops (plans hold
// no fragment bytes); plan-scoped and global flushes empty it; a sequence
// gap flushes conservatively.
func TestPlanSubscriber(t *testing.T) {
	// A GET-only template: the kind the plan cache keeps.
	body := templateBody(t, func(enc tmpl.Encoder) {
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Get(1, 1)
		_ = enc.Literal([]byte("</html>"))
	})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(body)
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true })
	if err := p.Store().Set(1, 1, []byte("assembled body")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	warm := func() {
		t.Helper()
		assembledGet(t, ts.URL+"/page", nil)
		if st := p.Plans().Stats(); st.Resident != 1 {
			t.Fatalf("plan cache resident = %d, want 1", st.Resident)
		}
	}
	warm()
	sub := coherency.NewPlanSubscriber(p.Plans().Store())

	// Fragment and purge events leave compiled plans alone.
	sub.Apply(coherency.Event{Seq: 1, Kind: coherency.KindFragment, Key: 1, Gen: 1})
	sub.Apply(coherency.Event{Seq: 2, Kind: coherency.KindPurge, URI: "/page"})
	// Foreign-scope flush too.
	sub.Apply(coherency.Event{Seq: 3, Kind: coherency.KindFlush, Scope: "page"})
	if st := p.Plans().Stats(); st.Resident != 1 {
		t.Fatalf("plan survived nothing: resident = %d after no-op events", st.Resident)
	}

	// A plan-scoped flush empties the tier.
	sub.Apply(coherency.Event{Seq: 4, Kind: coherency.KindFlush, Scope: "plan"})
	if st := p.Plans().Stats(); st.Resident != 0 {
		t.Fatalf("resident = %d after plan flush, want 0", st.Resident)
	}

	// A sequence gap is conservative: flush and recompile on demand.
	warm()
	sub.Apply(coherency.Event{Seq: 9, Kind: coherency.KindFragment, Key: 1, Gen: 1})
	if st := p.Plans().Stats(); st.Resident != 0 {
		t.Fatalf("resident = %d after gap, want 0 (conservative flush)", st.Resident)
	}
	if sub.Flushes() != 2 {
		t.Fatalf("flushes = %d, want 2", sub.Flushes())
	}
}
