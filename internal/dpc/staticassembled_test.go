package dpc

// Assembled pages and the origin's opt-in: a template answer is never
// filed under the static key, whatever its Cache-Control says, and the
// plan tier's coherency.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

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

// A template answer is never URL-keyed, whatever Cache-Control it carries:
// the origin's opt-in is for plain responses, and a dynamic page is cached
// whole only by the page rule. Nothing is filed, no request is served
// STATIC, and no refusal of the opt-in is counted, since none was
// considered.
func TestAssembledStaticRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extra  map[string]string
		reqHdr map[string]string
	}{
		{name: "no-opt-in"},
		{name: "max-age", extra: map[string]string{"Cache-Control": "max-age=60"}},
		{name: "identity", extra: map[string]string{"Cache-Control": "max-age=60"},
			reqHdr: map[string]string{"Cookie": "sid=1"}},
		{name: "vary", extra: map[string]string{"Cache-Control": "max-age=60", "Vary": "X-User"}},
		{name: "private", extra: map[string]string{"Cache-Control": "private, max-age=60"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			origin, fetches := assembledStaticOrigin(tc.extra)
			defer origin.Close()
			p := newTestProxy(t, origin.URL, func(c *Config) { c.Stream = true })
			ts := httptest.NewServer(p)
			defer ts.Close()

			for i := range 2 {
				if body, state := assembledGet(t, ts.URL+"/page", tc.reqHdr); state != "MISS" || body != "<html>assembled body</html>" {
					t.Fatalf("request %d: X-Cache %q, body %q; want the assembled page, a MISS", i, state, body)
				}
			}
			snap := p.Registry().Snapshot()
			if snap["dpc.pagecache_fills"] != 0 || p.Pages().Len() != 0 || fetches.Load() != 2 {
				t.Fatalf("%d fills, %d entries, %d origin fetches; want none filed and two fetches",
					snap["dpc.pagecache_fills"], p.Pages().Len(), fetches.Load())
			}
			if got := snap["dpc.pagecache_uncacheable_vary"]; got != 0 {
				t.Fatalf("dpc.pagecache_uncacheable_vary = %d, want 0", got)
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
	// The first event attaches the proxy and empties the plan tier
	// (TestFirstAttachFlushesPlans); the events after it are the ones
	// judged here.
	p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/none"})
	warm()

	// Fragment and purge events leave compiled plans alone.
	p.Apply(coherency.Event{Seq: 2, Kind: coherency.KindFragment, Key: 1, Gen: 1})
	p.Apply(coherency.Event{Seq: 3, Kind: coherency.KindPurge, URI: "/page"})
	// Foreign-scope flush too.
	p.Apply(coherency.Event{Seq: 4, Kind: coherency.KindFlush, Scope: "page"})
	if st := p.Plans().Stats(); st.Resident != 1 {
		t.Fatalf("plan survived nothing: resident = %d after no-op events", st.Resident)
	}

	// A plan-scoped flush empties the tier.
	p.Apply(coherency.Event{Seq: 5, Kind: coherency.KindFlush, Scope: "plan"})
	if st := p.Plans().Stats(); st.Resident != 0 {
		t.Fatalf("resident = %d after plan flush, want 0", st.Resident)
	}

	// A sequence gap is conservative: flush and recompile on demand.
	if err := p.Store().Set(1, 1, []byte("assembled body")); err != nil { // the fragment event dropped it
		t.Fatal(err)
	}
	warm()
	p.Apply(coherency.Event{Seq: 9, Kind: coherency.KindFragment, Key: 1, Gen: 1})
	if st := p.Plans().Stats(); st.Resident != 0 {
		t.Fatalf("resident = %d after gap, want 0 (conservative flush)", st.Resident)
	}
	if n := p.Registry().Counter("dpc.pagecache_gap_flushes").Value(); n != 1 {
		t.Fatalf("gap flushes = %d, want 1", n)
	}
}
