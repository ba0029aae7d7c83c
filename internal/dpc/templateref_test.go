package dpc

// A held plan, from the proxy's side: the plan a lease names runs in place
// of the template the origin would send, and must do all the template would,
// down to the stale slot it meets.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/tmplplan/plantest"
)

// leaseOrigin is the origin's half of the lease protocol for one fixed
// template: the body, with a grant of no term on an ask when grant says the
// body carries no SET.
func leaseOrigin(codec tmpl.Codec, body []byte, grant bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerTemplate, codec.Name())
		if grant && r.Header.Get(headerLease) != "" {
			w.Header().Set(headerLease, "none")
		}
		_, _ = w.Write(body)
	})
}

// fetchAssemble runs one GET's stages by hand, so the assembly's stats can
// be seen: the plan of the lease filed under its key when there is one, as
// serveLease runs it, else the origin fetch and the assembly of its
// template. The page lands in the recorder.
func fetchAssemble(p *Proxy, path string) (*httptest.ResponseRecorder, AssembleStats, error) {
	rec := httptest.NewRecorder()
	rs := &reqState{w: rec, r: httptest.NewRequest(http.MethodGet, path, nil), start: time.Now()}
	if _, ok := p.useLease(rs); ok {
		st, err := p.assemblePage(rs, nil, 0, wholePage)
		return rec, st, err
	}
	if _, err := p.stageOriginFetch(rs); err != nil {
		return rec, AssembleStats{}, err
	}
	defer rs.resp.Body.Close()
	st, err := p.assemblePage(rs, rs.resp.Body, rs.resp.ContentLength, wholePage)
	return rec, st, err
}

// goLive puts p on the fabric, so that it asks for leases.
func goLive(p *Proxy) { p.Apply(coherency.Event{Seq: 1, Kind: coherency.KindPurge, URI: "/none"}) }

// The conformance corpus fetched twice through an origin that grants a
// lease on a template with no SET and a proxy on the fabric: whichever way
// the second template arrives — the first's plan run under its lease where
// the first could recur and compiled, in full otherwise — page, error text,
// fragment refs and SET side effects are the reference interpreter's, pass
// by pass.
func TestTemplateRefConformance(t *testing.T) {
	codec := tmpl.Binary{}
	for _, tc := range conformanceCases() {
		t.Run(codec.Name()+"/"+tc.name, func(t *testing.T) {
			body := append(encodeTemplate(t, codec, tc.ins), tc.tail...)
			plan, err := tmplplan.Compile(codec, body)
			granted := err == nil && !plan.OneOff()
			// A grant is filed only after a run that resolved every ref:
			// wantLeases is settled by the first pass.
			wantLeases := int64(0)
			ts := httptest.NewServer(leaseOrigin(codec, body, granted))
			defer ts.Close()

			oracleStore, _ := NewStore(64)
			seedConformance(t, oracleStore, codec, tc)
			asm := plantest.NewAssembler(oracleStore, codec, true)
			engineStore, _ := NewStore(64)
			seedConformance(t, engineStore, codec, tc)
			p := newTestProxy(t, ts.URL, func(c *Config) { c.Store, c.Codec, c.Strict = engineStore, codec, true })
			goLive(p)

			for pass := 1; pass <= 2; pass++ {
				var wantPage bytes.Buffer
				wantStats, wantErr := asm.Assemble(&wantPage, bytes.NewReader(body))
				rec, gotStats, gotErr := fetchAssemble(p, "/page")

				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("pass %d: errors diverge:\noracle %v\nengine %v", pass, wantErr, gotErr)
				}
				if pass == 1 && granted && wantErr == nil {
					wantLeases = 1
				}
				if wantErr == nil && !bytes.Equal(wantPage.Bytes(), rec.Body.Bytes()) {
					t.Fatalf("pass %d: pages diverge:\noracle %q\nengine %q", pass, wantPage.String(), rec.Body.String())
				}
				if fmt.Sprint(wantStats.Refs) != fmt.Sprint(gotStats.Refs) || fmt.Sprint(wantStats.Stale) != fmt.Sprint(gotStats.Stale) {
					t.Fatalf("pass %d: refs diverge:\noracle %v stale %v\nengine %v stale %v",
						pass, wantStats.Refs, wantStats.Stale, gotStats.Refs, gotStats.Stale)
				}
				for _, ref := range tc.checkSets {
					w, wok := oracleStore.Get(ref.Key, ref.Gen, true)
					g, gok := engineStore.Get(ref.Key, ref.Gen, true)
					if wok != gok || !bytes.Equal(w, g) {
						t.Fatalf("pass %d: SET side effects diverge at %d:%d: oracle (%q,%v) engine (%q,%v)",
							pass, ref.Key, ref.Gen, w, wok, g, gok)
					}
				}
				// What was read is what is counted: nothing, for a lease.
				leased := pass == 2 && wantLeases == 1
				if want := wantStats.TemplateBytes; leased && gotStats.TemplateBytes != 0 || !leased && gotStats.TemplateBytes != want {
					t.Fatalf("pass %d (leased: %v): TemplateBytes = %d, template is %d bytes", pass, leased, gotStats.TemplateBytes, want)
				}
			}
			snap := p.Registry().Snapshot()
			if snap["dpc.lease_grants"] != wantLeases {
				t.Fatalf("lease grants=%d, want %d", snap["dpc.lease_grants"], wantLeases)
			}
			if st := p.Plans().Stats(); wantLeases == 1 && (st.Hits < 1 || snap["dpc.plancache_hits"] != 1 || snap["dpc.plancache_compiles"] != 1) {
				t.Fatalf("plan cache %+v, dpc.plancache_hits=%d compiles=%d: a lease's run is a hit and compiles nothing",
					st, snap["dpc.plancache_hits"], snap["dpc.plancache_compiles"])
			}
		})
	}
}

// realOrigin serves the given scripts from an origin.Server with a BEM, and
// records the headers of every request it is sent.
type realOrigin struct {
	*httptest.Server
	repo *repository.Repo

	mu   sync.Mutex
	seen []http.Header
}

func newRealOrigin(t *testing.T, build func(repo *repository.Repo) []*script.Script) *realOrigin {
	t.Helper()
	repo := repository.New(repository.LatencyModel{})
	mon, err := bem.New(bem.Config{Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := origin.New(origin.Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range build(repo) {
		if err := srv.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	o := &realOrigin{repo: repo}
	o.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		o.seen = append(o.seen, r.Header.Clone())
		o.mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(o.Close)
	return o
}

// lastRequests returns the headers of the n most recent requests.
func (o *realOrigin) lastRequests(n int) []http.Header {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]http.Header(nil), o.seen[len(o.seen)-n:]...)
}

func portalAndSynth(t *testing.T) func(repo *repository.Repo) []*script.Script {
	return func(repo *repository.Repo) []*script.Script {
		portal, err := site.BuildPortal(site.DefaultPortal(), repo)
		if err != nil {
			t.Fatal(err)
		}
		synth, _, err := site.BuildSynthetic(site.DefaultSynthetic(), repo)
		if err != nil {
			t.Fatal(err)
		}
		return []*script.Script{portal, synth}
	}
}

// serve runs one GET through the whole proxy.
func serve(t *testing.T, p *Proxy, path, user string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s as %q: status %d: %s", path, user, rec.Code, rec.Body)
	}
	return rec
}

// A fragment gone from the store under a lease is found by the lease's run,
// which commits nothing; the request goes on to the origin, whose GET-only
// template meets the same missing slot, and recovers the way any template
// does: a bypass fetch that reports the slot and asks for no lease.
func TestTemplateRefStaleGoesToBypass(t *testing.T) {
	o := newRealOrigin(t, portalAndSynth(t))
	p := newTestProxy(t, o.URL, func(c *Config) { c.Capacity, c.Strict = 1024, true })
	goLive(p)
	const path = "/page/synth?page=0"
	serve(t, p, path, "")
	serve(t, p, path, "")
	rec := serve(t, p, path, "")
	want := rec.Body.String()
	if n := p.Registry().Snapshot()["dpc.lease_hits"]; n != 1 || rec.Header().Get("X-Cache") != "LEASE" {
		t.Fatalf("third visit: X-Cache %q, dpc.lease_hits = %d, want a lease hit", rec.Header().Get("X-Cache"), n)
	}

	p.Store().DropAll() // behind the BEM's back
	grants := p.Registry().Snapshot()["dpc.lease_grants"]
	rec = serve(t, p, path, "")
	if rec.Body.String() != want || rec.Header().Get("X-Cache") != "BYPASS" {
		t.Fatalf("X-Cache %q, body equal: %v; want the bypass page", rec.Header().Get("X-Cache"), rec.Body.String() == want)
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.lease_floor_voids"] != 1 || snap["dpc.stale_fallbacks"] != 1 || snap["dpc.errors"] != 0 {
		t.Fatalf("floor voids=%d stale_fallbacks=%d errors=%d, want the lease's run and the template's to have met the stale slots",
			snap["dpc.lease_floor_voids"], snap["dpc.stale_fallbacks"], snap["dpc.errors"])
	}
	// The first try's GET-only answer carried a grant, but its run met the
	// missing slots: nothing is filed for it.
	if n := snap["dpc.lease_grants"]; n != grants {
		t.Fatalf("dpc.lease_grants %d → %d over the stale episode, want no grant filed", grants, n)
	}
	reqs := o.lastRequests(2)
	if reqs[0].Get(headerLease) == "" || reqs[0].Get(headerBypass) != "" {
		t.Fatalf("first try: headers %v, want a lease ask", reqs[0])
	}
	if reqs[1].Get(headerBypass) == "" || reqs[1].Get(headerStale) == "" || reqs[1].Get(headerLease) != "" {
		t.Fatalf("bypass fetch: headers %v, want the stale report and no lease ask", reqs[1])
	}
	// The report invalidated the slots, and no lease names them: the next
	// visit goes straight to the origin, with no void. Then SETs, a
	// GET-only template with a grant, and a lease again.
	for i := 0; i < 3; i++ {
		if got := serve(t, p, path, "").Body.String(); got != want {
			t.Fatalf("visit %d after the bypass: %q, want %q", i, got, want)
		}
	}
	if snap := p.Registry().Snapshot(); snap["dpc.lease_hits"] != 2 || snap["dpc.lease_floor_voids"] != 1 || snap["dpc.errors"] != 0 {
		t.Fatalf("dpc.lease_hits = %d floor voids=%d errors=%d after re-warming, want 2, 1 and 0",
			snap["dpc.lease_hits"], snap["dpc.lease_floor_voids"], snap["dpc.errors"])
	}
}
