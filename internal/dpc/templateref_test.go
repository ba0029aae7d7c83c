package dpc

// Template by reference, from the proxy's side: the offer (X-DPC-Have), the
// answer (X-DPC-Same), and everything that may go wrong between them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dpcache/internal/bem"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/tmplplan/plantest"
	"dpcache/internal/trace"
)

// hexDigest is a template's digest as X-DPC-Have carries it.
func hexDigest(template []byte) string {
	sum := sha256.Sum256(template)
	return hex.EncodeToString(sum[:])
}

// refOrigin is the origin's half of the protocol for one fixed template:
// the body, or the headers alone when the request names the body's digest.
func refOrigin(codec tmpl.Codec, body []byte) http.Handler {
	digest := hexDigest(body)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerTemplate, codec.Name())
		if r.Header.Get(headerHave) == digest {
			w.Header().Set(headerSame, "1")
			return
		}
		_, _ = w.Write(body)
	})
}

// fetchAssemble runs the origin-fetch and assemble stages of one GET by
// hand, so the assembly's stats can be seen; the page lands in the recorder.
func fetchAssemble(p *Proxy, path string) (*httptest.ResponseRecorder, AssembleStats, error) {
	rec := httptest.NewRecorder()
	rs := &reqState{w: rec, r: httptest.NewRequest(http.MethodGet, path, nil), start: time.Now()}
	if _, err := p.stageOriginFetch(rs); err != nil {
		return rec, AssembleStats{}, err
	}
	defer rs.resp.Body.Close()
	st, err := p.assemblePage(rs, rs.resp.Body, rs.resp.ContentLength, wholePage, nil)
	return rec, st, err
}

// The conformance corpus fetched twice through an origin and a proxy that
// speak the reference protocol: whichever way the second template arrives —
// by reference where the first could recur and compiled, in full otherwise
// — page, error text, fragment refs and SET side effects are the reference
// interpreter's, pass by pass.
func TestTemplateRefConformance(t *testing.T) {
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		for _, tc := range conformanceCases() {
			t.Run(codec.Name()+"/"+tc.name, func(t *testing.T) {
				body := append(encodeTemplate(t, codec, tc.ins), tc.tail...)
				ts := httptest.NewServer(refOrigin(codec, body))
				defer ts.Close()

				oracleStore, _ := NewStore(64)
				seedConformance(t, oracleStore, codec, tc)
				asm := plantest.NewAssembler(oracleStore, codec, true)
				engineStore, _ := NewStore(64)
				seedConformance(t, engineStore, codec, tc)
				p := newTestProxy(t, ts.URL, func(c *Config) { c.Store, c.Codec, c.Strict = engineStore, codec, true })

				wantRefs := int64(0)
				if plan, err := tmplplan.Compile(codec, body); err == nil && !plan.OneOff() {
					wantRefs = 1
				}
				for pass := 1; pass <= 2; pass++ {
					var wantPage bytes.Buffer
					wantStats, wantErr := asm.Assemble(&wantPage, bytes.NewReader(body))
					rec, gotStats, gotErr := fetchAssemble(p, "/page")

					if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
						t.Fatalf("pass %d: errors diverge:\noracle %v\nengine %v", pass, wantErr, gotErr)
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
					// What was read is what is counted: nothing, for a reference.
					byRef := pass == 2 && wantRefs == 1
					if want := wantStats.TemplateBytes; byRef && gotStats.TemplateBytes != 0 || !byRef && gotStats.TemplateBytes != want {
						t.Fatalf("pass %d (by reference: %v): TemplateBytes = %d, template is %d bytes", pass, byRef, gotStats.TemplateBytes, want)
					}
				}
				snap := p.Registry().Snapshot()
				if snap["dpc.template_refs"] != wantRefs || snap["dpc.template_offers"] != wantRefs {
					t.Fatalf("offers=%d refs=%d, want %d of each", snap["dpc.template_offers"], snap["dpc.template_refs"], wantRefs)
				}
				if st := p.Plans().Stats(); wantRefs == 1 && (st.Hits < 1 || snap["dpc.plancache_hits"] != 1 || snap["dpc.plancache_compiles"] != 1) {
					t.Fatalf("plan cache %+v, dpc.plancache_hits=%d compiles=%d: a reference is a hit and compiles nothing",
						st, snap["dpc.plancache_hits"], snap["dpc.plancache_compiles"])
				}
			})
		}
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

func keyOf(path, user string) string {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	return flightKey(req)
}

// A hint is only ever a guess about what the origin will generate. Whatever
// it says — a template no request produces, another page's, another user's
// on a site whose template is the user's own — the origin compares it with
// this request's template and the page is the right one, from a full answer.
func TestTemplateRefWrongHint(t *testing.T) {
	o := newRealOrigin(t, portalAndSynth(t))
	p := newTestProxy(t, o.URL, func(c *Config) { c.Capacity, c.Strict = 1024, true })

	type visit struct{ path, user string }
	alice, bob := visit{"/page/portal", "u0"}, visit{"/page/portal", "u1"}
	page0, page1 := visit{"/page/synth?page=0", ""}, visit{"/page/synth?page=1", ""}
	want := map[visit]string{}
	for _, v := range []visit{alice, bob, page0, page1} {
		serve(t, p, v.path, v.user) // SETs
		serve(t, p, v.path, v.user) // GETs: the plan is kept, the hint recorded
		rec := serve(t, p, v.path, v.user)
		want[v] = rec.Body.String()
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.template_refs"] != 4 || snap["dpc.template_offers"] != 4 {
		t.Fatalf("warm-up: offers=%d refs=%d, want every third visit answered by reference", snap["dpc.template_offers"], snap["dpc.template_refs"])
	}
	if want[alice] == want[bob] || want[page0] == want[page1] {
		t.Fatal("the pages do not differ: the test would prove nothing")
	}
	hintOf := func(v visit) tmplplan.Digest {
		d, ok := p.hints.lookup(keyOf(v.path, v.user))
		if !ok || p.plans.Lookup(d) == nil {
			t.Fatalf("no hint with a resident plan for %+v", v)
		}
		return d
	}
	stray, _, err := p.plans.Get(templateBody(t, func(enc tmpl.Encoder) { _ = enc.Literal([]byte("no page looks like this")) }))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		to   visit
		hint tmplplan.Digest
	}{
		{"a template no request produces", page0, stray.Digest()},
		{"another page's", page0, hintOf(page1)},
		{"another user's", bob, hintOf(alice)},
	} {
		before := p.Registry().Snapshot()
		p.hints.record(keyOf(tc.to.path, tc.to.user), tc.hint)
		rec := serve(t, p, tc.to.path, tc.to.user)
		if rec.Body.String() != want[tc.to] {
			t.Fatalf("%s hint: served %q, want %q", tc.name, rec.Body, want[tc.to])
		}
		after := p.Registry().Snapshot()
		if after["dpc.template_offers"]-before["dpc.template_offers"] != 1 || after["dpc.template_refs"] != before["dpc.template_refs"] {
			t.Fatalf("%s hint: offers %d→%d refs %d→%d, want an offer answered in full", tc.name,
				before["dpc.template_offers"], after["dpc.template_offers"], before["dpc.template_refs"], after["dpc.template_refs"])
		}
		// The full answer put the hint right.
		if rec := serve(t, p, tc.to.path, tc.to.user); rec.Body.String() != want[tc.to] {
			t.Fatalf("%s hint, next visit: served %q, want %q", tc.name, rec.Body, want[tc.to])
		}
		if got := p.Registry().Snapshot()["dpc.template_refs"]; got != after["dpc.template_refs"]+1 {
			t.Fatalf("%s hint: the visit after the full answer was not answered by reference", tc.name)
		}
	}
	if n := p.Registry().Snapshot()["dpc.errors"]; n != 0 {
		t.Fatalf("dpc.errors = %d", n)
	}
}

// A fragment gone from the store under a template answered by reference is
// found by the same run that would have found it under a full template, and
// recovered the same way: a bypass fetch that reports the slot and offers
// nothing.
func TestTemplateRefStaleGoesToBypass(t *testing.T) {
	o := newRealOrigin(t, portalAndSynth(t))
	p := newTestProxy(t, o.URL, func(c *Config) { c.Capacity, c.Strict = 1024, true })
	const path = "/page/synth?page=0"
	serve(t, p, path, "")
	serve(t, p, path, "")
	want := serve(t, p, path, "").Body.String()
	if n := p.Registry().Snapshot()["dpc.template_refs"]; n != 1 {
		t.Fatalf("third visit: dpc.template_refs = %d, want 1", n)
	}

	p.Store().DropAll() // behind the BEM's back
	rec := serve(t, p, path, "")
	if rec.Body.String() != want || rec.Header().Get("X-Cache") != "BYPASS" {
		t.Fatalf("X-Cache %q, body equal: %v; want the bypass page", rec.Header().Get("X-Cache"), rec.Body.String() == want)
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.template_refs"] != 2 || snap["dpc.stale_fallbacks"] != 1 || snap["dpc.errors"] != 0 {
		t.Fatalf("refs=%d stale_fallbacks=%d errors=%d, want the reference run to have met the stale slots",
			snap["dpc.template_refs"], snap["dpc.stale_fallbacks"], snap["dpc.errors"])
	}
	reqs := o.lastRequests(2)
	if reqs[0].Get(headerHave) == "" || reqs[0].Get(headerBypass) != "" {
		t.Fatalf("first try: headers %v, want an offer", reqs[0])
	}
	if reqs[1].Get(headerBypass) == "" || reqs[1].Get(headerStale) == "" || reqs[1].Get(headerHave) != "" {
		t.Fatalf("bypass fetch: headers %v, want the stale report and no offer", reqs[1])
	}
	// The report invalidated the slots: SETs, GETs, and references again.
	for i := 0; i < 3; i++ {
		if got := serve(t, p, path, "").Body.String(); got != want {
			t.Fatalf("visit %d after the bypass: %q, want %q", i, got, want)
		}
	}
	if n := p.Registry().Snapshot()["dpc.template_refs"]; n != 3 {
		t.Fatalf("dpc.template_refs = %d after re-warming, want 3", n)
	}
}

// The two rules of the exchange: an offer may be answered in full at any
// time, and a reference may be answered only to an offer.
func TestTemplateRefProtocol(t *testing.T) {
	body := templateBody(t, func(enc tmpl.Encoder) { _ = enc.Literal([]byte("<html>the page</html>")) })

	t.Run("reference to no offer", func(t *testing.T) {
		for _, bare := range []bool{false, true} {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !bare {
					w.Header().Set(headerTemplate, "binary")
				}
				w.Header().Set("Cache-Control", "max-age=60")
				w.Header().Set(headerSame, "1")
			}))
			p := newTestProxy(t, ts.URL, func(c *Config) { c.PageCache = true })
			for i := 0; i < 2; i++ {
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/page", nil))
				if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), headerSame) {
					t.Fatalf("bare=%v: response %d %q, want a 502 naming %s", bare, rec.Code, rec.Body, headerSame)
				}
			}
			snap := p.Registry().Snapshot()
			if snap["dpc.errors"] != 2 || snap["dpc.template_refs"] != 0 || snap["dpc.pagecache_fills"] != 0 || snap["dpc.static_assembled_fills"] != 0 {
				t.Fatalf("bare=%v: errors=%d refs=%d page fills=%d static fills=%d, want two errors and nothing cached", bare,
					snap["dpc.errors"], snap["dpc.template_refs"], snap["dpc.pagecache_fills"], snap["dpc.static_assembled_fills"])
			}
			if st := p.Plans().Stats(); st.Resident != 0 || st.Hits != 0 {
				t.Fatalf("plan cache %+v after protocol errors", st)
			}
			ts.Close()
		}
	})

	t.Run("origin that never heard of the offer", func(t *testing.T) {
		var offers int
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(headerHave) != "" {
				offers++
			}
			w.Header().Set(headerTemplate, "binary")
			_, _ = w.Write(body)
		}))
		defer ts.Close()
		p := newTestProxy(t, ts.URL, nil)
		for i := 0; i < 4; i++ {
			if got := serve(t, p, "/page", "").Body.String(); got != "<html>the page</html>" {
				t.Fatalf("visit %d: %q", i, got)
			}
		}
		snap := p.Registry().Snapshot()
		if offers != 3 || snap["dpc.template_offers"] != 3 || snap["dpc.template_refs"] != 0 || snap["dpc.plancache_hits"] != 3 {
			t.Fatalf("origin saw %d offers; offers=%d refs=%d plan hits=%d; want 3, 3, 0, 3",
				offers, snap["dpc.template_offers"], snap["dpc.template_refs"], snap["dpc.plancache_hits"])
		}
		if want := int64(4 * len(body)); snap["dpc.template_bytes"] != want {
			t.Fatalf("dpc.template_bytes = %d, want %d: every template was read", snap["dpc.template_bytes"], want)
		}
	})

	t.Run("client's own offer stays at the proxy", func(t *testing.T) {
		digest := hexDigest(body)
		var seen []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seen = append(seen, r.Header.Get(headerHave))
			refOrigin(tmpl.Binary{}, body).ServeHTTP(w, r)
		}))
		defer ts.Close()
		p := newTestProxy(t, ts.URL, nil)
		for i := 0; i < 2; i++ {
			req := httptest.NewRequest(http.MethodGet, "/page", nil)
			req.Header.Set(headerHave, digest)
			req.Header.Set(headerSame, "1")
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.String() != "<html>the page</html>" {
				t.Fatalf("visit %d: %d %q", i, rec.Code, rec.Body)
			}
		}
		// The first fetch offers nothing, whatever the client sent; the
		// second offers what the proxy itself holds.
		if len(seen) != 2 || seen[0] != "" || seen[1] != digest {
			t.Fatalf("origin saw offers %q, want none and then the proxy's own", seen)
		}
	})

	t.Run("no offer on HEAD or POST", func(t *testing.T) {
		var offers int
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(headerHave) != "" {
				offers++
			}
			refOrigin(tmpl.Binary{}, body).ServeHTTP(w, r)
		}))
		defer ts.Close()
		p := newTestProxy(t, ts.URL, nil)
		for _, method := range []string{http.MethodGet, http.MethodGet, http.MethodHead, http.MethodPost, http.MethodGet} {
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, httptest.NewRequest(method, "/page", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", method, rec.Code, rec.Body)
			}
		}
		if snap := p.Registry().Snapshot(); offers != 2 || snap["dpc.template_offers"] != 2 || snap["dpc.template_refs"] != 2 {
			t.Fatalf("origin saw %d offers; offers=%d refs=%d; want the second and third GET only", offers, snap["dpc.template_offers"], snap["dpc.template_refs"])
		}
	})
}

// The origin-fetch span says what was offered and what shape came back, the
// assemble span that the plan ran by reference; an offer the origin declined
// is an offer event with a full template after it.
func TestTemplateRefTraceEvents(t *testing.T) {
	body := templateBody(t, func(enc tmpl.Encoder) { _ = enc.Literal([]byte("<html>traced</html>")) })
	decline := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if decline {
			r.Header.Del(headerHave)
		}
		refOrigin(tmpl.Binary{}, body).ServeHTTP(w, r)
	}))
	defer ts.Close()
	p := newTestProxy(t, ts.URL, func(c *Config) { c.Trace, c.TraceSampleEvery = true, 1 })
	serve(t, p, "/page", "")
	serve(t, p, "/page", "")
	decline = true
	serve(t, p, "/page", "")

	traces := p.Tracer().Traces(0) // newest first
	if len(traces) != 3 {
		t.Fatalf("%d traces, want 3", len(traces))
	}
	for i, want := range []struct {
		offer       bool
		shape, plan string
		planKind    trace.Kind
	}{
		{true, "template", "hit", trace.KindHit}, // declined
		{true, "template-ref", "hit:ref", trace.KindHit},
		{false, "template", "compile", trace.KindMiss},
	} {
		fetch, asm := findChild(traces[i].Root, "origin-fetch"), findChild(traces[i].Root, "assemble")
		if hasEvent(fetch, trace.KindInfo, "origin", "offer") != want.offer ||
			!hasEvent(fetch, trace.KindInfo, "origin", want.shape) ||
			!hasEvent(asm, want.planKind, "plan", want.plan) {
			t.Fatalf("trace %d: want offer=%v shape %q plan %q; origin-fetch %+v assemble %+v", i, want.offer, want.shape, want.plan, fetch, asm)
		}
	}
}

// The hint table is its array: however many keys pass through, it is the
// same few hundred KiB, and what no longer fits is written over.
func TestHintTableFixedSizeAndOverwrite(t *testing.T) {
	if size := unsafe.Sizeof(hintTable{}); size > 512<<10 {
		t.Fatalf("hint table is %d bytes", size)
	}
	tab := newHintTable()
	digest := func(i int) tmplplan.Digest { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	if _, ok := tab.lookup("never recorded"); ok {
		t.Fatal("lookup of an unrecorded key hit")
	}
	// hintWays+1 keys of one bucket, recorded in order: the first is
	// written over, the others keep their digests.
	var keys []string
	_, bucket := tab.bucket("key 0")
	for i := 0; len(keys) <= hintWays; i++ {
		if _, b := tab.bucket(fmt.Sprint("key ", i)); b == bucket {
			keys = append(keys, fmt.Sprint("key ", i))
		}
	}
	for i, k := range keys {
		tab.record(k, digest(i))
	}
	if _, ok := tab.lookup(keys[0]); ok {
		t.Fatalf("%d keys live in a bucket of %d", len(keys), hintWays)
	}
	for i, k := range keys[1:] {
		if d, ok := tab.lookup(k); !ok || d != digest(i+1) {
			t.Fatalf("key %q: digest %x, %v", k, d, ok)
		}
	}
	// Recording a key again replaces its digest and displaces nobody.
	tab.record(keys[2], digest(99))
	if d, _ := tab.lookup(keys[2]); d != digest(99) {
		t.Fatal("re-recorded key kept its old digest")
	}
	if d, ok := tab.lookup(keys[1]); !ok || d != digest(1) {
		t.Fatal("re-recording one key displaced its neighbour")
	}
	// Many times the table's slots: it answers for recent keys and has
	// nowhere to have grown.
	const n = 8 * hintBuckets * hintWays
	for i := 0; i < n; i++ {
		tab.record(fmt.Sprint("flood ", i), digest(i))
	}
	if d, ok := tab.lookup(fmt.Sprint("flood ", n-1)); !ok || d != digest(n-1) {
		t.Fatal("the most recently recorded key is not in the table")
	}
}

// Concurrent record and lookup: a lookup returns a digest that was recorded
// for that key, whole, or nothing.
func TestHintTableConcurrent(t *testing.T) {
	tab := newHintTable()
	const workers, keys, rounds = 8, 64, 2000
	digest := func(k, v int) (d tmplplan.Digest) {
		for i := range d {
			d[i] = byte(k)
		}
		d[0] = byte(v)
		return d
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w) % keys
				key := fmt.Sprint("k", k)
				if w%2 == 0 {
					tab.record(key, digest(k, i))
					continue
				}
				if d, ok := tab.lookup(key); ok {
					for _, b := range d[1:] {
						if b != byte(k) {
							t.Errorf("key %d: torn or foreign digest %x", k, d)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
