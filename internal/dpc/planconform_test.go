package dpc

// Conformance suite for the assembly engine: both of internal/tmplplan's
// drivers — a cached plan and the streamed decode — must be byte-, stats-,
// error-text- and SET-side-effect-identical to the reference interpreter
// (internal/tmplplan/plantest) for every template shape, across both
// codecs.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
	"dpcache/internal/tmplplan/plantest"
	"dpcache/internal/trace"
)

// seedFrag is a fragment pre-loaded into the store before a conformance run.
type seedFrag struct {
	key, gen uint32
	content  []byte
}

// confCase is one golden template: instructions plus the store state it
// runs against. Nested include bodies are encoded per codec via nest.
type confCase struct {
	name string
	ins  []tmpl.Instruction
	seed []seedFrag
	// nest maps an include key to the instructions of the nested
	// template stored under it (encoded per codec at seed time).
	nest map[uint32][]tmpl.Instruction
	// checkSets lists key/gen pairs whose post-run store content must
	// match between the two paths (SET side effects, incl. doomed runs).
	checkSets []StaleRef
	// tail is appended raw to the encoded template: a tag with an unknown
	// verb in each codec's framing, which makes the template corrupt, so
	// that no plan compiles and only the streamed driver runs.
	tail []byte
}

func conformanceCases() []confCase {
	big := bytes.Repeat([]byte("x"), 4096)
	return []confCase{
		{name: "empty"},
		{name: "literal-only", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("<html>static</html>")},
		}},
		{name: "set-then-get", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("<a>")},
			{Op: tmpl.OpSet, Key: 3, Gen: 9, Data: []byte("FRAG")},
			{Op: tmpl.OpGet, Key: 3, Gen: 9},
			{Op: tmpl.OpLiteral, Data: []byte("</a>")},
		}, checkSets: []StaleRef{{Key: 3, Gen: 9}}},
		{name: "independent-gets", ins: []tmpl.Instruction{
			{Op: tmpl.OpGet, Key: 1, Gen: 1},
			{Op: tmpl.OpLiteral, Data: []byte("|")},
			{Op: tmpl.OpGet, Key: 2, Gen: 1},
			{Op: tmpl.OpLiteral, Data: []byte("|")},
			{Op: tmpl.OpGet, Key: 3, Gen: 1},
			{Op: tmpl.OpGet, Key: 4, Gen: 1},
			{Op: tmpl.OpGet, Key: 5, Gen: 1},
			{Op: tmpl.OpGet, Key: 1, Gen: 1}, // dup ref dedups
		}, seed: []seedFrag{
			{1, 1, []byte("one")}, {2, 1, []byte("two")}, {3, 1, []byte("three")},
			{4, 1, big}, {5, 1, []byte("five")},
		}},
		{name: "stale-dooms-but-sets-land", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("head")},
			{Op: tmpl.OpGet, Key: 9, Gen: 3}, // unset: first stale
			{Op: tmpl.OpLiteral, Data: []byte("never")},
			{Op: tmpl.OpSet, Key: 5, Gen: 1, Data: []byte("landed")},
			{Op: tmpl.OpGet, Key: 8, Gen: 1}, // second stale
		}, checkSets: []StaleRef{{Key: 5, Gen: 1}}},
		{name: "strict-gen-mismatch", ins: []tmpl.Instruction{
			{Op: tmpl.OpGet, Key: 2, Gen: 7},
		}, seed: []seedFrag{{2, 6, []byte("old-gen")}}},
		{name: "nested-includes", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("A")},
			{Op: tmpl.OpInclude, Key: 20, Gen: 1},
			{Op: tmpl.OpGet, Key: 1, Gen: 1},
		}, seed: []seedFrag{{1, 1, []byte("leaf")}},
			nest: map[uint32][]tmpl.Instruction{
				20: {
					{Op: tmpl.OpLiteral, Data: []byte("(")},
					{Op: tmpl.OpInclude, Key: 21, Gen: 1},
					{Op: tmpl.OpSet, Key: 6, Gen: 2, Data: []byte("nested-set")},
					{Op: tmpl.OpLiteral, Data: []byte(")")},
				},
				21: {
					{Op: tmpl.OpGet, Key: 1, Gen: 1},
				},
			}, checkSets: []StaleRef{{Key: 6, Gen: 2}}},
		{name: "include-stale", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("A")},
			{Op: tmpl.OpInclude, Key: 20, Gen: 5}, // unset include slot
			{Op: tmpl.OpSet, Key: 7, Gen: 1, Data: []byte("after")},
		}, checkSets: []StaleRef{{Key: 7, Gen: 1}}},
		{name: "corrupt-tail-after-set", ins: []tmpl.Instruction{
			{Op: tmpl.OpLiteral, Data: []byte("head")},
			{Op: tmpl.OpSet, Key: 4, Gen: 2, Data: []byte("prefix-set")},
		}, tail: append(append([]byte("<dpc:zz "), tmpl.Magic...), 'Q'),
			checkSets: []StaleRef{{Key: 4, Gen: 2}}},
		{name: "include-doomed-sets-still-land", ins: []tmpl.Instruction{
			{Op: tmpl.OpGet, Key: 9, Gen: 9}, // dooms the page up front
			{Op: tmpl.OpInclude, Key: 20, Gen: 1},
		}, nest: map[uint32][]tmpl.Instruction{
			20: {{Op: tmpl.OpSet, Key: 8, Gen: 4, Data: []byte("doomed-include-set")}},
		}, checkSets: []StaleRef{{Key: 8, Gen: 4}}},
	}
}

func seedConformance(t *testing.T, s *Store, codec tmpl.Codec, tc confCase) {
	t.Helper()
	for _, f := range tc.seed {
		if err := s.Set(f.key, f.gen, f.content); err != nil {
			t.Fatal(err)
		}
	}
	for key, ins := range tc.nest {
		// The include gen is whatever the template references; store
		// them under every gen the case uses (strict lookups must hit).
		for _, in := range append(append([]tmpl.Instruction{}, tc.ins...), flattenNest(tc.nest)...) {
			if in.Op == tmpl.OpInclude && in.Key == key {
				if err := s.Set(key, in.Gen, encodeTemplate(t, codec, ins)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func flattenNest(nest map[uint32][]tmpl.Instruction) []tmpl.Instruction {
	var out []tmpl.Instruction
	for _, ins := range nest {
		out = append(out, ins...)
	}
	return out
}

func TestPlanConformance(t *testing.T) {
	// driver runs one of the engine's drivers over body against store.
	type driver struct {
		name string
		run  func(t *testing.T, codec tmpl.Codec, store *Store, body []byte, w *bytes.Buffer) (AssembleStats, error)
	}
	// cached runs a plan resolved through the cache, as the proxy runs
	// them. Exec.Parallelism selects nothing; the 8 holds the field the
	// benchmark's probe sets to the oracle on every shape.
	cached := func(parallelism int) driver {
		return driver{fmt.Sprintf("par%d", parallelism), func(t *testing.T, codec tmpl.Codec, store *Store, body []byte, w *bytes.Buffer) (AssembleStats, error) {
			cache, err := tmplplan.NewCache(codec, tmplplan.CacheConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ex := &tmplplan.Exec{
				Store: store, Strict: true, Codec: codec,
				Plans: cache, Parallelism: parallelism,
			}
			plan, _, err := cache.Get(body)
			if err != nil {
				t.Skipf("no plan compiles (%v): the streamed driver owns this case", err)
			}
			return ex.Run(plan, w, nil)
		}}
	}
	streamed := driver{"streamed", func(t *testing.T, codec tmpl.Codec, store *Store, body []byte, w *bytes.Buffer) (AssembleStats, error) {
		ex := &tmplplan.Exec{Store: store, Strict: true, Codec: codec}
		return ex.RunStream(bytes.NewReader(body), w, nil)
	}}
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		for _, drv := range []driver{cached(1), cached(8), streamed} {
			for _, tc := range conformanceCases() {
				name := fmt.Sprintf("%s/%s/%s", codec.Name(), drv.name, tc.name)
				t.Run(name, func(t *testing.T) {
					body := append(encodeTemplate(t, codec, tc.ins), tc.tail...)

					// Oracle: the reference interpreter on its own store.
					oracleStore, _ := NewStore(64)
					seedConformance(t, oracleStore, codec, tc)
					asm := plantest.NewAssembler(oracleStore, codec, true)
					var wantPage bytes.Buffer
					wantStats, wantErr := asm.Assemble(&wantPage, bytes.NewReader(body))
					if (len(tc.tail) > 0) != errors.Is(wantErr, tmpl.ErrCorrupt) {
						t.Fatalf("oracle error = %v; corrupt tail: %v", wantErr, len(tc.tail) > 0)
					}

					// The engine on an identically seeded store.
					engineStore, _ := NewStore(64)
					seedConformance(t, engineStore, codec, tc)
					var gotPage bytes.Buffer
					gotStats, gotErr := drv.run(t, codec, engineStore, body, &gotPage)

					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("errors diverge: oracle=%v engine=%v", wantErr, gotErr)
					}
					if wantErr != nil && wantErr.Error() != gotErr.Error() {
						t.Fatalf("error text diverges:\noracle %q\nengine %q", wantErr, gotErr)
					}
					if !bytes.Equal(wantPage.Bytes(), gotPage.Bytes()) {
						t.Fatalf("pages diverge:\noracle %q\nengine %q", wantPage.String(), gotPage.String())
					}
					if fmt.Sprintf("%+v", wantStats) != fmt.Sprintf("%+v", gotStats) {
						t.Fatalf("stats diverge:\noracle %+v\nengine %+v", wantStats, gotStats)
					}
					for _, ref := range tc.checkSets {
						w, wok := oracleStore.Get(ref.Key, ref.Gen, true)
						g, gok := engineStore.Get(ref.Key, ref.Gen, true)
						if wok != gok || !bytes.Equal(w, g) {
							t.Fatalf("SET side effects diverge at %d:%d: oracle (%q,%v) engine (%q,%v)",
								ref.Key, ref.Gen, w, wok, g, gok)
						}
					}
				})
			}
		}
	}
}

// The plan cache end to end: a GET-only template, the kind that repeats,
// hits it from the second request on, and the plancache counters and
// /_dpc/stats section move.
func TestPlanCachePipeline(t *testing.T) {
	tmplBody := templateBody(t, func(enc tmpl.Encoder) {
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Get(1, 1)
		_ = enc.Get(1, 1)
		_ = enc.Literal([]byte("</html>"))
	})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-DPC-Template", "binary")
		_, _ = w.Write(tmplBody)
	}))
	defer origin.Close()

	p := newTestProxy(t, origin.URL, nil)
	if err := p.Store().Set(1, 1, []byte("planned page")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	defer ts.Close()

	const want = "<html>planned pageplanned page</html>"
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/page")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != want {
			t.Fatalf("request %d: body = %q, want %q", i, body, want)
		}
	}
	snap := p.Registry().Snapshot()
	if snap["dpc.plancache_misses"] != 1 || snap["dpc.plancache_compiles"] != 1 {
		t.Fatalf("misses=%d compiles=%d, want 1/1", snap["dpc.plancache_misses"], snap["dpc.plancache_compiles"])
	}
	if snap["dpc.plancache_hits"] != 2 || snap["dpc.plancache_oneoff"] != 0 {
		t.Fatalf("hits = %d, one-offs = %d, want 2 and 0", snap["dpc.plancache_hits"], snap["dpc.plancache_oneoff"])
	}
	if st := p.Plans().Stats(); st.Resident != 1 || st.Compiles != 1 {
		t.Fatalf("plan cache stats = %+v", st)
	}

	// The stats endpoint serves the plancache section.
	resp, err := http.Get(ts.URL + "/_dpc/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stats), `"plancache"`) {
		t.Fatal("/_dpc/stats missing plancache section")
	}
}

// A HEAD request for a template response must produce an empty body with
// the same headers — assembly still runs (SETs land).
func TestPlanCacheHeadEmptyBody(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		enc := tmpl.Binary{}.NewEncoder(&buf)
		_ = enc.Set(2, 5, []byte("head-set"))
		_ = enc.Flush()
		w.Header().Set("X-DPC-Template", "binary")
		if r.Method != http.MethodHead {
			_, _ = w.Write(buf.Bytes())
		}
	}))
	defer origin.Close()
	p := newTestProxy(t, origin.URL, nil)
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := http.Head(ts.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD: status %d body %q", resp.StatusCode, body)
	}
}

// roundTripFunc is a fake origin at the transport seam.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// templateTransport answers every request with a binary template whose body
// is whatever body() reads as, of undeclared length.
func templateTransport(body func() io.ReadCloser) roundTripFunc {
	return func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK, ContentLength: -1, Request: r, Body: body(),
			Header: http.Header{"X-Dpc-Template": {"binary"}},
		}, nil
	}
}

// matchWriter is a response writer that checks the body against want as it
// arrives, holding none of it, and samples the live heap as it goes.
type matchWriter struct {
	h        http.Header
	want     io.Reader
	scratch  []byte
	n        int64
	diverged bool
	peakHeap uint64
}

func (m *matchWriter) Header() http.Header { return m.h }
func (m *matchWriter) WriteHeader(int)     {}
func (m *matchWriter) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0 && !m.diverged; {
		k, err := m.want.Read(m.scratch[:min(len(m.scratch), len(rest))])
		if !bytes.Equal(m.scratch[:k], rest[:k]) || (k == 0 && err != nil) {
			m.diverged = true
		}
		rest = rest[k:]
	}
	m.n += int64(len(b))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.peakHeap = max(m.peakHeap, ms.HeapAlloc)
	return len(b), nil
}

// What cannot be a cached plan runs through the engine's streamed driver:
// the SETs ahead of the failure land, the failure surfaces as the decoder
// met it, nothing enters the plan cache, and the assembly is still counted
// once (a miss, no compile) and named in the assemble span's plan event.
func TestPlanCacheFallback(t *testing.T) {
	prefix := templateBody(t, func(enc tmpl.Encoder) {
		_ = enc.Literal([]byte("<html>"))
		_ = enc.Set(4, 2, []byte("prefix-set"))
	})
	errTorn := errors.New("origin connection torn")

	// The oversized template: SETs of one slot at rising generations, 1 MiB
	// each, then a GET of the last. It is several times planMaxTemplate,
	// its largest instruction is 1 MiB, and it is generated as it is read
	// so the test holds none of it either.
	const sets = 6 * planMaxTemplate >> 20
	content := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	oversized := func() io.ReadCloser {
		pr, pw := io.Pipe()
		go func() {
			enc := tmpl.Binary{}.NewEncoder(pw)
			_ = enc.Literal([]byte("<html>"))
			for g := uint32(1); g <= sets; g++ {
				_ = enc.Set(4, g+1, content)
			}
			_ = enc.Get(4, sets+1)
			_ = enc.Literal([]byte("</html>"))
			pw.CloseWithError(enc.Flush())
		}()
		return pr // closing the body stops the generator
	}
	wantOversized := func() io.Reader {
		parts := []io.Reader{strings.NewReader("<html>")}
		for i := 0; i < sets+1; i++ {
			parts = append(parts, bytes.NewReader(content))
		}
		return io.MultiReader(append(parts, strings.NewReader("</html>"))...)
	}

	for _, tc := range []struct {
		name string
		body func() io.ReadCloser
		why  string
		// wantErr is what the assembly's error must wrap; nil for success.
		wantErr error
		setGen  uint32 // generation slot 4 must hold afterwards
	}{
		{name: "corrupt", why: "streamed:corrupt", wantErr: tmpl.ErrCorrupt, setGen: 2,
			body: func() io.ReadCloser { // an unknown op byte after the SET
				return io.NopCloser(bytes.NewReader(append(append(append([]byte{}, prefix...), tmpl.Magic...), 'Q')))
			}},
		{name: "read-error", why: "streamed:read-error", wantErr: errTorn, setGen: 2,
			body: func() io.ReadCloser {
				return io.NopCloser(io.MultiReader(bytes.NewReader(prefix), errReader{errTorn}))
			}},
		{name: "oversized", why: "streamed:oversized", setGen: sets + 1, body: oversized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestProxy(t, "http://origin.invalid", func(c *Config) {
				c.Transport = templateTransport(tc.body)
				c.Stream = true // the default 64 KiB spool
				c.Trace, c.TraceSampleEvery = true, 1
			})
			req := httptest.NewRequest(http.MethodGet, "/page", nil)
			if tc.wantErr != nil {
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, req)
				if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), tc.wantErr.Error()) {
					t.Fatalf("response = %d %q, want a 502 naming %q", rec.Code, rec.Body.String(), tc.wantErr)
				}
			} else {
				// A page many times the spool streams; live memory must stay
				// near the spool, the buffered template prefix (twice
				// planMaxTemplate while io.ReadAll grows it) and one
				// instruction — far from the template's size. (Cumulative
				// allocation cannot show that: the decoder hands every
				// instruction over in a fresh slice, so any engine allocates
				// at least the template's size in total.)
				defer debug.SetGCPercent(debug.SetGCPercent(20))
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				w := &matchWriter{h: http.Header{}, want: wantOversized(), scratch: make([]byte, 32<<10)}
				p.ServeHTTP(w, req)
				if extra, _ := w.want.Read(w.scratch); w.diverged || extra != 0 {
					t.Fatalf("page diverged from the expected bytes (%d bytes written)", w.n)
				}
				const templateBytes = sets << 20
				if grew := int64(w.peakHeap) - int64(ms.HeapAlloc); grew > templateBytes/2 {
					t.Fatalf("live heap grew %d MiB assembling a %d MiB template", grew>>20, templateBytes>>20)
				}
				if n := p.Registry().Snapshot()["dpc.streamed"]; n != 1 {
					t.Fatalf("dpc.streamed = %d, want 1", n)
				}
			}
			if _, ok := p.Store().Get(4, tc.setGen, true); !ok {
				t.Fatalf("SET 4:%d did not land", tc.setGen)
			}
			if st := p.Plans().Stats(); st.Resident != 0 || st.Compiles != 0 {
				t.Fatalf("plan cache = %+v, want nothing compiled or resident", st)
			}
			snap := p.Registry().Snapshot()
			if snap["dpc.plancache_misses"] != 1 || snap["dpc.plancache_hits"] != 0 || snap["dpc.plancache_compiles"] != 0 {
				t.Fatalf("plan counters hits=%d misses=%d compiles=%d, want one miss",
					snap["dpc.plancache_hits"], snap["dpc.plancache_misses"], snap["dpc.plancache_compiles"])
			}
			traces := p.Tracer().Traces(0)
			if len(traces) != 1 || !hasEvent(findChild(traces[0].Root, "assemble"), trace.KindMiss, "plan", tc.why) {
				t.Fatalf("assemble span carries no plan event %q: %+v", tc.why, traces)
			}
			if tc.wantErr != nil {
				// The error the assemble stage hands the runner wraps the cause.
				if _, err := p.assemble(io.Discard, tc.body(), -1, &reqState{}); !errors.Is(err, tc.wantErr) {
					t.Fatalf("assemble error = %v, want one wrapping %v", err, tc.wantErr)
				}
			}
		})
	}
}
