package tmplplan

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
	"dpcache/internal/trace"
)

func lit(s string) tmpl.Instruction {
	return tmpl.Instruction{Op: tmpl.OpLiteral, Data: []byte(s)}
}
func get(k, g uint32) tmpl.Instruction { return tmpl.Instruction{Op: tmpl.OpGet, Key: k, Gen: g} }
func set(k, g uint32, s string) tmpl.Instruction {
	return tmpl.Instruction{Op: tmpl.OpSet, Key: k, Gen: g, Data: []byte(s)}
}
func inc(k, g uint32) tmpl.Instruction {
	return tmpl.Instruction{Op: tmpl.OpInclude, Key: k, Gen: g}
}

func encode(t testing.TB, c tmpl.Codec, ins []tmpl.Instruction) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tmpl.EncodeAll(c, &buf, ins); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func newStore(t testing.TB) fragstore.FragmentStore {
	t.Helper()
	st, err := fragstore.New(fragstore.Config{Backend: fragstore.BackendSlot, Capacity: 256})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	return st
}

func TestRefStringInterned(t *testing.T) {
	for _, tc := range [][2]uint32{{0, 0}, {1, 2}, {42, 7}, {1 << 31, 999999}, {4294967295, 4294967295}} {
		want := fmt.Sprintf("%d:%d", tc[0], tc[1])
		if got := RefString(tc[0], tc[1]); got != want {
			t.Fatalf("RefString(%d,%d) = %q, want %q", tc[0], tc[1], got, want)
		}
	}
	// Interned: the steady state allocates nothing.
	RefString(11, 22)
	if n := testing.AllocsPerRun(100, func() { RefString(11, 22) }); n != 0 {
		t.Fatalf("interned RefString allocated %v per call", n)
	}
}

func TestCompileAnalysis(t *testing.T) {
	codec := tmpl.Binary{}
	// GET 1 is independent; GET 2 follows a SET of key 2 (sequential);
	// the second GET 1 dedups into the same prefetch slot; everything
	// after the include is sequential.
	body := encode(t, codec, []tmpl.Instruction{
		lit("a"), get(1, 1), set(2, 1, "two"), get(2, 1), get(1, 1),
		inc(5, 1), get(3, 1),
	})
	p, err := Compile(codec, body)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops() != 7 {
		t.Fatalf("ops = %d, want 7", p.Ops())
	}
	if got := p.IndependentGets(); got != 1 {
		t.Fatalf("independent gets = %d, want 1 (only key 1)", got)
	}
	if !p.hasInc {
		t.Fatal("hasInc not set")
	}
	if p.SrcLen() != int64(len(body)) {
		t.Fatalf("SrcLen = %d, want %d", p.SrcLen(), len(body))
	}
	if p.Footprint() <= 0 {
		t.Fatal("footprint not positive")
	}
}

func TestRunHappyPath(t *testing.T) {
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		store := newStore(t)
		if err := store.Set(1, 1, []byte("ONE")); err != nil {
			t.Fatal(err)
		}
		body := encode(t, codec, []tmpl.Instruction{
			lit("["), get(1, 1), set(2, 1, "TWO"), get(2, 1), lit("]"),
		})
		p, err := Compile(codec, body)
		if err != nil {
			t.Fatal(err)
		}
		e := &Exec{Store: store, Strict: true, Codec: codec}
		var out bytes.Buffer
		st, err := e.Run(p, &out, nil)
		if err != nil {
			t.Fatalf("%s: run: %v", codec.Name(), err)
		}
		if got := out.String(); got != "[ONETWOTWO]" {
			t.Fatalf("%s: page = %q", codec.Name(), got)
		}
		if st.Gets != 2 || st.Sets != 1 || st.Literals != 2 {
			t.Fatalf("stats = %+v", st)
		}
		if st.TemplateBytes != int64(len(body)) {
			t.Fatalf("TemplateBytes = %d, want %d", st.TemplateBytes, len(body))
		}
		wantRefs := []Ref{{1, 1}, {2, 1}}
		if len(st.Refs) != 2 || st.Refs[0] != wantRefs[0] || st.Refs[1] != wantRefs[1] {
			t.Fatalf("refs = %v, want %v", st.Refs, wantRefs)
		}
	}
}

func TestRunStaleDoomsOutputButAppliesSets(t *testing.T) {
	codec := tmpl.Binary{}
	store := newStore(t)
	body := encode(t, codec, []tmpl.Instruction{
		lit("head"), get(9, 3), lit("never"), set(5, 1, "X"), get(8, 1),
	})
	p, err := Compile(codec, body)
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{Store: store, Strict: true, Codec: codec}
	var out bytes.Buffer
	st, err := e.Run(p, &out, nil)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	want := fmt.Sprintf("%v (first: key 9 gen 3, 2 total)", ErrStale)
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	if got := out.String(); got != "head" {
		t.Fatalf("page = %q, want output suppressed after first stale", got)
	}
	if len(st.Stale) != 2 || st.Stale[0] != (Ref{9, 3}) || st.Stale[1] != (Ref{8, 1}) {
		t.Fatalf("stale = %v", st.Stale)
	}
	// The SET after the doom still landed.
	if data, ok := store.Get(5, 1, true); !ok || string(data) != "X" {
		t.Fatalf("doomed SET not applied: %q %v", data, ok)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	codec := tmpl.Binary{}
	store := newStore(t)
	var ins []tmpl.Instruction
	for k := uint32(1); k <= 6; k++ {
		if k != 4 { // key 4 left unset: staleness must surface identically
			if err := store.Set(k, 1, []byte(fmt.Sprintf("<%d>", k))); err != nil {
				t.Fatal(err)
			}
		}
		ins = append(ins, lit("|"), get(k, 1))
	}
	p, err := Compile(codec, encode(t, codec, ins))
	if err != nil {
		t.Fatal(err)
	}
	if p.IndependentGets() != 6 {
		t.Fatalf("independent gets = %d", p.IndependentGets())
	}
	seq := &Exec{Store: store, Strict: true, Codec: codec, Parallelism: 1}
	par := &Exec{Store: store, Strict: true, Codec: codec, Parallelism: 8}
	var outSeq, outPar bytes.Buffer
	stSeq, errSeq := seq.Run(p, &outSeq, nil)
	stPar, errPar := par.Run(p, &outPar, nil)
	if (errSeq == nil) != (errPar == nil) || !errors.Is(errPar, ErrStale) {
		t.Fatalf("errs diverge: seq=%v par=%v", errSeq, errPar)
	}
	if errSeq.Error() != errPar.Error() {
		t.Fatalf("error text diverges: %q vs %q", errSeq, errPar)
	}
	if outSeq.String() != outPar.String() {
		t.Fatalf("bytes diverge: %q vs %q", outSeq.String(), outPar.String())
	}
	if stSeq.ParallelGets != 0 || stPar.ParallelGets != 6 {
		t.Fatalf("ParallelGets: seq=%d par=%d", stSeq.ParallelGets, stPar.ParallelGets)
	}
	stPar.ParallelGets = stSeq.ParallelGets
	if fmt.Sprintf("%+v", stSeq) != fmt.Sprintf("%+v", stPar) {
		t.Fatalf("stats diverge:\nseq %+v\npar %+v", stSeq, stPar)
	}
}

func TestRunInclude(t *testing.T) {
	codec := tmpl.Text{}
	store := newStore(t)
	nested := encode(t, codec, []tmpl.Instruction{lit("("), get(1, 1), lit(")")})
	if err := store.Set(1, 1, []byte("leaf")); err != nil {
		t.Fatal(err)
	}
	if err := store.Set(10, 2, nested); err != nil {
		t.Fatal(err)
	}
	body := encode(t, codec, []tmpl.Instruction{lit("A"), inc(10, 2), lit("B")})
	p, err := Compile(codec, body)
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{Store: store, Strict: true, Codec: codec}
	var out bytes.Buffer
	st, err := e.Run(p, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "A(leaf)B" {
		t.Fatalf("page = %q", got)
	}
	if st.Includes != 1 {
		t.Fatalf("includes = %d", st.Includes)
	}
	// Refs span the include boundary in first-use order.
	if len(st.Refs) != 2 || st.Refs[0] != (Ref{10, 2}) || st.Refs[1] != (Ref{1, 1}) {
		t.Fatalf("refs = %v", st.Refs)
	}
	// TemplateBytes counts only the top-level body, as the interpreter does.
	if st.TemplateBytes != int64(len(body)) {
		t.Fatalf("TemplateBytes = %d, want %d", st.TemplateBytes, len(body))
	}
}

func TestRunIncludeDepthLimit(t *testing.T) {
	codec := tmpl.Binary{}
	store := newStore(t)
	// Slot 10 includes itself: recursion must stop at MaxIncludeDepth.
	self := encode(t, codec, []tmpl.Instruction{inc(10, 1)})
	if err := store.Set(10, 1, self); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(codec, self)
	if err != nil {
		t.Fatal(err)
	}
	e := &Exec{Store: store, Codec: codec}
	_, err = e.Run(p, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("include depth exceeds %d", MaxIncludeDepth)) {
		t.Fatalf("err = %v", err)
	}
}

func TestCacheHitMissCompile(t *testing.T) {
	codec := tmpl.Binary{}
	c, err := NewCache(codec, CacheConfig{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	body := encode(t, codec, []tmpl.Instruction{lit("x"), get(1, 1)})
	p1, hit, err := c.Get(body)
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.Get(body)
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Fatal("hit returned a different plan instance")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != p1.Footprint() {
		t.Fatalf("bytes = %d, want footprint %d", st.Bytes, p1.Footprint())
	}
	// A corrupt template is never cached: both lookups miss, neither
	// compiles.
	corrupt := []byte{0x01, 'D', 'P', 'C', 0xFF}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(corrupt); err == nil {
			t.Fatal("corrupt template compiled")
		}
	}
	st = c.Stats()
	if st.Misses != 3 || st.Compiles != 1 {
		t.Fatalf("after corrupt: %+v", st)
	}
}

// Lookup finds a resident plan by its template's digest and counts nothing
// until the caller says the plan ran; a one-off has a digest and no
// residence, and a flushed plan is gone.
func TestCacheLookupByDigest(t *testing.T) {
	codec := tmpl.Binary{}
	c, err := NewCache(codec, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	body := encode(t, codec, []tmpl.Instruction{lit("x"), get(1, 1)})
	kept, _, err := c.Get(body)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Digest() != Digest(sha256.Sum256(body)) {
		t.Fatalf("digest %x is not the template's SHA-256", kept.Digest())
	}
	if got := c.Lookup(kept.Digest()); got != kept {
		t.Fatalf("Lookup = %p, want the resident plan %p", got, kept)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("Lookup moved the counters: %+v", st)
	}
	c.CountHit()
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 {
		t.Fatalf("after CountHit: %+v", st)
	}

	oneOff, _, err := c.Get(encode(t, codec, []tmpl.Instruction{set(2, 1, "v")}))
	if err != nil {
		t.Fatal(err)
	}
	if oneOff.Digest() == (Digest{}) || c.Lookup(oneOff.Digest()) != nil {
		t.Fatal("a one-off has a digest and no residence")
	}
	c.Store().Flush()
	if c.Lookup(kept.Digest()) != nil {
		t.Fatal("Lookup found a flushed plan")
	}
}

// The plan cache spends its budget only on templates that can come back. A
// template carrying a SET is a one-off — the SET is what makes the origin
// send a GET next time — so it is compiled and returned on every Get and
// never resident; its GET-only successor is resident after one Get and
// hits on the second. (Named for the CI step that runs the allocation
// budgets: retaining one-offs is what cost 21 MiB of live heap.)
func TestAllocBudgetPlanCacheKeepsOnlyRecurringTemplates(t *testing.T) {
	codec := tmpl.Binary{}
	c, err := NewCache(codec, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oneOff := encode(t, codec, []tmpl.Instruction{lit("<p>"), set(1, 1, strings.Repeat("content ", 512)), get(2, 1)})
	for i := int64(1); i <= 3; i++ {
		p, hit, err := c.Get(oneOff)
		if err != nil || hit || p == nil || !p.OneOff() {
			t.Fatalf("Get %d of a template with a SET: plan=%v hit=%v err=%v, want a one-off plan and a miss", i, p, hit, err)
		}
		if st := c.Stats(); st.Resident != 0 || st.Bytes != 0 || st.Misses != i || st.Compiles != i || st.Hits != 0 {
			t.Fatalf("after Get %d of a template with a SET: %+v, want nothing resident, %d misses and compiles", i, st, i)
		}
	}
	successor := encode(t, codec, []tmpl.Instruction{lit("<p>"), get(1, 1), get(2, 1)})
	p1, hit, err := c.Get(successor)
	if err != nil || hit || p1.OneOff() {
		t.Fatalf("first Get of the GET-only successor: hit=%v err=%v one-off=%v", hit, err, p1.OneOff())
	}
	if st := c.Stats(); st.Resident != 1 || st.Bytes != p1.Footprint() {
		t.Fatalf("after one Get of the GET-only successor: %+v, want it resident at %d B", st, p1.Footprint())
	}
	if p2, hit, err := c.Get(successor); err != nil || !hit || p2 != p1 {
		t.Fatalf("second Get of the GET-only successor: hit=%v err=%v same plan=%v", hit, err, p2 == p1)
	}
}

// A plan owns the bytes it emits and stores: the buffer its template was
// read into can be reused the moment Cache.Get returns, which is what lets
// the proxy read templates into a pooled buffer.
func TestPlanOutlivesTemplateBuffer(t *testing.T) {
	for _, codec := range []tmpl.Codec{tmpl.Binary{}, tmpl.Text{}} {
		c, err := NewCache(codec, CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			ins  []tmpl.Instruction
		}{
			{"cached", []tmpl.Instruction{lit("<html>"), get(1, 1), lit("</html>")}},
			{"one-off", []tmpl.Instruction{lit("<html>"), set(1, 1, "ONE"), lit("</html>")}},
		} {
			store := newStore(t)
			if err := store.Set(1, 1, []byte("ONE")); err != nil {
				t.Fatal(err)
			}
			buf := encode(t, codec, tc.ins)
			p, _, err := c.Get(buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = '!' // the next request's template lands here
			}
			e := &Exec{Store: store, Strict: true, Codec: codec, Plans: c}
			var out bytes.Buffer
			if _, err := e.Run(p, &out, nil); err != nil || out.String() != "<html>ONE</html>" {
				t.Fatalf("%s/%s: page = %q, err = %v after the template buffer was overwritten", codec.Name(), tc.name, out.String(), err)
			}
			if got, ok := store.Get(1, 1, true); !ok || string(got) != "ONE" {
				t.Fatalf("%s/%s: slot 1 holds %q after the run", codec.Name(), tc.name, got)
			}
		}
	}
}

// TestStormCompileExecuteInvalidate races plan compilation, execution
// (sequential and parallel), fragment rewrites, fragment drops, and
// whole-tier plan flushes; run under -race. Every execution must end in
// a clean page or ErrStale — never a torn state or decode error.
func TestStormCompileExecuteInvalidate(t *testing.T) {
	codec := tmpl.Binary{}
	store := newStore(t)
	cache, err := NewCache(codec, CacheConfig{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	nested := encode(t, codec, []tmpl.Instruction{lit("("), get(1, 1), lit(")")})
	for k := uint32(1); k <= 8; k++ {
		if err := store.Set(k, 1, []byte(fmt.Sprintf("<%d>", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Set(20, 1, nested); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < 4; i++ {
		ins := []tmpl.Instruction{lit(fmt.Sprintf("t%d:", i))}
		for k := uint32(1); k <= 8; k++ {
			ins = append(ins, get(k, 1))
		}
		ins = append(ins, set(uint32(30+i), 1, "s"), inc(20, 1))
		bodies = append(bodies, encode(t, codec, ins))
	}
	ex := &Exec{Store: store, Codec: codec, Plans: cache, Parallelism: 4, MinParallelGets: 2}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p, _, err := cache.Get(bodies[(w+i)%len(bodies)])
				if err != nil {
					t.Errorf("compile: %v", err)
					return
				}
				if _, err := ex.Run(p, io.Discard, nil); err != nil && !errors.Is(err, ErrStale) {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			k := uint32(1 + i%8)
			store.Drop(k)
			_ = store.Set(k, 1, []byte("fresh"))
			if i%50 == 0 {
				cache.Store().Flush()
			}
		}
	}()
	wg.Wait()
}

func BenchmarkRefString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = RefString(uint32(i%512), 7)
	}
}

func BenchmarkRefSprintf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("%d:%d", uint32(i%512), 7)
	}
}

// TestTierEventsOnFragmentSpans: over the tiered store a traced run
// records, on the fragment span that caused it, what a disk hit came to —
// served in place on a first touch, promoted on the second — and what
// became of the RAM victims a promotion displaced, through the sequential
// walk and the parallel prefetch alike; an untraced read asks for none of
// it.
func TestTierEventsOnFragmentSpans(t *testing.T) {
	codec := tmpl.Binary{}
	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			store, err := fragstore.New(fragstore.Config{
				Backend: fragstore.BackendTiered, Capacity: 16, Eviction: "lru",
				ByteBudget: 16, // two 8-byte fragments
				DiskPath:   filepath.Join(t.TempDir(), "tier.heap"),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer store.(io.Closer).Close()
			var ins []tmpl.Instruction
			for k := uint32(1); k <= 4; k++ {
				if err := store.Set(k, 1, []byte(fmt.Sprintf("frag%04d", k))); err != nil {
					t.Fatal(err)
				}
				ins = append(ins, get(k, 1))
			}
			p, err := Compile(codec, encode(t, codec, ins))
			if err != nil {
				t.Fatal(err)
			}
			e := &Exec{Store: store, Strict: true, Codec: codec, Parallelism: parallelism, MinParallelGets: 2}
			tr := trace.New(trace.Config{SampleEvery: 1})
			tierEventsOf := func() map[string]int64 {
				t.Helper()
				root := tr.StartRequest("GET /page", "")
				if _, err := e.Run(p, io.Discard, root); err != nil {
					t.Fatal(err)
				}
				root.Finish()
				got := make(map[string]int64)
				for _, span := range tr.Traces(0)[0].Root.Children {
					for _, ev := range span.Events {
						if ev.Kind != trace.KindTier {
							continue
						}
						if span.Name != "fragment" || ev.Tier != "disk" {
							t.Fatalf("tier event %+v on span %q", ev, span.Name)
						}
						got[ev.Note] += ev.N
					}
				}
				return got
			}
			// The Sets left fragments 1 and 2 on disk only and 3 and 4 in RAM
			// only, at the cost of two writes that no read caused.
			setup, _ := fragstore.DiskStats(store)
			first, second, third := tierEventsOf(), tierEventsOf(), tierEventsOf()
			if parallelism == 1 {
				// In walk order: the first pass meets 1 and 2 on disk for the
				// first time with RAM full, and serves them where they are.
				// The second meets them again: each is promoted and displaces
				// 3, then 4, with a first-time write; 3 and 4, now on disk
				// only, are in turn served in place. The third promotes 3 and
				// 4 over 1 and 2, whose disk copies are still there: clean.
				want := []map[string]int64{
					{"serve-in-place": 2},
					{"promote": 2, "demote-write": 2, "serve-in-place": 2},
					{"promote": 2, "demote-clean": 2},
				}
				for i, got := range []map[string]int64{first, second, third} {
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("pass %d: tier events %v, want %v", i+1, got, want[i])
					}
				}
			}
			// With four workers the split depends on the schedule: which of
			// two reads the disk tier counts first decides whether the other
			// is a second touch within the window, a RAM hit that lands
			// between a promotion's insert and the eviction it owes changes
			// the victim, and two workers relieving at once can evict one
			// entry more than they inserted. What holds on every schedule: 1
			// and 2 can only come from disk, 3 and 4 are written at most once
			// each, and every crossing the store counted is on a fragment
			// span.
			if first["promote"]+first["serve-in-place"] < 2 {
				t.Fatalf("first pass: tier events %v; fragments 1 and 2 were on disk only", first)
			}
			sum := func(note string) int64 { return first[note] + second[note] + third[note] }
			ts, _ := fragstore.DiskStats(store)
			if writes := sum("demote-write"); writes > 2 || writes != ts.Demotions-setup.Demotions {
				t.Fatalf("spans recorded %d writes, the store counted %d since set-up; at most 2 fragments lacked a disk copy",
					writes, ts.Demotions-setup.Demotions)
			}
			if n := sum("demote-clean"); n != ts.CleanEvictions-setup.CleanEvictions {
				t.Fatalf("spans recorded %d clean evictions, the store counted %d", n, ts.CleanEvictions-setup.CleanEvictions)
			}
			if n := sum("promote"); n != ts.Promotions {
				t.Fatalf("spans recorded %d promotions, the store counted %d", n, ts.Promotions)
			}
			if n := sum("serve-in-place"); n != ts.ServedInPlace || ts.DiskHits != ts.Promotions+ts.ServedInPlace {
				t.Fatalf("spans recorded %d in-place serves, the store counted %d of %d disk hits with %d promotions",
					n, ts.ServedInPlace, ts.DiskHits, ts.Promotions)
			}
		})
	}
	store, err := fragstore.New(fragstore.Config{
		Backend: fragstore.BackendTiered, Capacity: 16, Eviction: "lru", ByteBudget: 64,
		DiskPath: filepath.Join(t.TempDir(), "hot.heap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.(io.Closer).Close()
	store.Set(1, 1, []byte("resident"))
	if n := testing.AllocsPerRun(100, func() { GetRef(store, nil, 1, 1, true) }); n != 0 {
		t.Fatalf("untraced GetRef allocated %v per call", n)
	}
}
