package dpc_test

// The one-tier design against the two-tier one it replaced: a seeded list
// of requests and invalidations is replayed through an in-process origin
// and proxy, and every response is compared with the one recorded at the
// parent commit, where a static tier and a page tier each had a store, a
// stage and a subscriber. testdata/tier_replay.golden was recorded there
// (with the static tier's expiry clock set to the same fake clock) by
// running this test with DPC_REPLAY_RECORD naming the output file.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/coherency"
	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/tmpl"
)

const replayGolden = "testdata/tier_replay.golden"

// replayOp is one step of the replay: a request, or an event the harness
// applies (fragment write, purge, flush, clock step, origin fault).
type replayOp struct {
	kind   string // GET, HEAD, INM, WRITE, PURGE, FLUSH, STEP, FAULT
	path   string
	hdr    string // "", "cookie", "user", "ae=gzip", "ae=br"
	key    uint32 // WRITE
	scope  string // FLUSH: "page", "static", "all"
	step   time.Duration
	window bool // inside a scoped flush's window (see compareReplay)
}

func (o replayOp) String() string {
	switch o.kind {
	case "WRITE":
		return fmt.Sprintf("WRITE %d", o.key)
	case "FLUSH":
		return "FLUSH " + o.scope
	case "STEP":
		return "STEP " + o.step.String()
	}
	s := o.kind + " " + o.path
	if o.hdr != "" {
		s += " " + o.hdr
	}
	return s
}

// replayPaths are the origin's resources; see replayOrigin.ServeHTTP.
var replayPaths = []string{
	"/asset/0.css", "/asset/1.css", "/ae/0.js", "/vc/0", "/nostore/0",
	"/cookie/0", "/cookieasset/0", "/plain/0", "/opt/0", "/opt/1",
	"/page/0", "/page/1", "/page/2",
}

// replayStale serves each admission rule's entry stale: filled, expired
// into the stale window, its origin failed (a 502 that negative-caches the
// key), then served STALE, then — past the window — shed. Its paths are
// not in replayPaths, so the failures stay out of the seeded part.
var replayStale = []replayOp{
	{kind: "GET", path: "/asset/9.css"}, {kind: "GET", path: "/opt/9"}, {kind: "GET", path: "/page/9"},
	{kind: "STEP", step: 11 * time.Second},
	{kind: "FAULT", path: "/page/9"}, {kind: "GET", path: "/page/9"}, {kind: "GET", path: "/page/9"},
	{kind: "STEP", step: 20 * time.Second},
	{kind: "FAULT", path: "/opt/9"}, {kind: "GET", path: "/opt/9"}, {kind: "GET", path: "/opt/9"},
	{kind: "STEP", step: 30 * time.Second},
	{kind: "FAULT", path: "/asset/9.css"}, {kind: "GET", path: "/asset/9.css"}, {kind: "GET", path: "/asset/9.css"},
	{kind: "GET", path: "/page/9"}, {kind: "GET", path: "/opt/9"},
	{kind: "STEP", step: 31 * time.Second},
	{kind: "GET", path: "/asset/9.css"},
}

// replayOps generates the op list: replayStale, then n seeded ops. A flush
// scoped "page" or "static" opens a window of a few requests that ends with
// both flushes, so the two designs' tiers agree again before anything else
// happens.
func replayOps(seed int64, n int) []replayOp {
	rng := rand.New(rand.NewSource(seed))
	ops := append([]replayOp(nil), replayStale...)
	n += len(ops)
	pick := func() string { return replayPaths[rng.Intn(len(replayPaths))] }
	request := func(window bool) replayOp {
		path := pick()
		op := replayOp{kind: "GET", path: path, window: window}
		switch r := rng.Intn(20); {
		case r < 3:
			op.hdr = "cookie"
		case r < 5:
			op.hdr = "user"
		case r < 7:
			op.hdr = []string{"ae=gzip", "ae=br"}[rng.Intn(2)]
		}
		if strings.HasPrefix(path, "/asset") || strings.HasPrefix(path, "/plain") {
			if rng.Intn(6) == 0 {
				op.kind = "HEAD"
			}
		}
		return op
	}
	steps := []time.Duration{time.Second, time.Second, time.Second, 2 * time.Second, 2 * time.Second, 11 * time.Second, 31 * time.Second, 61 * time.Second}
	for len(ops) < n {
		switch r := rng.Intn(100); {
		case r < 70:
			ops = append(ops, request(false))
		case r < 81:
			ops = append(ops, replayOp{kind: "INM", path: pick()})
		case r < 86:
			ops = append(ops, replayOp{kind: "WRITE", key: uint32(rng.Intn(replayFragments))})
		case r < 88:
			ops = append(ops, replayOp{kind: "PURGE", path: pick()})
		case r < 94:
			ops = append(ops, replayOp{kind: "STEP", step: steps[rng.Intn(len(steps))]})
		case r < 95:
			ops = append(ops, replayOp{kind: "FLUSH", scope: "all"})
		case r < 98:
			scope := []string{"page", "static"}[rng.Intn(2)]
			ops = append(ops, replayOp{kind: "FLUSH", scope: scope})
			for i := 3 + rng.Intn(4); i > 0; i-- {
				ops = append(ops, request(true))
			}
			ops = append(ops, replayOp{kind: "FLUSH", scope: "page"}, replayOp{kind: "FLUSH", scope: "static"})
		}
	}
	return ops[:n]
}

// replayFragments is the number of fragment slots the templates draw on.
const replayFragments = 6

// replayOrigin is a minimal DPC-capable origin: templates SET a fragment
// the proxy does not hold yet and GET it afterwards, a write moves a
// fragment to its next generation, and a faulted path answers 500.
type replayOrigin struct {
	mu      sync.Mutex
	gen     [replayFragments]uint32
	sent    map[[2]uint32]bool
	faulted map[string]bool
}

func (o *replayOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	defer o.mu.Unlock()
	path := r.URL.Path
	if o.faulted[path] {
		http.Error(w, "fault", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	kind, idx, _ := strings.Cut(strings.TrimPrefix(path, "/"), "/")
	n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSuffix(idx, ".css"), ".js"))
	h.Set("Content-Type", "text/html")
	switch kind {
	case "asset":
		h.Set("Content-Type", "text/css")
		h.Set("Cache-Control", "max-age=60")
	case "ae":
		h.Set("Content-Type", "text/javascript")
		h.Set("Cache-Control", "max-age=60")
		h.Set("Vary", "Accept-Encoding")
	case "vc":
		h.Set("Cache-Control", "max-age=60")
		h.Set("Vary", "Cookie")
		fmt.Fprintf(w, "vc %d for %q", n, r.Header.Get("Cookie"))
		return
	case "nostore":
		h.Set("Cache-Control", "no-store")
	case "cookie":
		h.Set("Set-Cookie", "t="+idx)
	case "cookieasset":
		h.Set("Set-Cookie", "t="+idx)
		h.Set("Cache-Control", "max-age=60")
	case "opt":
		h.Set("Cache-Control", "max-age=30")
		o.template(w, r, n)
		return
	case "page":
		o.template(w, r, n)
		return
	}
	fmt.Fprintf(w, "%s %d", kind, n)
}

// template answers page n, which is built from fragments n and n+2: as a
// template to a proxy, as the plain page on a bypass.
func (o *replayOrigin) template(w http.ResponseWriter, r *http.Request, n int) {
	keys := []uint32{uint32(n % replayFragments), uint32((n + 2) % replayFragments)}
	content := func(k uint32) []byte { return []byte(fmt.Sprintf("[frag %d v%d]", k, o.gen[k])) }
	if r.Header.Get("X-DPC-Bypass") != "" {
		for _, ref := range strings.Split(r.Header.Get("X-DPC-Stale"), ",") {
			k, g, _ := strings.Cut(ref, ":")
			key, _ := strconv.Atoi(k)
			gen, _ := strconv.Atoi(g)
			delete(o.sent, [2]uint32{uint32(key), uint32(gen)})
		}
		fmt.Fprintf(w, "<page %d>%s%s</page>", n, content(keys[0]), content(keys[1]))
		return
	}
	var buf bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&buf)
	_ = enc.Literal([]byte(fmt.Sprintf("<page %d>", n)))
	for _, k := range keys {
		ref := [2]uint32{k, o.gen[k]}
		if o.sent[ref] {
			_ = enc.Get(k, o.gen[k])
		} else {
			_ = enc.Set(k, o.gen[k], content(k))
			o.sent[ref] = true
		}
	}
	_ = enc.Literal([]byte("</page>"))
	_ = enc.Flush()
	w.Header().Set("X-DPC-Template", "binary")
	_, _ = w.Write(buf.Bytes())
}

// replayLine is one recorded response.
type replayLine struct {
	op, status, body, xcache, etag string
}

func (l replayLine) String() string {
	return strings.Join([]string{l.op, l.status, l.body, l.xcache, l.etag}, "\t")
}

// etagOf is the strong tag the tier stamps on a body (dpc's pageETag).
func etagOf(body []byte, ctype string) string {
	h := fnv.New128a()
	_, _ = h.Write(body)
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(ctype))
	return fmt.Sprintf("\"%x\"", h.Sum(nil))
}

// runReplay replays ops and returns one line per op.
func runReplay(t *testing.T, ops []replayOp) []replayLine {
	origin := &replayOrigin{sent: map[[2]uint32]bool{}, faulted: map[string]bool{}}
	srv := httptest.NewServer(origin)
	defer srv.Close()
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	p, err := dpc.New(dpc.Config{
		OriginURL: srv.URL, Capacity: 16, Strict: true, Stream: true, PublishInterval: -1,
		PageCache: true, PageCacheTTL: 10 * time.Second, Clock: fake,
		Admission: true, NegTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	fabric := coherency.Fanout(core.ProxySubscribers(p, p.Registry())...)
	var seq uint64
	apply := func(ev coherency.Event) {
		seq++
		ev.Seq = seq
		fabric.Apply(ev)
	}
	// last holds the body and type each request shape last received, for
	// the If-None-Match a revisiting client would send.
	last := map[string]string{}
	var lines []replayLine
	for _, op := range ops {
		line := replayLine{op: op.String()}
		switch op.kind {
		case "WRITE":
			origin.mu.Lock()
			old := origin.gen[op.key]
			origin.gen[op.key]++
			origin.mu.Unlock()
			apply(coherency.Event{Kind: coherency.KindFragment, Key: op.key, Gen: old})
		case "PURGE":
			apply(coherency.Event{Kind: coherency.KindPurge, URI: op.path})
		case "FLUSH":
			scope := op.scope
			if scope == "all" {
				scope = ""
				origin.mu.Lock()
				clear(origin.sent) // the proxy's fragment store is emptied too
				origin.mu.Unlock()
			}
			apply(coherency.Event{Kind: coherency.KindFlush, Scope: scope})
		case "STEP":
			fake.Advance(op.step)
		case "FAULT":
			origin.mu.Lock()
			origin.faulted[op.path] = true
			origin.mu.Unlock()
		default:
			method := op.kind
			if method == "INM" {
				method = http.MethodGet
			}
			req := httptest.NewRequest(method, op.path, nil)
			switch op.hdr {
			case "cookie":
				req.Header.Set("Cookie", "sid=u1")
			case "user":
				req.Header.Set("X-User", "u2")
			case "ae=gzip", "ae=br":
				req.Header.Set("Accept-Encoding", strings.TrimPrefix(op.hdr, "ae="))
			}
			shape := method + " " + op.path + " " + op.hdr
			if op.kind == "INM" {
				shape = "GET " + op.path + " "
				inm := `"none"`
				if prev, ok := last[shape]; ok {
					inm = prev
				}
				req.Header.Set("If-None-Match", inm)
			}
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, req)
			sum := sha256.Sum256(rec.Body.Bytes())
			line.status = strconv.Itoa(rec.Code)
			line.body = hex.EncodeToString(sum[:6])
			line.xcache = rec.Header().Get("X-Cache")
			line.etag = rec.Header().Get("ETag")
			if rec.Code == http.StatusOK {
				last[shape] = etagOf(rec.Body.Bytes(), rec.Header().Get("Content-Type"))
			}
		}
		lines = append(lines, line)
	}
	return lines
}

// compareReplay checks one line against the parent's. Status, body hash
// and X-Cache must match, and ETag too, except for the declared
// differences:
//   - a STATIC hit now carries its entry's ETag, which the parent's static
//     tier did not store;
//   - so an If-None-Match matching a STATIC entry is now a 304 with no
//     body where the parent sent the body;
//   - a flush scoped "page" or "static" now empties the one tier, where
//     the parent's emptied one of two: inside the window such a flush
//     opens, a request may miss (X-Cache: MISS, same status and body)
//     where the parent hit the other tier;
//   - the opt-in key no longer folds in Accept-Encoding (the proxy serves
//     every client identity), so an entry filed for one encoding serves
//     them all: a request may hit (X-Cache: STATIC, same status and body)
//     where the parent missed. A HEAD hit records the entry's body, as
//     every STATIC HEAD in the golden does, where the missed HEAD
//     recorded none.
func compareReplay(op replayOp, want, got replayLine) error {
	if want.op != got.op {
		return fmt.Errorf("op %q, golden has %q: regenerate at the parent commit", got.op, want.op)
	}
	if want == got {
		return nil
	}
	switch {
	case want.xcache == "STATIC" && want.etag == "" && got.etag != "" &&
		want.status == got.status && want.body == got.body && got.xcache == "STATIC":
		return nil // a STATIC hit relays its ETag
	case op.kind == "INM" && want.xcache == "STATIC" && want.status == "200" &&
		got.status == "304" && got.xcache == "STATIC" && got.etag != "":
		return nil // and revalidates
	case op.window && (want.xcache == "PAGE" || want.xcache == "STATIC") && got.xcache == "MISS" &&
		want.status == got.status && want.body == got.body:
		return nil // the scoped flush emptied the whole tier
	case want.xcache == "MISS" && got.xcache == "STATIC" && got.etag != "" && want.status == got.status &&
		(want.body == got.body || op.kind == "HEAD" && want.body == emptyBody):
		return nil // one opt-in entry serves every encoding
	}
	return fmt.Errorf("got %v, parent had %v", got, want)
}

// emptyBody is how a line records a response without a body.
var emptyBody = func() string {
	sum := sha256.Sum256(nil)
	return hex.EncodeToString(sum[:6])
}()

func TestReplayOneTierMatchesTwoTiers(t *testing.T) {
	ops := replayOps(21, 230)
	lines := runReplay(t, ops)
	if out := os.Getenv("DPC_REPLAY_RECORD"); out != "" {
		var b strings.Builder
		for _, l := range lines {
			b.WriteString(l.String() + "\n")
		}
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("recorded %d lines to %s", len(lines), out)
	}
	f, err := os.Open(filepath.FromSlash(replayGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var golden []replayLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden = append(golden, replayLine{fields[0], fields[1], fields[2], fields[3], fields[4]})
	}
	if len(golden) != len(lines) {
		t.Fatalf("golden has %d lines, the replay %d", len(golden), len(lines))
	}
	var declared int
	for i, op := range ops {
		if err := compareReplay(op, golden[i], lines[i]); err != nil {
			t.Errorf("line %d: %v", i+1, err)
		} else if golden[i] != lines[i] {
			declared++
		}
	}
	t.Logf("%d lines, %d of them a declared difference", len(lines), declared)
}
