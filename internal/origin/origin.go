// Package origin implements the origin-site application server: the
// IIS+ASP stand-in of the paper's test configuration (Figure 4).
//
// The server executes dynamic scripts (package script) against the content
// repository. It serves two kinds of responses from the same scripts:
//
//   - plain pages — full HTML, exactly what a conventional application
//     server would produce (the no-cache baseline of Section 5/6), and
//   - templates — the instruction streams of Section 4, produced by
//     running scripts through the BEM sink, which consults the Back End
//     Monitor per tagged block and emits GET or SET instructions.
//
// A request is served as a template only when the caller advertises DPC
// capability (the reverse proxy sets the X-DPC-Capable header); direct
// browser requests always receive plain pages, so deploying the system is
// transparent to non-proxy clients. The X-DPC-Bypass header forces a plain
// page even from a capable caller — the strict-mode recovery path the DPC
// uses when it detects a stale slot.
//
// A template can also be answered by reference. A DPC that still holds the
// plan it compiled from the template this URL last produced names it in
// X-DPC-Have (the SHA-256 of the template bytes, in hex). The server
// generates the template exactly as it would have — every script block,
// every BEM lookup — and, when what it generated carries no SET and hashes
// to the offer, sends the response's headers with X-DPC-Same and no body.
// The server keeps no record of what any proxy holds: the offer is compared
// with this request's own bytes, so a wrong one is answered in full.
package origin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/metrics"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/tmpl"
)

// Request headers forming the origin↔proxy contract.
const (
	// HeaderCapable marks the caller as a DPC that can assemble
	// templates.
	HeaderCapable = "X-DPC-Capable"
	// HeaderBypass forces a plain page regardless of capability.
	HeaderBypass = "X-DPC-Bypass"
	// HeaderTemplate is set on responses whose body is a template; its
	// value names the codec.
	HeaderTemplate = "X-DPC-Template"
	// HeaderUser carries the authenticated user (the session layer of a
	// real site; a header keeps the substrate simple).
	HeaderUser = "X-User"
	// HeaderStale carries "key:gen,key:gen" slot references the DPC
	// could not satisfy; the BEM invalidates them so the next template
	// regenerates the fragments (set on bypass recovery fetches).
	HeaderStale = "X-DPC-Stale"
	// HeaderHave carries, on a capable caller's request, the hex SHA-256
	// of a template whose compiled plan the caller holds.
	HeaderHave = "X-DPC-Have"
	// HeaderSame marks a template response whose body was left out because
	// it is the template the request named in HeaderHave.
	HeaderSame = "X-DPC-Same"
)

// Config parameterizes a Server.
type Config struct {
	// Repo is the content repository scripts read from. Required.
	Repo *repository.Repo
	// Monitor enables template responses. Nil runs the server in pure
	// no-cache mode (plain pages only).
	Monitor *bem.Monitor
	// Codec selects the template wire format; defaults to tmpl.Binary.
	Codec tmpl.Codec
	// ExtraHeaderBytes pads every response with an X-Pad header of this
	// size, letting experiments match Table 2's 500-byte per-response
	// header figure (bare HTTP headers are smaller).
	ExtraHeaderBytes int
	// Registry receives origin.* metrics; optional.
	Registry *metrics.Registry
	// Faults injects configured misbehavior — latency, errors, hangs,
	// mid-body aborts, a bounded worker pool — in front of the page and
	// static handlers (see faults.go). Nil serves faithfully. Admin
	// endpoints (/healthz, /stats) are never fault-injected.
	Faults *FaultInjector
}

// Server is the origin application server. Register scripts, then serve.
type Server struct {
	cfg     Config
	codec   tmpl.Codec
	scripts map[string]*script.Script
	statics map[string]staticAsset
	reg     *metrics.Registry
	pad     string // the X-Pad header's value; empty when ExtraHeaderBytes is 0

	// The request paths' metrics, looked up once: the registry takes a
	// mutex per look-up.
	requests, templates, plainPages, errors           *metrics.Counter
	templateRefs, staticRequests, staleReportsApplied *metrics.Counter
	generate                                          *metrics.Histogram
}

// staticAsset is a fixed response served under /static/ with an explicit
// freshness lifetime, so proxies may cache it by URL.
type staticAsset struct {
	contentType string
	body        []byte
	maxAge      time.Duration
}

// New returns a Server with no scripts registered.
func New(cfg Config) (*Server, error) {
	if cfg.Repo == nil {
		return nil, fmt.Errorf("origin: Repo is required")
	}
	codec := cfg.Codec
	if codec == nil {
		codec = tmpl.Binary{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Faults != nil {
		cfg.Faults.reg = &faultMetrics{
			errors: reg.Counter("origin.fault_errors"),
			hangs:  reg.Counter("origin.fault_hangs"),
			aborts: reg.Counter("origin.fault_aborts"),
			queued: reg.Counter("origin.fault_queued"),
		}
	}
	return &Server{
		cfg:     cfg,
		codec:   codec,
		scripts: make(map[string]*script.Script),
		statics: make(map[string]staticAsset),
		reg:     reg,
		pad:     strings.Repeat("p", max(cfg.ExtraHeaderBytes, 0)),

		requests:            reg.Counter("origin.requests"),
		templates:           reg.Counter("origin.templates"),
		templateRefs:        reg.Counter("origin.template_refs"),
		plainPages:          reg.Counter("origin.plain_pages"),
		errors:              reg.Counter("origin.errors"),
		staticRequests:      reg.Counter("origin.static_requests"),
		staleReportsApplied: reg.Counter("origin.stale_reports_applied"),
		generate:            reg.Histogram("origin.generate"),
	}, nil
}

// RegisterStatic serves body at /static/<name> with Cache-Control
// max-age, making it URL-cacheable at the proxy (the rich-content /
// static-fragment case of Section 4.2).
func (s *Server) RegisterStatic(name, contentType string, body []byte, maxAge time.Duration) error {
	if name == "" {
		return fmt.Errorf("origin: static asset needs a name")
	}
	if _, dup := s.statics[name]; dup {
		return fmt.Errorf("origin: static asset %q already registered", name)
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	s.statics[name] = staticAsset{contentType: contentType, body: cp, maxAge: maxAge}
	return nil
}

// Register adds a script; requests for /page/<name> execute it.
func (s *Server) Register(sc *script.Script) error {
	if sc == nil || sc.Name == "" {
		return fmt.Errorf("origin: script must have a name")
	}
	if _, dup := s.scripts[sc.Name]; dup {
		return fmt.Errorf("origin: script %q already registered", sc.Name)
	}
	s.scripts[sc.Name] = sc
	return nil
}

// Scripts lists registered script names.
func (s *Server) Scripts() []string {
	names := make([]string, 0, len(s.scripts))
	for n := range s.scripts {
		names = append(names, n)
	}
	return names
}

// Monitor returns the attached Back End Monitor (nil in no-cache mode).
func (s *Server) Monitor() *bem.Monitor { return s.cfg.Monitor }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/page/"):
		if f := s.cfg.Faults; f != nil {
			f.wrap(w, r, s.servePage)
			return
		}
		s.servePage(w, r)
	case strings.HasPrefix(r.URL.Path, "/static/"):
		if f := s.cfg.Faults; f != nil {
			f.wrap(w, r, s.serveStatic)
			return
		}
		s.serveStatic(w, r)
	case r.URL.Path == "/healthz":
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/stats":
		s.serveStats(w)
	default:
		http.NotFound(w, r)
	}
}

// serveStats reports origin metrics, the process's allocator and collector
// counters and, when a monitor is attached, the BEM's cache-directory
// statistics, as JSON. The runtime counters are cumulative: two reads and
// the origin.requests between them give bytes and objects allocated per
// fetch. ReadMemStats stops the world, so it runs here, once per call, and
// never on the page path.
func (s *Server) serveStats(w http.ResponseWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]any{
		"metrics": s.reg.Snapshot(),
		"scripts": s.Scripts(),
		"runtime": map[string]any{
			"total_alloc_bytes": ms.TotalAlloc,
			"mallocs":           ms.Mallocs,
			"num_gc":            ms.NumGC,
			"gc_cpu_fraction":   ms.GCCPUFraction,
			"heap_alloc_bytes":  ms.HeapAlloc,
		},
	}
	if s.cfg.Monitor != nil {
		st := s.cfg.Monitor.Stats()
		top := s.cfg.Monitor.TopFragments(10)
		hot := make([]map[string]any, 0, len(top))
		for _, f := range top {
			hot = append(hot, map[string]any{
				"fragment": f.FragmentID,
				"hits":     f.Hits,
				"size":     f.Size,
				"valid":    f.Valid,
			})
		}
		out["hot_fragments"] = hot
		out["bem"] = map[string]any{
			"lookups":             st.Lookups,
			"hits":                st.Hits,
			"misses":              st.Misses,
			"hit_ratio":           st.HitRatio(),
			"evictions":           st.Evictions,
			"ttl_invalidations":   st.TTLInvalidations,
			"data_invalidations":  st.DataInvalidations,
			"stale_invalidations": st.StaleInvalidations,
			"directory_size":      st.DirectorySize,
			"valid_fragments":     st.ValidFragments,
			"free_keys":           st.FreeKeys,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// maxPooledBody caps the buffer a response goes back to bodyPool with, so
// one giant page does not pin memory (dpc's pageBufPool has the same cap).
const maxPooledBody = 1 << 20

// bodyPool recycles the buffer a page response is built in. The buffer is
// servePage's alone from Get to Put: the encoder and the plain sink write
// into it, the BEM is told sizes and dependencies and never sees it, and it
// goes back only after the response writer has taken its bytes.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) servePage(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/page/")
	sc, ok := s.scripts[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	ctx := script.NewContext(s.cfg.Repo, r.Header.Get(HeaderUser), queryParams(r.URL.RawQuery))

	if s.cfg.Monitor != nil {
		s.applyStaleReport(r.Header.Get(HeaderStale))
	}

	templateMode := s.cfg.Monitor != nil &&
		r.Header.Get(HeaderCapable) != "" &&
		r.Header.Get(HeaderBypass) == ""

	start := time.Now()
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	defer func() {
		if body.Cap() <= maxPooledBody {
			bodyPool.Put(body)
		}
	}()
	same := false
	if templateMode {
		enc := s.codec.NewEncoder(body)
		sink := &bemSink{enc: enc, mon: s.cfg.Monitor}
		if err := script.Run(sc, ctx, sink); err != nil {
			s.fail(w, name, err)
			return
		}
		if err := enc.Flush(); err != nil {
			s.fail(w, name, err)
			return
		}
		w.Header().Set(HeaderTemplate, s.codec.Name())
		s.templates.Inc()
		// A template with a SET is new to every proxy, so only a GET-only
		// one is worth hashing against the caller's offer.
		if have := r.Header.Get(HeaderHave); have != "" && !sink.set && sameDigest(body.Bytes(), have) {
			same = true
			w.Header().Set(HeaderSame, "1")
			s.templateRefs.Inc()
		}
	} else {
		if err := script.Run(sc, ctx, &script.PlainSink{W: body}); err != nil {
			s.fail(w, name, err)
			return
		}
		s.plainPages.Inc()
	}
	s.generate.Observe(time.Since(start))
	s.requests.Inc()

	out := body.Bytes()
	if same {
		out = nil // the caller holds these bytes' plan
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Header().Set("Server", "dpcache-origin/1.0")
	if s.pad != "" {
		w.Header().Set("X-Pad", s.pad)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// sameDigest reports whether have is the hex SHA-256 of template, as a DPC
// writes it. Nothing here allocates.
func sameDigest(template []byte, have string) bool {
	sum := sha256.Sum256(template)
	var enc [2 * sha256.Size]byte
	hex.Encode(enc[:], sum[:])
	return string(enc[:]) == have
}

// queryParams returns the first value of each parameter of a raw query:
// what url.ParseQuery keeps (a pair that holds a semicolon or does not
// unescape is dropped), without the url.Values and its slice per key.
func queryParams(query string) map[string]string {
	params := map[string]string{}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil {
			continue
		}
		value, err = url.QueryUnescape(value)
		if err != nil {
			continue
		}
		if _, seen := params[key]; !seen {
			params[key] = value
		}
	}
	return params
}

func (s *Server) serveStatic(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/static/")
	asset, ok := s.statics[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.staticRequests.Inc()
	w.Header().Set("Content-Type", asset.contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(asset.body)))
	if asset.maxAge > 0 {
		w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", int(asset.maxAge.Seconds())))
	} else {
		w.Header().Set("Cache-Control", "no-store")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(asset.body)
}

// applyStaleReport invalidates slots the DPC reported as unsatisfiable.
// The header format is "key:gen,key:gen"; malformed entries are ignored
// (a bad report must never break page serving).
func (s *Server) applyStaleReport(report string) {
	if report == "" {
		return
	}
	for _, part := range strings.Split(report, ",") {
		kg := strings.SplitN(part, ":", 2)
		if len(kg) != 2 {
			continue
		}
		key, err1 := strconv.ParseUint(kg[0], 10, 32)
		gen, err2 := strconv.ParseUint(kg[1], 10, 32)
		if err1 != nil || err2 != nil {
			continue
		}
		if s.cfg.Monitor.InvalidateStale(uint32(key), uint32(gen)) {
			s.staleReportsApplied.Inc()
		}
	}
}

func (s *Server) fail(w http.ResponseWriter, page string, err error) {
	s.errors.Inc()
	http.Error(w, fmt.Sprintf("origin: page %q: %v", page, err), http.StatusInternalServerError)
}

// bemSink adapts the Back End Monitor to the script.Sink interface: the
// run-time operation of Section 4.3.2. A valid directory entry becomes a
// GET tag; anything else regenerates the fragment and becomes a SET tag
// pair carrying the fresh content.
type bemSink struct {
	enc tmpl.Encoder
	mon *bem.Monitor
	set bool // a SET went out
}

// Literal implements script.Sink.
func (s *bemSink) Literal(p []byte) error { return s.enc.Literal(p) }

// Fragment implements script.Sink.
func (s *bemSink) Fragment(fragmentID string, ttl time.Duration, r *script.Renderer) error {
	d, err := s.mon.Lookup(fragmentID, ttl)
	if err != nil {
		return err
	}
	if d.Hit {
		return s.enc.Get(d.Key, d.Gen)
	}
	// The miss made the directory entry valid on the promise of a SET. If
	// the SET does not go out, a later template would carry a GET no proxy
	// can satisfy: take the promise back, as a proxy's stale report for
	// this slot and generation would after paying for a bypass.
	body, deps, err := r.Render()
	if err != nil {
		s.mon.InvalidateStale(d.Key, d.Gen)
		return err
	}
	s.mon.Commit(fragmentID, len(body), deps)
	s.set = true
	if err := s.enc.Set(d.Key, d.Gen, body); err != nil {
		s.mon.InvalidateStale(d.Key, d.Gen)
		return err
	}
	return nil
}
