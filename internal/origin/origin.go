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
// Every template opens with one BEM entry beyond its tagged blocks', the
// page's shell: keyed by the script and the raw query, and depending on
// every row the layout, a KeyParams or an untagged block reads, registered
// before the read. So a template's bytes are a function of the request and
// of the BEM entries it names, and the BEM's dependencies are the one record
// of what they were built from: a write to any row the page read
// invalidates one of those entries, and a proxy on the invalidation fabric
// hears of it. The shell holds no bytes; its SET is empty.
//
// A template can also be answered by reference. A DPC that still holds the
// plan it compiled from the template this URL last produced names it in
// X-DPC-Have (the SHA-256 of the template bytes, in hex). When the template
// this request produces carries no SET and is the one offered, the server
// sends the response's headers with X-DPC-Same and no body. It finds that
// out in one of two ways: by generating the template and hashing it, or,
// when it generated and hashed this same request's template before, by
// re-checking that every BEM entry that template named, its shell first, is
// still valid at the generation it named (validator.go). The server keeps
// no record of what any proxy holds: the offer is compared with this
// request's own template, so a wrong one is answered in full.
//
// A caller that asks for a lease (X-DPC-Lease) is one that hears every BEM
// invalidation over the fabric. An answer by reference to it grants a lease
// until the earliest TTL expiry among the template's entries: the caller
// may reuse the template until then, or until it hears one of them
// invalidated. When the run never read the user, the template is also
// every visitor's, and the grant says so: the caller may reuse it for any
// visitor of the same URI.
//
// A server with a Monitor owns the hub of its invalidation stream
// (coherency.Hub) and serves it at coherency.EventsPath as a long poll: a
// DPC that follows it hears every BEM invalidation, in order, and is a
// caller that may ask for leases. The stream carries each invalidated
// fragment's ID with its slot and generation: nothing a proxy that
// assembles the templates, personal fragments included, does not already
// see. Polls are neither counted as page requests nor fault-injected.
// Whoever reaches the stream can delay the origin: a follower that never
// acks holds each BEM invalidation — and the BEM invalidates inside page
// requests too, on expiry, eviction and stale reports — until the hub drops
// it, and the hub takes at most coherency.MaxPullers followers. Serve a
// Server with a Monitor only to its proxies.
package origin

import (
	"bytes"
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
	"dpcache/internal/coherency"
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
	// HeaderLease, on a capable caller's request, asks for a grant on an
	// answer by reference. On such an answer it is the grant: the whole
	// milliseconds until the earliest TTL expiry among the BEM entries the
	// template names, or "none" when none of them expires, followed by
	// ";page" when the run never read the user. A caller that hears every
	// invalidation of those entries may reuse the template until then without
	// asking again: for the request's visitor, or with ";page" for every
	// visitor of the same URI.
	HeaderLease = "X-DPC-Lease"
)

const (
	// leaseNone is HeaderLease's grant when no entry the template names
	// expires.
	leaseNone = "none"
	// leasePageScope ends a grant whose template is every visitor's.
	leasePageScope = ";page"
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
	// endpoints (/healthz, /stats) and the event stream are never
	// fault-injected.
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
	valid   *validator
	hub     *coherency.Hub // the Monitor's invalidation stream; nil without one

	// The request paths' metrics, looked up once: the registry takes a
	// mutex per look-up.
	requests, templates, plainPages, errors *metrics.Counter
	templateRefs, templateRefsValidated     *metrics.Counter
	leasesGranted, leasesGrantedPage        *metrics.Counter
	staticRequests, staleReportsApplied     *metrics.Counter
	generate                                *metrics.Histogram
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
			errors:  reg.Counter("origin.fault_errors"),
			hangs:   reg.Counter("origin.fault_hangs"),
			aborts:  reg.Counter("origin.fault_aborts"),
			queued:  reg.Counter("origin.fault_queued"),
			waiting: reg.Gauge("origin.fault_waiting"),
		}
		if cfg.Monitor != nil {
			cfg.Faults.clk = cfg.Monitor.Clock()
		}
	}
	var hub *coherency.Hub
	if cfg.Monitor != nil {
		hub = coherency.NewHub(cfg.Monitor)
	}
	return &Server{
		cfg:     cfg,
		hub:     hub,
		codec:   codec,
		scripts: make(map[string]*script.Script),
		statics: make(map[string]staticAsset),
		reg:     reg,
		pad:     strings.Repeat("p", max(cfg.ExtraHeaderBytes, 0)),
		valid:   newValidator(),

		requests:              reg.Counter("origin.requests"),
		templates:             reg.Counter("origin.templates"),
		templateRefs:          reg.Counter("origin.template_refs"),
		templateRefsValidated: reg.Counter("origin.template_refs_validated"),
		leasesGranted:         reg.Counter("origin.leases_granted"),
		leasesGrantedPage:     reg.Counter("origin.leases_granted_page"),
		plainPages:            reg.Counter("origin.plain_pages"),
		errors:                reg.Counter("origin.errors"),
		staticRequests:        reg.Counter("origin.static_requests"),
		staleReportsApplied:   reg.Counter("origin.stale_reports_applied"),
		generate:              reg.Histogram("origin.generate"),
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

// Hub returns the hub of the Monitor's invalidation stream, which the
// server serves at coherency.EventsPath (nil in no-cache mode). Push
// subscribers subscribe to it; there is one hub per BEM.
func (s *Server) Hub() *coherency.Hub { return s.hub }

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
	case r.URL.Path == coherency.EventsPath && s.hub != nil:
		s.hub.ServeHTTP(w, r)
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
		out["fabric"] = s.hub.Stats()
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
	user, query := r.Header.Get(HeaderUser), r.URL.RawQuery

	if s.cfg.Monitor != nil {
		s.applyStaleReport(r.Header.Get(HeaderStale))
	}

	templateMode := s.cfg.Monitor != nil &&
		r.Header.Get(HeaderCapable) != "" &&
		r.Header.Get(HeaderBypass) == ""
	have, lease := "", false
	if templateMode {
		have, lease = r.Header.Get(HeaderHave), r.Header.Get(HeaderLease) != ""
	}

	if have != "" {
		start := time.Now()
		if expiry, page, ok := s.valid.answers(name, user, query, have, s.cfg.Monitor); ok {
			s.templates.Inc()
			s.templateRefs.Inc()
			s.templateRefsValidated.Inc()
			s.generate.Observe(time.Since(start))
			s.requests.Inc()
			w.Header().Set(HeaderTemplate, s.codec.Name())
			w.Header().Set(HeaderSame, "1")
			if lease {
				s.grant(w, expiry, page)
			}
			s.respond(w, nil)
			return
		}
	}

	ctx := script.NewContext(s.cfg.Repo, user, queryParams(query))
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
		if have != "" {
			sink.gets = make([]bem.Handle, 0, 16)
		}
		err := sink.shell(ctx, shellID(name, query))
		if err == nil {
			err = script.Run(sc, ctx, sink)
		}
		if err == nil {
			err = enc.Flush()
		}
		if err != nil {
			sink.abandon()
			s.fail(w, name, err)
			return
		}
		w.Header().Set(HeaderTemplate, s.codec.Name())
		s.templates.Inc()
		// A template with a SET is new to every proxy, so only a GET-only
		// one is worth hashing against the caller's offer, and filing for
		// the next.
		if have != "" && !sink.set {
			digest := templateDigest(body.Bytes())
			s.valid.file(name, user, query, digest, !ctx.ReadIdentity(), sink.gets)
			if string(digest[:]) == have {
				same = true
				w.Header().Set(HeaderSame, "1")
				s.templateRefs.Inc()
				if lease {
					s.grant(w, sink.expiry, !ctx.ReadIdentity())
				}
			}
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
	s.respond(w, out)
}

// grant puts a lease on an answer by reference to a request that asked for
// one: until expiry, the earliest TTL expiry among the entries the template
// names (zero when none expires), scoped to the page when the run that
// decided the template never read the user.
func (s *Server) grant(w http.ResponseWriter, expiry time.Time, page bool) {
	v := leaseNone
	if !expiry.IsZero() {
		v = strconv.FormatInt(expiry.Sub(s.cfg.Monitor.Now()).Milliseconds(), 10)
	}
	if page {
		v += leasePageScope
		s.leasesGrantedPage.Inc()
	}
	w.Header().Set(HeaderLease, v)
	s.leasesGranted.Inc()
}

// respond writes a page answer's headers, the same for every shape, and out.
func (s *Server) respond(w http.ResponseWriter, out []byte) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Header().Set("Server", "dpcache-origin/1.0")
	if s.pad != "" {
		w.Header().Set("X-Pad", s.pad)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
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
	enc  tmpl.Encoder
	mon  *bem.Monitor
	set  bool         // a SET went out
	gets []bem.Handle // a handle per GET, in order, when non-nil
	// shellKey and shellGen are the shell's slot and generation when it
	// missed and its SET went out; shellGen is zero otherwise.
	shellKey, shellGen uint32
	// expiry is the earliest TTL expiry among the entries the GETs named,
	// zero when none expires.
	expiry time.Time
}

// shellMark opens a shell's fragment ID. No tagged block's ID may begin
// with it (Fragment refuses one), so no block can name a page's shell.
const shellMark = "\x00"

// shellID names the shell of the page a script and a raw query render: the
// BEM entry of the rows the page reads outside its tagged blocks, whoever
// the visitor.
func shellID(script, query string) string { return shellMark + script + "?" + query }

// shell opens a template with its page's shell entry — a GET, or a SET with
// an empty body — and has each row the page reads registered as the shell's
// dependency before it is read. Only Depend ever adds to a shell's
// dependencies and only the next generation's miss clears them, so they are
// the union of what every run against that generation read: a write to a
// row any visitor's layout read invalidates the shell, and so every
// template, validator record and lease that names it.
func (s *bemSink) shell(ctx *script.Context, id string) error {
	d, err := s.mon.Lookup(id, 0)
	if err != nil {
		return err
	}
	ctx.WatchReads(func(k repository.Key) { s.mon.Depend(id, d.Gen, k) })
	if d.Hit {
		return s.get(d)
	}
	s.set, s.shellKey, s.shellGen = true, d.Key, d.Gen
	return s.enc.Set(d.Key, d.Gen, nil)
}

// abandon takes back the shell's SET of a template that will not be sent:
// the entry was made valid on the promise of that SET, and the next
// template would carry a GET of it no proxy can satisfy. Fragment does the
// same for a tagged block's.
func (s *bemSink) abandon() {
	if s.shellGen != 0 {
		s.mon.InvalidateStale(s.shellKey, s.shellGen)
	}
}

// get emits a GET for a hit.
func (s *bemSink) get(d bem.Decision) error {
	if s.gets != nil {
		s.gets = append(s.gets, d.Handle)
		s.expiry = bem.Earliest(s.expiry, d.Expiry)
	}
	return s.enc.Get(d.Key, d.Gen)
}

// Literal implements script.Sink.
func (s *bemSink) Literal(p []byte) error { return s.enc.Literal(p) }

// Fragment implements script.Sink.
func (s *bemSink) Fragment(fragmentID string, ttl time.Duration, r *script.Renderer) error {
	if strings.HasPrefix(fragmentID, shellMark) {
		return fmt.Errorf("fragment ID %q begins with NUL, which only a page's shell may", fragmentID)
	}
	d, err := s.mon.Lookup(fragmentID, ttl)
	if err != nil {
		return err
	}
	if d.Hit {
		return s.get(d)
	}
	// The miss made the directory entry valid on the promise of a SET. If
	// the SET does not go out, a later template would carry a GET no proxy
	// can satisfy: take the promise back, as a proxy's stale report for
	// this slot and generation would after paying for a bypass.
	body, err := r.Render(func(k repository.Key) { s.mon.Depend(fragmentID, d.Gen, k) })
	if err != nil {
		s.mon.InvalidateStale(d.Key, d.Gen)
		return err
	}
	s.mon.Commit(fragmentID, d.Gen, len(body))
	s.set = true
	if err := s.enc.Set(d.Key, d.Gen, body); err != nil {
		s.mon.InvalidateStale(d.Key, d.Gen)
		return err
	}
	return nil
}
