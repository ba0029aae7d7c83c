package dpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dpcache/internal/metrics"
	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// The request path is an explicit pipeline of named stages:
//
//	admin → static-cache → pagecache → coalesce → origin-fetch →
//	assemble → stale-fallback → respond
//
// Each stage owns a latency histogram (dpc.stage.<name>.latency) so
// per-stage cost is observable from /_dpc/stats, and each can short-circuit
// the rest of the pipeline (a static hit jumps straight to respond; a
// coalesced follower is served its leader's page). Every served response —
// hit, miss, coalesced, bypass — is counted exactly once, in the respond
// stage.

// stageOutcome directs the pipeline runner after a stage returns.
type stageOutcome int

const (
	// stageNext falls through to the next stage.
	stageNext stageOutcome = iota
	// stageRespond jumps forward to the respond stage.
	stageRespond
	// stageDone reports the response fully handled; the pipeline stops.
	stageDone
)

// Stage is one named step of the proxy's request pipeline.
type Stage struct {
	// Name identifies the stage in metrics and /_dpc/stats.
	Name string
	hist *metrics.Histogram
	run  func(*reqState) (stageOutcome, error)
}

func (p *Proxy) newStage(name string, run func(*reqState) (stageOutcome, error)) *Stage {
	return &Stage{
		Name: name,
		//dpclint:ignore metriccatalog stage names come from pipelineStageNames, which MetricCatalog enumerates and TestMetricsDocumented asserts against the stage list
		hist: p.reg.Histogram("dpc.stage." + name + ".latency"),
		run:  run,
	}
}

// reqState carries one request through the pipeline.
type reqState struct {
	w     http.ResponseWriter
	r     *http.Request
	start time.Time

	// trace is the request's root span and span the current stage's child
	// span; both are nil (and every use a no-op) when tracing is off.
	trace *trace.Span
	span  *trace.Span

	// Response under construction.
	body       []byte // whole body from a cache tier or a static fill (nil when a writer carried it)
	ctype      string
	cacheState string // STATIC, PAGE, MISS, COALESCE-FOLLOWER, or BYPASS
	streamed   bool   // headers (and whatever body followed) already reached the client

	// reqBody is the client's request body, buffered once so the
	// stale-fallback retry can replay it to the origin.
	reqBody []byte

	// resp is the open origin response handed from origin-fetch to
	// assemble (template mode only).
	resp *http.Response

	// fetchKey is the request's flight key, built once by whichever of
	// coalesce and origin-fetch first needs it.
	fetchKey string
	// hintKey is the key a template fetched for this request is remembered
	// under in the hint table (see offerPlan); empty when the fetch is not
	// one that may offer.
	hintKey string
	// held is the plan this request's origin fetch offered (X-DPC-Have),
	// kept from the offer until the answer — so a plan-tier flush in
	// between cannot take it — and, when the origin answered by reference,
	// until assemble runs it in place of the template that was not sent.
	held *tmplplan.Plan

	// staleRefs, when set by assemble, routes the request through the
	// stale-fallback stage.
	staleRefs []StaleRef

	// flight is non-nil while this request leads a coalesced fetch.
	flight *flight

	// pageKey/pageCapture are set by the pagecache stage on a cacheable
	// miss: w is wrapped so the outgoing response is teed aside, and
	// respond files it under pageKey.
	pageKey     string
	pageCapture *pageCapture
	// pageETag is the stored entity tag of a page-tier hit; respond
	// relays it so clients can revalidate conditionally next time.
	pageETag string
	// depRefs are the fragment references whose bytes flowed into this
	// response (assembly only); fillPageCache records them as dependency
	// edges and re-checks them against invalidation tombstones.
	depRefs []StaleRef
	// depEpoch snapshots the dependency index's flush generation when the
	// capture began; a flush in between voids the fill.
	depEpoch uint64
	// pageUncacheable records that the origin's response headers forbade
	// page caching (no-store/no-cache/private or Set-Cookie); the proxy
	// strips origin headers before the client sees them, so this is
	// decided at fetch time, not from the capture.
	pageUncacheable bool
	// staticFilled records that origin-fetch stored this response in the
	// static tier, so the page tier need not duplicate it.
	staticFilled bool

	// admitRelease releases the admission stage's in-flight token
	// (idempotent; nil when the stage took none). Called in respond and
	// fail — the token covers the request's whole origin-bound lifetime.
	admitRelease func()
	// originCancel releases the leader's detached origin context (see
	// originRequest): it cancels the fetch if still running and frees the
	// client-disconnect watcher. Idempotent; nil for non-leaders.
	originCancel func()
}

// --- admin ---

func (p *Proxy) stageAdmin(rs *reqState) (stageOutcome, error) {
	if !strings.HasPrefix(rs.r.URL.Path, AdminPrefix) {
		return stageNext, nil
	}
	p.adminOnce.Do(p.initAdmin)
	p.admin.ServeHTTP(rs.w, rs.r)
	return stageDone, nil
}

// --- static-cache ---

func (p *Proxy) stageStaticCache(rs *reqState) (stageOutcome, error) {
	if rs.r.Method != http.MethodGet && rs.r.Method != http.MethodHead {
		return stageNext, nil
	}
	if p.admit != nil && isReval(rs.r.Context()) {
		// A background revalidation exists to refresh the tiers; serving
		// it from cache would refresh nothing.
		return stageNext, nil
	}
	var (
		body  []byte
		ctype string
		ok    bool
	)
	if p.admit != nil {
		// Keep expired entries resident: the admission stage may serve
		// them stale under pressure (see KeyedStore.GetKeep).
		body, ctype, ok = p.static.GetKeep(staticKey(rs.r))
	} else {
		body, ctype, ok = p.static.Get(staticKey(rs.r))
	}
	if !ok {
		rs.span.Event(trace.KindMiss, "static", "", 0)
		return stageNext, nil
	}
	p.reg.Counter("dpc.static_hits").Inc()
	rs.span.Event(trace.KindHit, "static", "", int64(len(body)))
	rs.body, rs.ctype, rs.cacheState = body, ctype, "STATIC"
	return stageRespond, nil
}

// --- coalesce ---

func (p *Proxy) stageCoalesce(rs *reqState) (stageOutcome, error) {
	if p.flights == nil || !coalescable(rs.r) {
		return stageNext, nil
	}
	f, leader, fol := p.flights.join(rs.flightKey(), rs.r.Method)
	if leader {
		rs.flight = f
		rs.span.Event(trace.KindRole, "coalesce", "leader", int64(f.id))
		return stageNext, nil
	}
	if f == nil {
		// Method mismatch: a GET cannot be served from a HEAD-led flight
		// (the leader's response has no body). Fetch independently.
		rs.span.Event(trace.KindMiss, "coalesce", "method-mismatch", 0)
		return stageNext, nil
	}
	if fol == nil {
		// The flight sealed (broadcast buffer over its byte cap) before we
		// arrived: the replay window is gone, so fetch independently.
		p.reg.Counter("dpc.coalesce_overflows").Inc()
		rs.span.Event(trace.KindMiss, "coalesce", "sealed", int64(f.id))
		return stageNext, nil
	}
	if rs.r.Method == http.MethodHead && f.method == http.MethodGet {
		// HEAD rides the GET broadcast: it needs only the flight's
		// committed headers, never the body bytes.
		rs.span.Event(trace.KindRole, "coalesce", "head-follower", int64(f.id))
		return p.serveHeadFollower(rs, f, fol)
	}
	rs.span.Event(trace.KindRole, "coalesce", "follower", int64(f.id))
	if rs.pageCapture != nil {
		// The leader is filling this page key; buffering a duplicate
		// through the follower's tee would be copied and dropped.
		rs.pageCapture.discard()
	}
	return p.serveFollower(rs, f, fol)
}

// serveHeadFollower serves a HEAD request from a GET leader's broadcast:
// one origin fetch satisfies both methods. It waits for the flight to
// close cleanly — only then is the page length exact — and replicates the
// committed headers with no body. An aborted flight falls back to the
// follower's own fetch (nothing was committed).
func (p *Proxy) serveHeadFollower(rs *reqState, f *flight, fol *follower) (stageOutcome, error) {
	defer f.detach(fol)
	ctx := rs.r.Context()
	stop := context.AfterFunc(ctx, f.wake)
	defer stop()
	c := f.awaitClose(fol, func() bool { return ctx.Err() != nil })
	if ctx.Err() != nil {
		return stageDone, nil // client gone; nothing left to serve
	}
	if c.state != flightDone {
		p.reg.Counter("dpc.coalesce_fallbacks").Inc()
		rs.span.Event(trace.KindMiss, "coalesce", "leader-aborted", 0)
		return stageNext, nil
	}
	h := rs.w.Header()
	ctype := c.ctype
	if ctype == "" {
		ctype = "text/html; charset=utf-8"
	}
	clen := c.total
	if clen == 0 && c.clen > 0 {
		clen = c.clen // bodyless leader response: its declared length
	}
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.FormatInt(clen, 10))
	h.Set("Via", "dpcache-dpc/1.0")
	h.Set("X-Cache", "COALESCE-FOLLOWER")
	rs.w.WriteHeader(http.StatusOK)
	rs.streamed = true // headers committed; respond must not write a body
	rs.cacheState = "COALESCE-FOLLOWER"
	p.reg.Counter("dpc.coalesced").Inc()
	p.reg.Counter("dpc.coalesce_head_shared").Inc()
	return stageRespond, nil
}

// serveFollower streams a flight to one parked request: replay the chunks
// already buffered, then live chunks as the leader appends them, until the
// flight closes. The follower's first byte goes out as soon as the leader
// has produced one — it does not wait for the completed page.
func (p *Proxy) serveFollower(rs *reqState, f *flight, fol *follower) (stageOutcome, error) {
	defer f.detach(fol)
	ctx := rs.r.Context()
	stop := context.AfterFunc(ctx, f.wake)
	defer stop()
	cancelled := func() bool { return ctx.Err() != nil }
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	committed := false
	commit := func(c flightChunk) {
		h := rs.w.Header()
		ctype := c.ctype
		if ctype == "" {
			ctype = "text/html; charset=utf-8"
		}
		h.Set("Content-Type", ctype)
		if c.state == flightDone {
			// The whole page is already buffered: its length is exact.
			clen := c.total
			if clen == 0 && c.clen > 0 {
				clen = c.clen // bodyless response (HEAD): leader's declared length
			}
			h.Set("Content-Length", strconv.FormatInt(clen, 10))
		}
		h.Set("Via", "dpcache-dpc/1.0")
		h.Set("X-Cache", "COALESCE-FOLLOWER")
		rs.w.WriteHeader(http.StatusOK)
		committed = true
		rs.streamed = true
		rs.cacheState = "COALESCE-FOLLOWER"
	}
	for {
		c := f.next(fol, *bufp, cancelled)
		// A client that knew the page's length can hang up the moment it
		// has read the last byte, before this loop comes round to see the
		// flight done: that follower was served, and finishes as one.
		served := committed && c.n == 0 && c.state == flightDone
		if cancelled() && !served {
			return stageDone, nil // client gone; nothing left to serve
		}
		if c.state == flightAborted {
			// Terminal states outrank buffered bytes: an aborted flight's
			// buffer is a torn prefix, and a follower that has not
			// committed must never be served any of it.
			if committed {
				// Part of the leader's page already reached our client;
				// the only honest signal left is an aborted connection.
				return stageDone, fmt.Errorf("dpc: coalesced leader aborted mid-stream")
			}
			// Nothing committed: fetch independently instead of amplifying
			// the leader's failure to every parked request.
			p.reg.Counter("dpc.coalesce_fallbacks").Inc()
			rs.span.Event(trace.KindMiss, "coalesce", "leader-aborted", 0)
			return stageNext, nil
		}
		if c.overrun {
			// We fell more than the buffer cap behind the leader and our
			// unread bytes were dropped to bound the flight's memory.
			if committed {
				return stageDone, fmt.Errorf("dpc: follower overran the coalesce broadcast buffer")
			}
			p.reg.Counter("dpc.coalesce_overflows").Inc()
			rs.span.Event(trace.KindMiss, "coalesce", "overrun", 0)
			return stageNext, nil
		}
		if c.n > 0 {
			if !committed {
				commit(c)
			}
			if _, err := rs.w.Write((*bufp)[:c.n]); err != nil {
				return stageDone, nil // client write failed mid-stream
			}
			if fl, ok := rs.w.(http.Flusher); ok {
				fl.Flush()
			}
			continue
		}
		if c.state == flightDone {
			if !committed {
				commit(c) // empty page or bodyless response
			}
			p.reg.Counter("dpc.coalesced").Inc()
			return stageRespond, nil
		}
		// flightOpen with no bytes: spurious wakeup.
	}
}

// finishFlight closes the leader's flight, releasing its followers. A
// response that came through the spoolWriter has already broadcast every
// chunk; one that never touched it (a plain static fill holds its whole
// body) is published as one chunk first. Safe to call when the request
// leads no flight.
func (p *Proxy) finishFlight(rs *reqState, err error) {
	if rs.flight == nil {
		return
	}
	f := rs.flight
	rs.flight = nil
	if err == nil && !rs.streamed {
		f.publishHeaders(rs.ctype, -1)
		f.append(rs.body)
	}
	p.flights.finish(f, err != nil)
}

// --- origin-fetch ---

// flightKey is flightKey(rs.r), built once.
func (rs *reqState) flightKey() string {
	if rs.fetchKey == "" {
		rs.fetchKey = flightKey(rs.r)
	}
	return rs.fetchKey
}

// offerPlan names, on a first-try GET's origin request, the plan the proxy
// holds for the template this key was last sent: the hint table remembers
// the digest, the plan cache must still hold its plan, and the request
// keeps that plan until the answer. The origin generates the template as
// ever and, when its digest is the one offered, answers with the headers
// alone (headerSame); any other answer is the template in full, so a hint
// can be wrong, or the origin deaf to it, at no cost but the bytes.
func (p *Proxy) offerPlan(rs *reqState, req *http.Request) {
	rs.hintKey = rs.flightKey()
	d, ok := p.hints.lookup(rs.hintKey)
	if !ok {
		return
	}
	if rs.held = p.plans.Lookup(d); rs.held == nil {
		return
	}
	var have [2 * len(d)]byte
	hex.Encode(have[:], d[:])
	req.Header.Set(headerHave, string(have[:]))
	p.reg.Counter("dpc.template_offers").Inc()
	rs.span.Event(trace.KindInfo, "origin", "offer", 0)
}

// maxForwardBody bounds the request-body bytes buffered for replay.
const maxForwardBody = 8 << 20

// forwardedHeaders are the client headers relayed to the origin. Hop-by-hop
// headers and Accept-Encoding (the proxy must see templates uncompressed)
// are deliberately absent.
var forwardedHeaders = []string{
	"X-User", "Cookie", "Accept", "Accept-Language", "Authorization",
	"Content-Type", "Referer", "User-Agent", "X-Requested-With",
}

// originRequest forwards the client's method, body, and relevant headers to
// the origin and returns the (status-200) response. A non-nil bypassStale
// forces a plain non-template response and reports the stale slots so the
// BEM invalidates them.
func (p *Proxy) originRequest(rs *reqState, bypassStale []StaleRef) (*http.Response, error) {
	r := rs.r
	if rs.reqBody == nil && r.Body != nil && (r.ContentLength != 0 || len(r.TransferEncoding) > 0) {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody+1))
		if err != nil {
			return nil, fmt.Errorf("reading request body: %w", err)
		}
		if len(b) > maxForwardBody {
			return nil, fmt.Errorf("request body exceeds %d bytes", maxForwardBody)
		}
		rs.reqBody = b
	}
	var body io.Reader
	if rs.reqBody != nil {
		body = bytes.NewReader(rs.reqBody)
	}
	ctx := r.Context()
	if f := rs.flight; f != nil {
		// A coalesce leader fetches on behalf of every follower, so its
		// origin context must not die with its own client: detach it, and
		// re-arm cancellation only when the client disconnects with no
		// followers attached (then nobody is left to drain for). A leader
		// whose client goes away mid-flight keeps draining the origin and
		// broadcasting to committed followers (see spoolWriter.send)
		// instead of aborting the flight.
		if rs.originCancel != nil {
			rs.originCancel() // a previous fetch's watcher (bypass retry)
		}
		dctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		stop := context.AfterFunc(ctx, func() {
			if f.waiterCount() == 0 {
				cancel()
			}
		})
		rs.originCancel = func() { stop(); cancel() }
		ctx = dctx
	}
	req, err := http.NewRequestWithContext(ctx, r.Method,
		p.cfg.OriginURL+r.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardedHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if host, _, splitErr := net.SplitHostPort(r.RemoteAddr); splitErr == nil && host != "" {
		//dpclint:ignore headerkey X-Forwarded-For is appended to the outbound forwarding chain only; it never selects a response, so it cannot cross-serve
		if prior := r.Header.Get("X-Forwarded-For"); prior != "" {
			host = prior + ", " + host
		}
		req.Header.Set("X-Forwarded-For", host)
	}
	req.Header.Set(headerCapable, "1")
	if rs.trace.Sampled() {
		// Propagate the trace id so a downstream dpc hop (edge → interior
		// proxy) stitches its trace to this one. Deliberately not part of
		// forwardedHeaders: it must never enter the coalesce key.
		req.Header.Set(trace.Header, rs.trace.TraceID())
	}
	rs.hintKey, rs.held = "", nil
	if bypassStale != nil {
		req.Header.Set(headerBypass, "1")
		if s := FormatStaleRefs(bypassStale); s != "" {
			req.Header.Set(headerStale, s)
		}
	} else if r.Method == http.MethodGet {
		p.offerPlan(rs, req)
	}
	t0 := time.Now()
	resp, err := p.client.Do(req)
	if a := p.admit; a != nil {
		a.observe(time.Since(t0))
	}
	if err != nil {
		if a := p.admit; a != nil && negEligible(r, err) {
			if a.negFill(flightKey(r)) {
				p.reg.Counter("dpc.negcache_fills").Inc()
			}
		}
		return nil, fmt.Errorf("origin fetch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if a := p.admit; a != nil && negEligible(r, nil) {
			if a.negFill(flightKey(r)) {
				p.reg.Counter("dpc.negcache_fills").Inc()
			}
		}
		return nil, fmt.Errorf("origin status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	switch same := resp.Header.Get(headerSame) != ""; {
	case !same:
		rs.held = nil // answered in full: the offer was declined, or never heard
	case rs.held == nil || resp.Header.Get(headerTemplate) == "":
		// A reference may answer only an offer, and only as a template.
		resp.Body.Close()
		return nil, fmt.Errorf("origin answered %s where no offered template stands for the body", headerSame)
	default:
		p.reg.Counter("dpc.template_refs").Inc()
	}
	return resp, nil
}

func (p *Proxy) stageOriginFetch(rs *reqState) (stageOutcome, error) {
	resp, err := p.originRequest(rs, nil)
	if err != nil {
		return stageNext, err
	}
	if rs.pageCapture != nil && !pageCacheable(resp.Header) {
		rs.pageUncacheable = true
		rs.pageCapture.discard()
		rs.span.Event(trace.KindBypass, "page", "origin-uncacheable", 0)
	}
	ctype := resp.Header.Get("Content-Type")
	codecName := resp.Header.Get(headerTemplate)
	if rs.span != nil {
		shape := "template"
		switch {
		case codecName == "":
			shape = "plain"
		case rs.held != nil:
			shape = "template-ref"
		}
		rs.span.Event(trace.KindInfo, "origin", shape, resp.ContentLength)
	}
	if codecName == "" {
		// Plain response: pass through untouched, caching it by URL when
		// the origin explicitly allows (static content only — templates
		// and bypass pages never carry Cache-Control).
		defer resp.Body.Close()
		p.reg.Counter("dpc.plain_passthrough").Inc()
		var ttl time.Duration
		if rs.r.Method == http.MethodGet {
			var varied bool
			ttl, varied = cacheableStatic(resp)
			if varied {
				// Cacheable by Cache-Control but varying on a header the
				// static key does not fold in: a URL-keyed entry would
				// serve one variant to every client.
				p.reg.Counter("dpc.static_uncacheable_vary").Inc()
			}
		}
		rs.ctype, rs.cacheState = ctype, "MISS"
		if ttl <= 0 {
			if err := p.relayPlain(rs, resp); err != nil {
				return stageNext, err
			}
			return stageRespond, nil
		}
		// The static tier retains the bytes, so this one body is read whole.
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return stageNext, err
		}
		p.static.Put(staticKey(rs.r), body, ctype, ttl)
		rs.staticFilled = true
		rs.span.Event(trace.KindFill, "static", "", int64(len(body)))
		if rs.pageCapture != nil {
			rs.pageCapture.discard() // the static tier owns this body now
		}
		rs.body = body
		return stageRespond, nil
	}
	if codecName != p.codec.Name() {
		resp.Body.Close()
		return stageNext, fmt.Errorf("origin codec %q does not match proxy codec %q",
			codecName, p.codec.Name())
	}
	rs.resp, rs.ctype, rs.cacheState = resp, ctype, "MISS"
	return stageNext, nil
}

// --- assemble ---

func (p *Proxy) recordAssembleStats(st AssembleStats) {
	p.reg.Counter("dpc.template_bytes").Add(st.TemplateBytes)
	p.reg.Counter("dpc.page_bytes").Add(st.PageBytes)
	p.reg.Counter("dpc.gets").Add(int64(st.Gets))
	p.reg.Counter("dpc.sets").Add(int64(st.Sets))
	if st.ParallelGets > 0 {
		p.reg.Counter("dpc.plancache_parallel_gets").Add(int64(st.ParallelGets))
	}
}

func (p *Proxy) stageAssemble(rs *reqState) (stageOutcome, error) {
	resp := rs.resp
	rs.resp = nil
	defer resp.Body.Close()

	max := p.spool
	var file func(page []byte, refs []StaleRef)
	if ttl := p.assembledStaticTTL(rs, resp); ttl > 0 {
		// The origin opted this page into the static tier, which wants all
		// of its bytes: hold the whole page and file it from the spool. The
		// dependency index's flush generation is read before assembly reads
		// any fragment, so the fill can detect a fabric flush racing it.
		max = wholePage
		epoch := p.depix.Epoch()
		file = func(page []byte, refs []StaleRef) { p.fillStaticAssembled(rs, page, refs, epoch, ttl) }
	}
	stats, err := p.assemblePage(rs, resp.Body, resp.ContentLength, max, file)
	if errors.Is(err, ErrStale) && !rs.streamed {
		// Clean abort-to-bypass: nothing reached the client, and nothing
		// entered the flight broadcast (the spool holds uncommitted bytes
		// back from both).
		rs.staleRefs = stats.Stale
		return stageNext, nil
	}
	if err != nil {
		return stageNext, err
	}
	return stageRespond, nil
}

// assemblePage assembles the template in body (of declared length clen, -1
// when undeclared) into the response through a spool writer bounded by max.
// Staleness caught inside the spool returns ErrStale with nothing
// committed, for the caller to recover from; past it the response is torn
// (rs.streamed tells the runner to abort it) and the stale slots are
// reported out of band. file, when set, is handed the complete page before
// it is flushed (max must then be wholePage).
func (p *Proxy) assemblePage(rs *reqState, body io.Reader, clen int64, max int, file func(page []byte, refs []StaleRef)) (AssembleStats, error) {
	sw := p.newSpoolWriter(rs, max, -1)
	defer sw.release()
	stats, err := p.assemble(sw, body, clen, rs)
	p.recordAssembleStats(stats)
	if err != nil {
		if sw.committed && errors.Is(err, ErrStale) {
			// The page is torn, but the BEM must still learn about the
			// stale slots or the next template repeats the same doomed
			// GET and every request aborts forever.
			p.reg.Counter("dpc.stream_aborts").Inc()
			p.reportStaleAsync(rs.r.Context(), rs.r.URL.RequestURI(), stats.Stale)
		}
		return stats, err
	}
	early := sw.committed
	if file != nil {
		file(sw.spool, stats.Refs)
	}
	if err := sw.flush(); err != nil {
		return stats, err
	}
	if rs.pageKey != "" {
		rs.depRefs = stats.Refs
	}
	p.reg.Counter("dpc.assembled").Inc()
	if early {
		p.reg.Counter("dpc.streamed").Inc()
	}
	return stats, nil
}

// assembledStaticTTL reports the static-tier lifetime the origin granted
// this template's assembled page (Cache-Control: max-age on the template
// response; see cacheableAssembled), zero when it granted none or the
// request carries an identity the page could have been personalized on.
// The paper's rule that dynamic pages are never URL-keyed stays the
// default — this exists only for origins that declare an assembled page
// cacheable.
func (p *Proxy) assembledStaticTTL(rs *reqState, resp *http.Response) time.Duration {
	if rs.r.Method != http.MethodGet || !anonymousSession(rs.r) {
		return 0
	}
	ttl, varied := cacheableAssembled(resp)
	if varied {
		p.reg.Counter("dpc.static_uncacheable_vary").Inc()
	}
	return ttl
}

// fillStaticAssembled files an assembled page the origin opted in (see
// assembledStaticTTL) into the static tier. Unlike a plain static fill the
// entry is fragment-composed, so its dependency edges are recorded under
// the static key and the static-tier subscriber drops it the moment a
// source fragment dies. epoch is the dependency index's flush generation
// snapshotted before assembly read any fragment; a flush in between voids
// the fill. page is the writer's spool, which is reused: the tier gets a
// copy.
func (p *Proxy) fillStaticAssembled(rs *reqState, page []byte, refs []StaleRef, epoch uint64, ttl time.Duration) {
	key := staticKey(rs.r)
	page = bytes.Clone(page) // outside the filing lock
	// Fill/invalidate race, exactly as in fillPageCache: a source fragment
	// died (or the tier flushed) while this page was being assembled.
	if voided := p.fileUnlessVoided(refs, epoch, key, ttl, func() { p.static.Put(key, page, rs.ctype, ttl) }); voided != "" {
		p.reg.Counter("dpc.static_invalidations").Inc()
		rs.span.Event(trace.KindInvalidated, "static", voided, 0)
		return
	}
	rs.staticFilled = true
	p.reg.Counter("dpc.static_assembled_fills").Inc()
	rs.span.Event(trace.KindFill, "static", "assembled", int64(len(page)))
}

// reportStaleAsync delivers a stale report to the BEM when no bypass fetch
// will carry it (a torn streamed response): a fire-and-forget request with
// the bypass and stale headers whose body is discarded. Without this the
// directory keeps believing the slots are cached and every later template
// repeats the doomed GETs.
func (p *Proxy) reportStaleAsync(ctx context.Context, requestURI string, refs []StaleRef) {
	// The report must outlive the request that spawned it — the client
	// connection is already torn, so the request context is dead or
	// dying — but it should keep the request's values (trace id) rather
	// than detach entirely: WithoutCancel sheds the cancellation, the
	// timeout below re-bounds the work.
	ctx = context.WithoutCancel(ctx)
	go func() {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.cfg.OriginURL+requestURI, nil)
		if err != nil {
			return
		}
		req.Header.Set(headerCapable, "1")
		req.Header.Set(headerBypass, "1")
		req.Header.Set(headerStale, FormatStaleRefs(refs))
		resp, err := p.client.Do(req)
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		p.reg.Counter("dpc.stale_reports").Inc()
	}()
}

// --- stale-fallback ---

func (p *Proxy) stageStaleFallback(rs *reqState) (stageOutcome, error) {
	if rs.staleRefs == nil {
		return stageRespond, nil
	}
	// Recover with a bypass fetch, reporting the stale slots so the BEM
	// invalidates them and the next template carries fresh SETs instead
	// of looping here.
	p.reg.Counter("dpc.stale_fallbacks").Inc()
	if rs.span != nil {
		rs.span.Event(trace.KindStaleBypass, "fragment",
			FormatStaleRefs(rs.staleRefs), int64(len(rs.staleRefs)))
	}
	resp, err := p.originRequest(rs, rs.staleRefs)
	if err != nil {
		return stageNext, err
	}
	defer resp.Body.Close()
	if rs.pageCapture != nil && !pageCacheable(resp.Header) {
		rs.pageUncacheable = true
		rs.pageCapture.discard()
	}
	rs.ctype, rs.cacheState = resp.Header.Get("Content-Type"), "BYPASS"
	if name := resp.Header.Get(headerTemplate); name != "" {
		// An origin that ignores the bypass header still gets one assembly,
		// held whole: a second staleness is a hard error with nothing
		// committed rather than a retry loop.
		if name != p.codec.Name() {
			return stageNext, fmt.Errorf("origin codec %q does not match proxy codec %q",
				name, p.codec.Name())
		}
		if _, err := p.assemblePage(rs, resp.Body, resp.ContentLength, wholePage, nil); err != nil {
			return stageNext, err
		}
		return stageRespond, nil
	}
	p.reg.Counter("dpc.plain_passthrough").Inc()
	if rs.pageCapture != nil {
		// A plain bypass page was generated by the origin straight from
		// the repository: it is composed of fragments the proxy cannot
		// see, so it carries no dependency edges and the invalidation
		// fabric could never drop it — a filed copy would serve stale
		// fragment bytes until the TTL. Serve it uncached.
		rs.pageCapture.discard()
	}
	// The bypass page reaches the client through the same teeing writer as
	// a first-try passthrough, so followers parked on this flight receive
	// the recovery page live.
	if err := p.relayPlain(rs, resp); err != nil {
		return stageNext, err
	}
	return stageRespond, nil
}

// --- respond ---

func (p *Proxy) stageRespond(rs *reqState) (stageOutcome, error) {
	p.finishFlight(rs, nil)
	if rs.originCancel != nil {
		rs.originCancel()
		rs.originCancel = nil
	}
	if rs.admitRelease != nil {
		rs.admitRelease()
		rs.admitRelease = nil
	}
	if !rs.streamed {
		if rs.pageETag != "" {
			// A page-tier hit replays its stored strong ETag so the
			// client's next revisit can revalidate into a 304.
			rs.w.Header().Set("ETag", rs.pageETag)
		}
		p.writePage(rs.w, rs.body, rs.ctype, rs.cacheState)
	}
	p.fillPageCache(rs)
	// Every served response — hit, miss, coalesced, bypass — is counted
	// here and nowhere else.
	p.reg.Counter("dpc.requests").Inc()
	p.reg.Histogram("dpc.latency").Observe(time.Since(rs.start))
	return stageDone, nil
}
