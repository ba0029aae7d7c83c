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
//	admin → pagecache → admission → coalesce → origin-fetch →
//	assemble → stale-fallback → respond
//
// Each stage owns a latency histogram (dpc.stage.<name>.latency) so
// per-stage cost is observable from /_dpc/stats, and each can short-circuit
// the rest of the pipeline (a tier hit jumps straight to respond; a
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
	body       []byte // whole body from the tier (nil when a writer carried it)
	ctype      string
	cacheState string // STATIC, PAGE, MISS, LEASE, COALESCE-FOLLOWER, or BYPASS
	streamed   bool   // headers (and whatever body followed) already reached the client

	// reqBody is the client's request body, buffered once so the
	// stale-fallback retry can replay it to the origin.
	reqBody []byte

	// resp is the open origin response handed from origin-fetch to
	// assemble (template mode only).
	resp *http.Response

	// fetchKey is the request's flight key, built once by whichever of
	// admission, coalesce and origin-fetch first needs it.
	fetchKey string
	// hintKey is the key a template fetched for this request is learnt
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

	// fillKey, fillTTL and fillRule are the request's tier admission: the
	// key its response is filed under, for how long, and by which rule
	// (rulePage or ruleStatic). The pagecache stage sets them for the page
	// rule and admitOrigin for the origin's opt-in; pageCapture, attached
	// with the first of them, tees the outgoing response aside for
	// respond to file.
	fillKey     string
	fillTTL     time.Duration
	fillRule    string
	pageCapture *pageCapture
	// hitETag is the stored entity tag of a tier hit; respond relays it so
	// clients can revalidate conditionally next time.
	hitETag string
	// depRefs are the fragment references whose bytes flowed into this
	// response (assembly only), depEpoch the tier's flush epoch when the
	// capture began, and pageUntil the end of the page-scoped grant the
	// origin's answer carried (grantLease; zero for none, and cleared when
	// the stale fallback fetched another answer), in the proxy clock's
	// UnixNano: together the record fillTier files the entry with, which
	// voided judges on the fill and on every read, and granted on an
	// identified visitor's.
	depRefs   []StaleRef
	depEpoch  uint64
	pageUntil int64

	// admitRelease releases the admission stage's in-flight token
	// (idempotent; nil when the stage took none). Called in respond and
	// fail — the token covers the request's whole origin-bound lifetime.
	admitRelease func()
	// admitFollower reports that admission let the request through as the
	// follower of a flight already open for its key, with no token.
	admitFollower bool
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

// --- coalesce ---

func (p *Proxy) stageCoalesce(rs *reqState) (stageOutcome, error) {
	if p.flights == nil || !coalescable(rs.r) {
		return stageNext, nil
	}
	out, err := p.coalesce(rs)
	if out == stageNext && err == nil && rs.admitFollower {
		// Admitted as a follower, the request is about to fetch after
		// all: the flight closed before it could join, or failed it. Admit
		// it again, as the origin fetch it now is — under a hard bound a
		// tier entry filed by that flight, or a stale one, or a shed.
		rs.admitFollower = false
		if p.readmitting != nil {
			p.readmitting(rs.r)
		}
		return p.admitRequest(rs, false)
	}
	return out, err
}

// coalesce joins the request's flight: it leads a new one, or follows the
// open one to its end, or — where it cannot follow — falls through to fetch
// independently. A request admitted as a follower never leads.
func (p *Proxy) coalesce(rs *reqState) (stageOutcome, error) {
	f, leader, fol := p.flights.join(rs.flightKey(), rs.r.Method, !rs.admitFollower)
	if leader {
		rs.flight = f
		rs.span.Event(trace.KindRole, "coalesce", "leader", int64(f.id))
		return stageNext, nil
	}
	if f == nil {
		// No flight it may lead, or a method mismatch: a GET cannot be
		// served from a HEAD-led flight (the leader's response has no
		// body). Fetch independently.
		note := "method-mismatch"
		if rs.admitFollower {
			note = "no-flight"
		}
		rs.span.Event(trace.KindMiss, "coalesce", note, 0)
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

// finishFlight closes the leader's flight, releasing its followers: every
// response a leader serves came through the spoolWriter, which has already
// broadcast every chunk. Safe to call when the request leads no flight.
func (p *Proxy) finishFlight(rs *reqState, err error) {
	if rs.flight == nil {
		return
	}
	f := rs.flight
	rs.flight = nil
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
// holds for the template this request's identity was last sent when it
// differed from its page's, else for the page's last template: the hint
// table remembers the digest, the plan cache must still hold its plan, and
// the request keeps that plan until the answer. The origin generates the
// template as ever and, when its digest is the one offered, answers with
// the headers alone (headerSame); any other answer is the template in full,
// so a hint can be wrong, or the origin deaf to it, at no cost but the
// bytes.
func (p *Proxy) offerPlan(rs *reqState, req *http.Request) {
	rs.hintKey = rs.flightKey()
	d, own, ok := p.hints.offer(rs.hintKey)
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
	note := "offer:page"
	if own {
		note = "offer:identity"
	}
	rs.span.Event(trace.KindInfo, "origin", note, 0)
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
		if p.leasing(r) {
			req.Header.Set(headerLease, "1")
		}
	}
	t0 := p.clk.Now()
	resp, err := p.client.Do(req)
	if a := p.admit; a != nil {
		a.observe(p.clk.Now().Sub(t0))
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

// stageOriginFetch fetches the request from the origin, unless a live lease
// stands in for the round trip.
func (p *Proxy) stageOriginFetch(rs *reqState) (stageOutcome, error) {
	if p.useLease(rs) {
		return stageNext, nil
	}
	return p.fetchOrigin(rs)
}

// fetchOrigin asks the origin and takes its answer in: the tier opt-in, the
// lease an answer by reference grants, and the template or the plain body.
func (p *Proxy) fetchOrigin(rs *reqState) (stageOutcome, error) {
	epoch := p.fabric.epoch.Load() // dates a fill the origin's answer may opt into, and a lease
	start := p.clk.Now()
	resp, err := p.originRequest(rs, nil)
	if err != nil {
		return stageNext, err
	}
	p.admitOrigin(rs, resp, epoch)
	if rs.held != nil {
		p.grantLease(rs, resp, start, epoch)
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
		// Plain response: pass through untouched.
		defer resp.Body.Close()
		p.reg.Counter("dpc.plain_passthrough").Inc()
		rs.ctype, rs.cacheState = ctype, "MISS"
		if err := p.relayPlain(rs, resp); err != nil {
			return stageNext, err
		}
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
}

func (p *Proxy) stageAssemble(rs *reqState) (stageOutcome, error) {
	if rs.cacheState == "LEASE" {
		if served, err := p.assembleLease(rs); served || err != nil {
			return stageRespond, err
		}
		// The lease was void: fetch as if there had been none.
		if out, err := p.fetchOrigin(rs); out != stageNext || err != nil {
			return out, err
		}
	}
	resp := rs.resp
	rs.resp = nil
	defer resp.Body.Close()

	stats, err := p.assemblePage(rs, resp.Body, resp.ContentLength, p.spool)
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
// reported out of band.
func (p *Proxy) assemblePage(rs *reqState, body io.Reader, clen int64, max int) (AssembleStats, error) {
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
	if err := sw.flush(); err != nil {
		return stats, err
	}
	if rs.pageCapture != nil {
		rs.depRefs = stats.Refs
	}
	p.reg.Counter("dpc.assembled").Inc()
	if early {
		p.reg.Counter("dpc.streamed").Inc()
	}
	return stats, nil
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
	// of looping here. The bypass answer is not the plan a page-scoped
	// grant vouched for: the page it files is the asker's alone.
	rs.pageUntil = 0
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
	switch {
	case rs.fillRule == ruleStatic:
		// The opt-in came with the template that went stale: the bypass
		// answer is not what the origin opted in.
		rs.pageCapture.discard()
	case rs.pageCapture != nil && !pageCacheable(resp.Header):
		rs.pageCapture.refuse()
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
		if _, err := p.assemblePage(rs, resp.Body, resp.ContentLength, wholePage); err != nil {
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
		if rs.hitETag != "" {
			// A tier hit replays its stored strong ETag so the client's
			// next revisit can revalidate into a 304.
			rs.w.Header().Set("ETag", rs.hitETag)
		}
		p.writePage(rs.w, rs.body, rs.ctype, rs.cacheState)
	}
	p.fillTier(rs)
	// Every served response — hit, miss, coalesced, bypass — is counted
	// here and nowhere else.
	p.reg.Counter("dpc.requests").Inc()
	p.reg.Histogram("dpc.latency").Observe(time.Since(rs.start))
	return stageDone, nil
}
