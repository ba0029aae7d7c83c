package dpc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"time"

	"dpcache/internal/depindex"
	"dpcache/internal/trace"
)

// The pagecache stage is the whole-page cache tier: a cache of complete
// responses keyed like a coalesced flight (method, URI, forwarded
// variant headers), mounted ahead of coalesce, for anonymous-session
// traffic only. The paper's correctness argument against page-level
// caching (Section 3.2.1) is that the URL does not identify the content —
// but that argument rests on identity the cache cannot see. A request
// carrying no identity (no Cookie, Authorization, or X-User) gives the
// origin nothing to personalize on, so for that slice of traffic the URL
// *does* identify the content and a whole-page tier is sound: an
// anonymous burst on a hot page is served N−1 times from memory with one
// origin fetch. Identity-bearing requests bypass the stage
// (dpc.pagecache_bypass_identity) and take the fragment-assembly path.
//
// Freshness has two signals. The TTL (PageCacheTTL) is the baseline
// bound, and for pages containing *non-cacheable* fragments — content
// the BEM never tracks, regenerated per request — it is the only one, so
// micro-caching windows remain right for such pages. For the cacheable
// fragments, the invalidation fabric closes the gap: assembly records
// fragment→pageKey edges in the proxy's dependency index
// (internal/depindex), and a coherency PageSubscriber wired to the BEM
// drops the exact pages composed from an invalidated fragment the moment
// it dies. With the fabric attached, fragment-backed staleness no longer
// waits for the TTL, which makes realistic (multi-second) TTLs safe.
//
// Entries are stamped with a strong ETag at capture time; an anonymous
// revalidation carrying a matching If-None-Match is answered 304 with no
// body (dpc.pagecache_304s), so pages that survive invalidation cost a
// handshake instead of a transfer.

// defaultPageTTL is the page-cache freshness window when
// Config.PageCacheTTL is zero: a micro-caching TTL, long enough to absorb
// a burst, short enough that staleness of per-request (non-cacheable)
// fragment content stays invisible at human timescales.
const defaultPageTTL = 2 * time.Second

// maxPageCaptureBytes bounds the response bytes teed aside to fill the
// page cache; larger pages are served normally but not captured
// (dpc.pagecache_uncacheable). In-flight capture bytes are charged
// against the page tier's byte ledger, so a storm of concurrent misses
// evicts resident pages instead of holding budget-busting bytes off the
// books.
const maxPageCaptureBytes = 1 << 20

// pageIdentityHeaders mark a request as belonging to an identified
// session. Any of them present → the response may be personalized → the
// whole-page tier must not serve or store it.
var pageIdentityHeaders = []string{"X-User", "Cookie", "Authorization"}

// anonymousSession reports whether the request carries no identity the
// origin could personalize on.
func anonymousSession(r *http.Request) bool {
	for _, h := range pageIdentityHeaders {
		if r.Header.Get(h) != "" {
			return false
		}
	}
	return true
}

// pageKey identifies a cached page. It is the coalesce key — method, full
// request URI, and every forwarded header the origin may vary a response
// on (Accept, Accept-Language, User-Agent, X-Requested-With, …) — so two
// requests share a cached page exactly when they would have shared a
// coalesced fetch: only if the origin would have produced byte-identical
// responses for both. Keying on the URL alone would hand one client's
// variant (a French page, a JSON XHR body) to another. The identity
// headers in the key are always empty here: identity-bearing requests
// bypassed the stage already.
func pageKey(r *http.Request) string { return coalesceKey(r) }

// PageKeyPrefix returns the page-tier store-key prefix shared by every
// variant of one request URI. The coherency fabric's purge events use it
// to drop a URI surgically without knowing the full variant-header key.
func PageKeyPrefix(uri string) string {
	return http.MethodGet + "\x00" + uri + "\x00"
}

// StaticKeyPrefix is PageKeyPrefix's static-tier counterpart (the static
// key is URI plus the folded Accept-Encoding variant).
func StaticKeyPrefix(uri string) string { return uri + "\x00" }

// pageETag computes the strong entity tag a page-tier entry is stamped
// with at capture time: a content hash, so the tag changes exactly when
// the body does and survives re-captures of identical bytes.
func pageETag(body []byte, ctype string) string {
	h := fnv.New128a()
	_, _ = h.Write(body)
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(ctype))
	return fmt.Sprintf("\"%x\"", h.Sum(nil))
}

// etagMatches reports whether an If-None-Match header value matches the
// stored entity tag, per RFC 9110's weak comparison (a W/ prefix on the
// client's copy is ignored — weak comparison is what If-None-Match
// specifies) with support for "*" and comma-separated lists.
func etagMatches(r *http.Request, etag string) bool {
	for _, line := range r.Header.Values("If-None-Match") {
		for _, tok := range strings.Split(line, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "*" {
				return true
			}
			tok = strings.TrimPrefix(tok, "W/")
			if tok != "" && tok == etag {
				return true
			}
		}
	}
	return false
}

// pageCacheable inspects an *origin* response's headers (the proxy does
// not relay them to clients, so the capture cannot be consulted) and
// reports whether the page may enter the page tier: the origin did not
// forbid caching (Cache-Control: no-store, no-cache, private — checked
// across every Cache-Control header line) and set no cookie (a
// Set-Cookie response is per-client state even on an anonymous request).
// Vary needs no check here — every *header* the origin can vary on is
// either folded into pageKey or never forwarded. The one non-header
// exclusion is client IP: X-Forwarded-For is deliberately outside
// pageKey (as it is outside the coalesce key, and for the same reason —
// it differs per client and would disable the tier outright), so origins
// that vary responses on client IP must not enable PageCache.
func pageCacheable(h http.Header) bool {
	if h.Get("Set-Cookie") != "" {
		return false
	}
	for _, v := range h.Values("Cache-Control") {
		for _, part := range strings.Split(v, ",") {
			switch strings.TrimSpace(strings.ToLower(part)) {
			case "no-store", "no-cache", "private":
				return false
			}
		}
	}
	return true
}

// --- pagecache ---

func (p *Proxy) stagePageCache(rs *reqState) (stageOutcome, error) {
	// Bodyless GETs only, the coalescable() discipline: a request body is
	// forwarded to the origin and can vary the response, but is not part
	// of pageKey — caching a bodied GET would serve one body's page to
	// another.
	if p.pages == nil || rs.r.Method != http.MethodGet ||
		rs.r.ContentLength != 0 || len(rs.r.TransferEncoding) > 0 {
		return stageNext, nil
	}
	if !anonymousSession(rs.r) {
		p.reg.Counter("dpc.pagecache_bypass_identity").Inc()
		rs.span.Event(trace.KindBypass, "page", "identity", 0)
		return stageNext, nil
	}
	key := pageKey(rs.r)
	if p.admit != nil && isReval(rs.r.Context()) {
		// A background revalidation skips the lookup — its purpose is to
		// refresh this very entry — but still captures its response below
		// so fillPageCache replaces the stale copy, with the usual
		// fill/invalidate race check voiding the fill if the fabric
		// invalidates a source fragment mid-revalidation.
		rs.pageKey = key
		rs.depEpoch = p.depix.Epoch()
		pc := &pageCapture{ResponseWriter: rs.w, reserve: p.pages.ReserveCapture}
		rs.pageCapture = pc
		rs.w = pc
		return stageNext, nil
	}
	lookup := p.pages.GetTagged
	if p.admit != nil {
		// Keep expired pages resident for the admission stage's
		// stale-while-revalidate path (see KeyedStore.GetKeep).
		lookup = p.pages.GetTaggedKeep
	}
	if body, ctype, etag, ok := lookup(key); ok {
		p.reg.Counter("dpc.pagecache_hits").Inc()
		if etag != "" && etagMatches(rs.r, etag) {
			// Conditional hit: the client already holds these bytes. A
			// 304 carries the tag back and nothing else — zero body
			// bytes for a revalidation of a surviving page.
			p.reg.Counter("dpc.pagecache_304s").Inc()
			rs.span.Event(trace.KindHit, "page", "304", 0)
			h := rs.w.Header()
			h.Set("ETag", etag)
			h.Set("Via", "dpcache-dpc/1.0")
			h.Set("X-Cache", "PAGE")
			rs.w.WriteHeader(http.StatusNotModified)
			rs.streamed = true // headers committed; respond must not write a body
			rs.cacheState = "PAGE"
			return stageRespond, nil
		}
		rs.span.Event(trace.KindHit, "page", "", int64(len(body)))
		rs.body, rs.ctype, rs.cacheState = body, ctype, "PAGE"
		rs.pageETag = etag
		return stageRespond, nil
	}
	p.reg.Counter("dpc.pagecache_misses").Inc()
	rs.span.Event(trace.KindMiss, "page", "", 0)
	// Tee everything the rest of the pipeline writes to this client —
	// cache-hit page, origin-path writer, coalesced broadcast — into a
	// bounded side buffer; stageRespond files it under this key. The
	// epoch snapshot dates the capture: if the fabric flushes the tier
	// while this response is in flight, the fill is discarded (the flush
	// could not have removed an entry not yet filed).
	rs.pageKey = key
	rs.depEpoch = p.depix.Epoch()
	pc := &pageCapture{ResponseWriter: rs.w, reserve: p.pages.ReserveCapture}
	rs.pageCapture = pc
	rs.w = pc
	return stageNext, nil
}

// fileUnlessVoided files a fragment-composed entry into a keyed tier
// through put, unless an invalidation has already voided it: one of refs
// is tombstoned, or the tier was flushed since epoch was read. The check,
// the dependency edges and the Put all happen under the index's Filing
// lock, which invalidations take exclusively — so the entry is either
// refused, or filed with its edges before the invalidation's Delete looks
// for it. It is never servable after the invalidation has been applied,
// not even for the instant a file-then-unfile would allow. ttl is the
// lifetime put gives the entry; the edges live as long. voided is empty
// when the entry was filed and otherwise names what refused it:
// "fragment-tombstone", or "epoch-flush:" and the flush's cause.
func (p *Proxy) fileUnlessVoided(refs []StaleRef, epoch uint64, key string, ttl time.Duration, put func()) (voided string) {
	// The index speaks packed integer refs; a page's worth converts on the
	// stack.
	var buf [64]depindex.ID
	ids := buf[:0]
	for _, r := range refs {
		ids = append(ids, depindex.MakeID(r.Key, r.Gen))
	}
	filing := p.depix.Filing()
	filing.Lock()
	defer filing.Unlock()
	if p.depix.Epoch() != epoch {
		return "epoch-flush:" + p.depix.BumpCause()
	}
	if p.depix.AnyInvalid(ids) {
		return "fragment-tombstone"
	}
	p.depix.File(ids, key, ttl)
	put()
	return ""
}

// fillPageCache files a captured response into the whole-page tier; called
// from the respond stage once the response has fully reached the client.
func (p *Proxy) fillPageCache(rs *reqState) {
	c := rs.pageCapture
	if p.pages == nil || c == nil {
		return
	}
	defer c.settle()
	if rs.staticFilled {
		// The body just entered the static tier, whose stage runs first
		// and whose TTL the origin chose; a page-tier copy would be dead
		// weight duplicating the bytes.
		return
	}
	if rs.cacheState == "COALESCE-FOLLOWER" {
		// pageKey == coalesce key, so the flight's leader is filling this
		// exact key (with origin-header knowledge the follower lacks).
		return
	}
	if c.status != http.StatusOK || c.overflow || rs.pageUncacheable {
		p.reg.Counter("dpc.pagecache_uncacheable").Inc()
		rs.span.Event(trace.KindBypass, "page", "uncacheable", 0)
		return
	}
	if c.discarded {
		// The capture was dropped mid-request for a reason none of the
		// cases above explain (e.g. this request parked as a follower,
		// then the leader aborted and it fell back to its own fetch):
		// the buffer no longer holds the page. Filing it would poison
		// the key with an empty body.
		return
	}
	body := c.buf.Bytes()
	ctype := c.Header().Get("Content-Type")
	// Settle the in-flight reservation before the Put reserves the stored
	// copy: double-charging the same bytes would evict the very entry
	// being filed on a tight budget.
	c.settle()
	// Fill/invalidate race: one of this page's fragments died (or the
	// tier was flushed) while the response was in flight.
	if voided := p.fileUnlessVoided(rs.depRefs, rs.depEpoch, rs.pageKey, p.pageTTL, func() {
		p.pages.PutTagged(rs.pageKey, body, ctype, pageETag(body, ctype), p.pageTTL)
	}); voided != "" {
		p.reg.Counter("dpc.pagecache_invalidations").Inc()
		rs.span.Event(trace.KindInvalidated, "page", voided, 0)
		return
	}
	p.reg.Counter("dpc.pagecache_fills").Inc()
	rs.span.Event(trace.KindFill, "page", "", int64(len(body)))
}

// pageCapture tees a response into a bounded buffer on its way to the
// client. It deliberately wraps every downstream write path — writePage,
// the spoolWriter, a coalesced follower's replay — so
// the page cache fills regardless of which pipeline branch produced the
// page. Buffered bytes are reserved against the page tier's byte ledger
// while in flight (see maxPageCaptureBytes) and settled when the capture
// is filed, discarded, or the request ends.
type pageCapture struct {
	http.ResponseWriter
	status    int
	buf       bytes.Buffer
	overflow  bool
	discarded bool // the fill is already known moot; stop buffering

	reserve  func(delta int64) // page tier's ledger hook; nil skips accounting
	reserved int64
}

// discard drops the retained bytes and stops buffering: called as soon as
// a request learns its fill can never be used (it became a coalesced
// follower — the leader fills the same key — or its body already entered
// the static tier), so a hot burst does not copy the page N extra times.
func (c *pageCapture) discard() {
	c.buf = bytes.Buffer{}
	c.discarded = true
	c.settle()
}

// settle releases the capture's ledger reservation; idempotent, and
// called on every terminal path (fill, discard, overflow, request
// failure).
func (c *pageCapture) settle() {
	if c.reserved != 0 && c.reserve != nil {
		c.reserve(-c.reserved)
		c.reserved = 0
	}
}

func (c *pageCapture) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *pageCapture) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	if !c.overflow && !c.discarded {
		if c.buf.Len()+len(b) <= maxPageCaptureBytes {
			before := int64(c.buf.Cap())
			c.buf.Write(b)
			if delta := int64(c.buf.Cap()) - before; delta > 0 && c.reserve != nil {
				c.reserved += delta
				c.reserve(delta)
			}
		} else {
			c.overflow = true
			c.buf = bytes.Buffer{} // release what was retained
			c.settle()
		}
	}
	return c.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming paths keep their
// flush-per-chunk behavior through the tee.
func (c *pageCapture) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
