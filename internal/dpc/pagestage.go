package dpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"time"

	"dpcache/internal/pagecache"
	"dpcache/internal/trace"
)

// The pagecache stage is the proxy's one whole-response tier, mounted
// ahead of admission and coalesce; a request the tier misses may still be
// served there by its lease (lease.go). An entry gets in by one of two
// admission rules, and
// both fill through the same tee, the same record (voided) and the same
// store:
//
//   - the origin's opt-in (Section 4.2; see static.go): a plain GET
//     response, or the assembled page of an anonymous GET, carrying
//     Cache-Control: max-age is filed under staticKey for that long, for
//     any session. Hits say X-Cache: STATIC.
//   - the page rule (Config.PageCache): the response to an anonymous
//     bodyless GET is filed under pageKey for PageCacheTTL. Hits say
//     X-Cache: PAGE. Section 3.2.1's objection to page caching — the URL
//     does not identify the content — rests on identity the cache cannot
//     see; a request carrying none (no Cookie, Authorization, or X-User)
//     gives the origin nothing to personalize on. On a leasing proxy an
//     identified bodyless GET is answered under the same key
//     (anonymousPageKey) exactly when the entry was built under a
//     page-scoped grant (lease.go) that has not yet ended: the origin
//     certified that the run never read the visitor, and the entry's record
//     carries the grant's end. The answer that carries such a grant files
//     the page there for every visitor, whoever asked; every other
//     identified request bypasses the rule.
//
// A lookup probes the opt-in key (once any entry has been filed under it),
// then the page key, while the tier holds any entry at all; a response is
// filed under one of them, the opt-in winning. The TTL bounds the
// staleness of content the BEM never tracks. Each entry carries its
// record — the epoch its capture began under, the end of the page-scoped
// grant it was built under and the fragment refs it was assembled from —
// and every read judges it, as a lease is judged: an entry one of whose
// fragments the fabric has killed, or filed under an epoch a flush has
// ended, is deleted where it is found and never served. Entries carry a
// strong ETag, so a matching If-None-Match is answered 304
// (dpc.pagecache_304s).

// The admission rules, as named in span events.
const (
	ruleStatic = "static"
	rulePage   = "page"
)

// xCache is the X-Cache value of a hit, by the rule that admitted it.
var xCache = map[string]string{ruleStatic: "STATIC", rulePage: "PAGE"}

// defaultPageTTL is the page-cache freshness window when
// Config.PageCacheTTL is zero: a micro-caching TTL, long enough to absorb
// a burst, short enough that staleness of per-request (non-cacheable)
// fragment content stays invisible at human timescales.
const defaultPageTTL = 2 * time.Second

// maxPageCaptureBytes bounds the response bytes teed aside to fill the
// tier, under either rule; larger responses are served normally but not
// captured (dpc.pagecache_uncacheable). In-flight capture bytes are charged
// against the tier's byte ledger, so a storm of concurrent misses evicts
// resident entries instead of holding budget-busting bytes off the books.
const maxPageCaptureBytes = 1 << 20

// pageIdentityHeaders mark a request as belonging to an identified
// session. Any of them present → the response may be personalized → the
// page rule serves or stores it only under a page-scoped grant, and then
// under the key the same request would have without them
// (anonymousPageKey).
var pageIdentityHeaders = []string{"X-User", "Cookie", "Authorization"}

// anonymousSession reports whether the request carries no identity the
// origin could personalize on.
func anonymousSession(r *http.Request) bool {
	for _, h := range pageIdentityHeaders {
		if headerValue(r.Header, h) != "" {
			return false
		}
	}
	return true
}

// pageKey is the page rule's key for a request. It is the coalesce key —
// full request URI, method, and every forwarded header the origin may vary
// a response on (Accept, Accept-Language, User-Agent, X-Requested-With, …)
// — so two requests share a cached page exactly when they would have
// shared a coalesced fetch: only if the origin would have produced
// byte-identical responses for both. Keying on the URL alone would hand one
// client's variant (a French page, a JSON XHR body) to another. The
// identity headers in the key are always empty: an identified request is
// looked up under anonymousPageKey.
func pageKey(r *http.Request) string { return coalesceKey(r) }

// anonymousPageKey is pageKey of r with its identity headers blanked: the
// entry an anonymous visitor sending r's other headers is served.
func anonymousPageKey(r *http.Request) string { return buildKey(r, http.MethodGet, true) }

// PageKeyPrefix returns the tier's store-key prefix shared by every entry
// for one request URI, under either admission rule and in every variant:
// both pageKey and staticKey begin with the URI and a NUL. A fabric purge
// event (Apply) uses it to drop a URI surgically without knowing the full
// variant key.
func PageKeyPrefix(uri string) string { return uri + "\x00" }

// pageETag computes the strong entity tag a tier entry is stamped with at
// fill time, under either rule: a content hash, so the tag changes exactly
// when the body does and survives re-captures of identical bytes.
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

// pageRule reports whether the page rule admits r: the tier is on for
// pages, and r is a bodyless GET — the coalescable() discipline: a request
// body is forwarded to the origin and can vary the response, but is not
// part of pageKey — from an anonymous session. identified reports a
// bodyless GET refused for carrying an identity.
func (p *Proxy) pageRule(r *http.Request) (admit, identified bool) {
	if !p.cfg.PageCache || r.Method != http.MethodGet ||
		r.ContentLength != 0 || len(r.TransferEncoding) > 0 {
		return false, false
	}
	anon := anonymousSession(r)
	return anon, !anon
}

// tierHit is one entry found by probe, and the admission rule whose key
// found it.
type tierHit struct {
	pagecache.Page
	rule string
}

// probe looks rs's request up in the tier under each key an entry for it
// may have been filed under, in precedence order: the origin's opt-in
// (staticKey; only once the tier has filed an entry under that rule), then
// — when pkey, one of rs's page keys, is set — the page rule's. A zero
// stale reads fresh entries only (keeping expired ones resident while
// admission control may still serve them); a positive one reads entries up
// to stale past their TTL.
func (p *Proxy) probe(rs *reqState, pkey string, stale time.Duration) (hit tierHit, ok bool) {
	if p.pages.Len() == 0 {
		return tierHit{}, false // nothing is filed under either key
	}
	if p.optIn.Load() {
		if hit, ok = p.tierGet(rs, optInKey(rs.r, pkey), ruleStatic, stale); ok {
			return hit, true
		}
	}
	if pkey == "" {
		return tierHit{}, false
	}
	return p.tierGet(rs, pkey, rulePage, stale)
}

// optInKey is staticKey(r), taken without building it from pkey when that
// is one of r's page keys: every page key begins with the URI and its NUL.
func optInKey(r *http.Request, pkey string) string {
	if i := strings.IndexByte(pkey, 0); i >= 0 {
		return pkey[:i+1]
	}
	return staticKey(r)
}

// tierGet reads key and judges the entry's record: a void entry is deleted,
// counted and traced with its cause, and misses.
func (p *Proxy) tierGet(rs *reqState, key, rule string, stale time.Duration) (tierHit, bool) {
	mode := pagecache.Fresh
	switch {
	case stale > 0:
		mode = pagecache.Stale
	case p.admit != nil:
		// Keep expired entries resident for the admission stage's
		// stale-while-revalidate path (see KeyedStore.GetKeep).
		mode = pagecache.Keep
	}
	pg, ok := p.pages.Lookup(key, mode)
	if !ok {
		return tierHit{}, false
	}
	if voided := p.voided(pg.Record); voided != "" {
		if p.pages.Delete(key) {
			p.fabric.dropped.Inc()
		}
		rs.span.Event(trace.KindInvalidated, rule, voided, 0)
		return tierHit{}, false
	}
	if stale > 0 && pg.Age > stale {
		return tierHit{}, false
	}
	return tierHit{Page: pg, rule: rule}, true
}

// A tier entry's record is what it was built from, packed after its ETag
// (pagecache.Page.Record): the epoch its capture began under, 8 bytes, the
// end of the page-scoped grant it was built under (rs.pageUntil, zero for
// none), 8 bytes, then the key and generation of each fragment ref, 4 bytes
// each, little-endian.
func packRecord(epoch uint64, until int64, refs []StaleRef) string {
	b := make([]byte, recordRefs, recordRefs+8*len(refs))
	binary.LittleEndian.PutUint64(b, epoch)
	binary.LittleEndian.PutUint64(b[8:], uint64(until))
	for _, r := range refs {
		b = binary.LittleEndian.AppendUint32(b, r.Key)
		b = binary.LittleEndian.AppendUint32(b, r.Gen)
	}
	return string(b)
}

// recordRefs is the offset of a record's first ref.
const recordRefs = 16

// granted reports that the page-scoped grant the entry whose record is
// record was built under has not ended at the proxy clock's now.
func (p *Proxy) granted(record string) bool {
	until := int64(le32(record[8:])) | int64(le32(record[12:]))<<32
	return p.clk.Now().UnixNano() < until
}

// voided judges a record: "" while everything it was built from lives,
// "fragment-floor" when one of its refs is below its slot's floor
// (floorStore), and "epoch-flush:" and the flush's cause when the tier has
// been flushed since its capture began. fillTier asks before it files and
// tierGet on every read, so nothing below a floor, or filed under an older
// epoch, is served once Apply has returned — however late the fill that
// filed it, and whichever read path finds it.
func (p *Proxy) voided(record string) string {
	if len(record) < recordRefs || uint64(le32(record))|uint64(le32(record[4:]))<<32 != p.fabric.epoch.Load() {
		return "epoch-flush:" + p.fabric.flushCause()
	}
	for i := recordRefs; i+8 <= len(record); i += 8 {
		if p.floors.dead(le32(record[i:]), le32(record[i+4:])) {
			return "fragment-floor"
		}
	}
	return ""
}

// le32 reads a little-endian uint32 from the front of s.
func le32(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// stagePageCache answers the request from the whole-response tier, or else
// from its lease (serveLease): both serve without asking the origin. Only a
// request neither answers goes on to admission, the flight and the origin.
func (p *Proxy) stagePageCache(rs *reqState) (stageOutcome, error) {
	if p.lookupTier(rs) {
		return stageRespond, nil
	}
	return p.serveLease(rs)
}

// lookupTier probes the tier for a GET or HEAD and serves a hit, reporting
// whether it did; on a page-rule miss it attaches the capture that files the
// response.
func (p *Proxy) lookupTier(rs *reqState) (served bool) {
	if rs.r.Method != http.MethodGet && rs.r.Method != http.MethodHead {
		return false
	}
	page, identified := p.pageRule(rs.r)
	if p.admit != nil && isReval(rs.r.Context()) {
		// A background revalidation skips the lookup — its purpose is to
		// refresh this very entry — but still captures its response so
		// fillTier replaces the stale copy; its record voids the fill if
		// the fabric invalidates a source fragment mid-revalidation.
		if page {
			p.admitFill(rs, pageKey(rs.r), p.pageTTL, rulePage, p.fabric.epoch.Load())
		}
		return false
	}
	epoch := p.fabric.epoch.Load()
	var pkey string
	switch {
	case page:
		pkey = pageKey(rs.r)
	case identified && p.leasing(rs.r):
		pkey = anonymousPageKey(rs.r)
	}
	switch hit, ok := p.probe(rs, pkey, 0); {
	case ok && (!identified || hit.rule == ruleStatic):
		p.serveHit(rs, hit, "")
		return true
	case ok && p.granted(hit.Record):
		// An identified visitor's hit: the page was built under a
		// page-scoped grant that has not ended.
		p.m.pageIdentityHits.Inc()
		p.serveHit(rs, hit, "lease:page")
		return true
	case identified:
		p.m.pageBypassIdentity.Inc()
		rs.span.Event(trace.KindBypass, rulePage, "identity", 0)
		return false
	case pkey == "":
		rs.span.Event(trace.KindMiss, ruleStatic, "", 0)
		return false
	}
	p.m.pageMisses.Inc()
	rs.span.Event(trace.KindMiss, rulePage, "", 0)
	p.admitFill(rs, pkey, p.pageTTL, rulePage, epoch)
	return false
}

// serveHit answers the request from a fresh tier entry, with a 304 when the
// client already holds its bytes. note marks the hit's trace event:
// "lease:page" for an identified visitor's, served under the page-scoped
// grant the entry was built under.
func (p *Proxy) serveHit(rs *reqState, hit tierHit, note string) {
	p.m.pageHits.Inc()
	if hit.ETag != "" && etagMatches(rs.r, hit.ETag) {
		// Conditional hit: the client already holds these bytes. A
		// 304 carries the tag back and nothing else — zero body
		// bytes for a revalidation of a surviving entry.
		p.m.page304s.Inc()
		if note != "" {
			note += ":"
		}
		rs.span.Event(trace.KindHit, hit.rule, note+"304", 0)
		h := rs.w.Header()
		h.Set("ETag", hit.ETag)
		h.Set("Via", "dpcache-dpc/1.0")
		h.Set("X-Cache", xCache[hit.rule])
		rs.w.WriteHeader(http.StatusNotModified)
		rs.streamed = true // headers committed; respond must not write a body
		rs.cacheState = xCache[hit.rule]
		return
	}
	rs.span.Event(trace.KindHit, hit.rule, note, int64(len(hit.Body)))
	rs.body, rs.ctype, rs.cacheState = hit.Body, hit.ContentType, xCache[hit.rule]
	rs.hitETag = hit.ETag
}

// admitFill records the request's tier admission — key, TTL and rule,
// replacing any earlier one (the opt-in outranks the page rule) — and, on
// the first, tees what the rest of the pipeline writes to this client into
// the capture respond files. epoch, the tier's flush generation read
// before the origin could generate the response, dates it in the entry's
// record: a flush in between voids the fill. It must run before the
// response's first byte.
func (p *Proxy) admitFill(rs *reqState, key string, ttl time.Duration, rule string, epoch uint64) {
	rs.fillKey, rs.fillTTL, rs.fillRule = key, ttl, rule
	if rs.pageCapture != nil {
		return
	}
	rs.depEpoch = epoch
	pc := &pageCapture{ResponseWriter: rs.w, reserve: p.pages.ReserveCapture}
	rs.pageCapture = pc
	rs.w = pc
}

// admitOrigin applies the origin's opt-in to a first-try origin response:
// a max-age on a plain GET response (cacheableStatic), or on the template
// of an anonymous GET (cacheableAssembled), files it under staticKey for
// that long, whatever the page rule says; epoch was read before the fetch.
// Otherwise a page-admitted response the origin forbade caching is
// refused.
func (p *Proxy) admitOrigin(rs *reqState, resp *http.Response, epoch uint64) {
	var ttl time.Duration
	var varied bool
	switch {
	case rs.r.Method != http.MethodGet:
	case resp.Header.Get(headerTemplate) == "":
		ttl, varied = cacheableStatic(resp)
	case anonymousSession(rs.r):
		// The paper's rule that dynamic pages are never URL-keyed stays the
		// default: this is for origins that declare an assembled page
		// cacheable, and never for a page that could be personalized.
		ttl, varied = cacheableAssembled(resp)
	}
	if varied {
		// Cacheable by Cache-Control but varying on a header staticKey does
		// not fold in: a URL-keyed entry would serve one variant to every
		// client.
		p.reg.Counter("dpc.pagecache_uncacheable_vary").Inc()
	}
	if ttl > 0 {
		p.admitFill(rs, staticKey(rs.r), ttl, ruleStatic, epoch)
		return
	}
	if rs.pageCapture != nil && !pageCacheable(resp.Header) {
		rs.pageCapture.refuse()
		rs.span.Event(trace.KindBypass, rulePage, "origin-uncacheable", 0)
	}
}

// fillTier files a captured response into the tier under the request's
// admission; called from the respond stage once the response has fully
// reached the client.
func (p *Proxy) fillTier(rs *reqState) {
	c := rs.pageCapture
	if c == nil {
		return
	}
	defer c.settle()
	if rs.cacheState == "COALESCE-FOLLOWER" {
		// The flight's leader is filling this exact key (with
		// origin-header knowledge the follower lacks).
		return
	}
	if c.status != http.StatusOK || c.overflow || c.uncacheable {
		p.m.pageUncacheable.Inc()
		rs.span.Event(trace.KindBypass, rs.fillRule, "uncacheable", 0)
		return
	}
	if c.discarded {
		// The capture was dropped mid-request for a reason none of the
		// cases above explain (e.g. this request parked as a follower,
		// then the leader aborted and it fell back to its own fetch):
		// the buffer no longer holds the response. Storing it would poison
		// the key with an empty body.
		return
	}
	if rs.fillRule == rulePage && rs.pageUntil == 0 && !anonymousSession(rs.r) {
		// An identified page is filed only as the answer that carried the
		// page's grant; the stale fallback fetched another.
		return
	}
	body := c.buf.Bytes()
	ctype := c.Header().Get("Content-Type")
	// Settle the in-flight reservation before the Put reserves the stored
	// copy: double-charging the same bytes would evict the very entry
	// being filed on a tight budget.
	c.settle()
	// One of the entry's fragments died (or the tier was flushed) while
	// the response was in flight: the entry is doomed, so it is not filed.
	// An event that lands after this check finds the filed entry void on
	// its first read.
	record := packRecord(rs.depEpoch, rs.pageUntil, rs.depRefs)
	if voided := p.voided(record); voided != "" {
		p.fabric.dropped.Inc()
		rs.span.Event(trace.KindInvalidated, rs.fillRule, voided, 0)
		return
	}
	if rs.fillRule == ruleStatic && !p.optIn.Load() {
		p.optIn.Store(true) // before the entry can be found
	}
	p.pages.PutTagged(rs.fillKey, body, ctype, pageETag(body, ctype), record, rs.fillTTL)
	p.m.pageFills.Inc()
	rs.span.Event(trace.KindFill, rs.fillRule, "", int64(len(body)))
}

// pageCapture tees a response into a bounded buffer on its way to the
// client. It deliberately wraps every downstream write path — the
// spoolWriter, a coalesced follower's replay — so the tier fills regardless
// of which pipeline branch produced the response. Buffered bytes are
// reserved against the tier's byte ledger while in flight (see
// maxPageCaptureBytes) and settled when the capture is filed, discarded, or
// the request ends.
type pageCapture struct {
	http.ResponseWriter
	status      int
	buf         bytes.Buffer
	overflow    bool
	discarded   bool // the fill is already known moot; stop buffering
	uncacheable bool // the origin's headers forbade the fill (see refuse)

	reserve  func(delta int64) // page tier's ledger hook; nil skips accounting
	reserved int64
}

// discard drops the retained bytes and stops buffering: called as soon as
// a request learns its fill can never be used (it became a coalesced
// follower — the leader fills the same key — or it was served stale), so a
// hot burst does not copy the page N extra times.
func (c *pageCapture) discard() {
	c.buf = bytes.Buffer{}
	c.discarded = true
	c.settle()
}

// refuse is discard for a response the origin forbade caching
// (no-store/no-cache/private or Set-Cookie): the proxy strips origin
// headers before the client sees them, so this is decided at fetch time
// and counted at fill time (dpc.pagecache_uncacheable).
func (c *pageCapture) refuse() {
	c.uncacheable = true
	c.discard()
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
