package dpc

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The origin's opt-in rule of the whole-response tier (see pagestage.go):
// the conventional URL-keyed cache the DPC also runs (Section 4.2; the
// paper's setup serves all static content from the ISA proxy cache). Only
// a plain response the origin marks Cache-Control: max-age is admitted; a
// template response never is, whatever it carries. This file holds the
// rule's key (staticKey) and check (cacheableStatic); storage, lookup and
// filing are the tier's.

// maxAgeFrom parses Cache-Control for a positive max-age; no-store and
// no-cache disable caching.
func maxAgeFrom(cacheControl string) time.Duration {
	if cacheControl == "" {
		return 0
	}
	var age time.Duration
	for _, part := range strings.Split(cacheControl, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		switch {
		case part == "no-store", part == "no-cache", part == "private":
			return 0
		case strings.HasPrefix(part, "max-age="):
			secs, err := strconv.Atoi(part[len("max-age="):])
			if err != nil || secs <= 0 {
				return 0
			}
			age = time.Duration(secs) * time.Second
		}
	}
	return age
}

// staticVaryAllowlist names the Vary request headers the opt-in rule can
// ignore. Everything else makes a response uncacheable here: the cache is
// URL-keyed, and a variant served under a bare URL key would reach every
// client regardless of what they sent.
//
// Accept-Encoding is safe because the proxy always fetches and serves the
// identity encoding (it strips Accept-Encoding toward the origin — it
// must see templates uncompressed), so every client's variant is the same
// body; correctness never depends on matching an encoded body to the
// client.
var staticVaryAllowlist = map[string]bool{
	"Accept-Encoding": true,
}

// staticKey builds the opt-in rule's store key for a request: the full
// request URI and a NUL. It shares pageKey's leading URI and NUL (so one
// PageKeyPrefix purges both rules' entries) and cannot collide with a page
// key, which carries the method after the NUL. No allowlisted Vary header
// is folded in: the proxy serves every client the identity encoding, so
// one entry serves them all.
func staticKey(r *http.Request) string {
	return r.URL.RequestURI() + "\x00"
}

// cacheableStatic reports the TTL the origin granted a plain response under
// the opt-in rule: 200, explicitly cacheable, not a template, and carrying
// no Vary beyond the allowlist. The cache is URL-keyed, so a response the
// origin varies on any other request header (Vary: Cookie, Vary:
// User-Agent, …) would be served to clients that sent different values;
// such responses are refused. varied reports that a non-allowlisted Vary
// alone blocked an otherwise-cacheable response, so the caller can count
// the remaining refusals (dpc.pagecache_uncacheable_vary).
func cacheableStatic(resp *http.Response) (ttl time.Duration, varied bool) {
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	if resp.Header.Get(headerTemplate) != "" {
		return 0, false // dynamic: never URL-keyed (Section 3.2.1)
	}
	// Join every Cache-Control line before parsing: directives may
	// legally arrive on separate header lines, and a no-store on the
	// second line must veto a max-age on the first.
	age := maxAgeFrom(strings.Join(resp.Header.Values("Cache-Control"), ","))
	if age > 0 && !varyAllowlisted(resp.Header) {
		return 0, true
	}
	return age, false
}

// varyAllowlisted reports whether every header named by Vary is one the
// opt-in rule can ignore. "Vary: *" is never cacheable.
func varyAllowlisted(h http.Header) bool {
	for _, v := range h.Values("Vary") {
		for _, name := range strings.Split(v, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !staticVaryAllowlist[http.CanonicalHeaderKey(name)] {
				return false
			}
		}
	}
	return true
}
