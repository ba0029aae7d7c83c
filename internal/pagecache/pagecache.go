// Package pagecache implements whole-page caching: a URL-keyed store of
// complete response bodies, used in two very different roles.
//
// As a standalone Proxy it is the paper's principal baseline: page-level
// proxy caching (Section 3.2.1) — a conventional reverse proxy that caches
// *entire* dynamically generated pages keyed by request URL, kept to
// demonstrate, measurably, the two failures the paper attributes to this
// approach:
//
//  1. Incorrect pages: the URL does not identify the content. Bob
//     (registered) warms the cache; Alice (anonymous, same URL) receives
//     Bob's personalized page.
//  2. Unnecessary invalidation: the page is the invalidation unit, so one
//     volatile fragment (a stock price) forces regeneration of all the
//     stable ones.
//
// As a Cache it is the DPC's whole-page tier: the dpc package mounts it
// as the "pagecache" pipeline stage for *anonymous-session* traffic only
// (no Cookie, Authorization, or X-User), where the URL does identify the
// content and the baseline's correctness flaw cannot occur. Short TTLs
// bound its staleness — a page cache cannot see fragment invalidations.
//
// Storage is fragstore.KeyedStore in both roles: this package owns no
// mutexes, LRU lists, or byte accounting. Eviction (entry bound and the
// global byte-budget ledger) and TTL expiry belong to the keyed store;
// this package only chooses keys and TTLs.
package pagecache

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dpcache/internal/clock"
	"dpcache/internal/fragstore"
	"dpcache/internal/metrics"
)

// Config parameterizes the baseline page-cache proxy.
type Config struct {
	// OriginURL is the origin base URL. Required.
	OriginURL string
	// TTL is the page freshness lifetime. Required, > 0: URL-keyed
	// caches cannot see fragment invalidations, so time is all they
	// have.
	TTL time.Duration
	// MaxEntries bounds the cache (0 selects 1024).
	MaxEntries int
	// Clock overrides expiry time (tests).
	Clock clock.Clock
	// Transport overrides the origin transport.
	Transport http.RoundTripper
	// Registry receives pagecache.* metrics; optional.
	Registry *metrics.Registry
}

// Proxy is a URL-keyed full-page caching reverse proxy — the paper's
// flawed baseline, preserved as a measurable artifact.
type Proxy struct {
	cfg    Config
	cache  *Cache
	client *http.Client
	reg    *metrics.Registry
}

// New returns a page-level caching proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("pagecache: OriginURL is required")
	}
	if cfg.TTL <= 0 {
		return nil, fmt.Errorf("pagecache: TTL must be positive")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 64}
	}
	cache, err := NewCache(fragstore.KeyedConfig{MaxEntries: cfg.MaxEntries, Clock: cfg.Clock})
	if err != nil {
		return nil, err
	}
	return &Proxy{
		cfg:    cfg,
		cache:  cache,
		client: &http.Client{Transport: transport, Timeout: 30 * time.Second},
		reg:    reg,
	}, nil
}

// Registry returns the proxy's metrics registry.
func (p *Proxy) Registry() *metrics.Registry { return p.reg }

// Cache returns the underlying whole-page cache.
func (p *Proxy) Cache() *Cache { return p.cache }

// ServeHTTP implements http.Handler. The cache key is the request URI and
// nothing else — deliberately reproducing the baseline's flaw: user
// identity is invisible to the cache.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.URL.RequestURI()
	if body, ctype, ok := p.cache.Get(key); ok {
		p.reg.Counter("pagecache.hits").Inc()
		p.write(w, body, ctype, "HIT")
		return
	}
	p.reg.Counter("pagecache.misses").Inc()

	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.cfg.OriginURL+key, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// The page cache *does* forward the user header — the origin needs
	// it to build the page — but cannot key on it, which is exactly the
	// paper's point.
	for _, h := range []string{"X-User", "Cookie", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.reg.Counter("pagecache.errors").Inc()
		http.Error(w, fmt.Sprintf("pagecache: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.reg.Counter("pagecache.errors").Inc()
		http.Error(w, fmt.Sprintf("pagecache: %v", err), http.StatusBadGateway)
		return
	}
	if resp.StatusCode != http.StatusOK {
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		return
	}
	ctype := resp.Header.Get("Content-Type")
	p.cache.Put(key, body, ctype, p.cfg.TTL)
	p.write(w, body, ctype, "MISS")
}

func (p *Proxy) write(w http.ResponseWriter, body []byte, ctype, state string) {
	if ctype == "" {
		ctype = "text/html; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Cache", state)
	w.Header().Set("Via", "dpcache-pagecache/1.0")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// Flush empties the cache (experiments use it between phases).
func (p *Proxy) Flush() { p.cache.Flush() }
