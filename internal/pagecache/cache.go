package pagecache

import (
	"strings"
	"time"

	"dpcache/internal/fragstore"
)

// Cache is a URL-keyed whole-page store: a thin typed wrapper over a
// fragstore.Keyed backend holding complete response bodies plus their
// content type. It carries no locking, LRU, or accounting of its own —
// eviction (entry bound, global byte budget) and TTL expiry are owned by
// the keyed backend, which is an in-RAM KeyedStore by default or the
// disk-backed TieredKeyed when the caller supplies one. Both consumers
// share it: the baseline Proxy in this package and the DPC's pagecache
// pipeline stage.
type Cache struct {
	store fragstore.Keyed
}

// defaultMaxEntries bounds a cache whose configuration names no entry
// bound.
const defaultMaxEntries = 1024

// NewCache returns a whole-page cache over an in-RAM KeyedStore built from
// cfg, which is the engine's own configuration except that a MaxEntries of
// zero or less selects defaultMaxEntries.
func NewCache(cfg fragstore.KeyedConfig) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = defaultMaxEntries
	}
	store, err := fragstore.NewKeyed(cfg)
	if err != nil {
		return nil, err
	}
	return &Cache{store: store}, nil
}

// Over returns a whole-page cache over a prebuilt keyed backend (the
// disk-backed tiered store, or a test double); the caller owns the store's
// sizing, eviction, and lifecycle.
func Over(store fragstore.Keyed) *Cache { return &Cache{store: store} }

// metaSep separates the content type from the entity tag inside the
// keyed store's Meta string. NUL cannot appear in either field (one is a
// header value, the other a quoted hex digest).
const metaSep = "\x00"

func packMeta(contentType, etag string) string {
	if etag == "" {
		return contentType
	}
	return contentType + metaSep + etag
}

func unpackMeta(meta string) (contentType, etag string) {
	if i := strings.IndexByte(meta, 0); i >= 0 {
		return meta[:i], meta[i+1:]
	}
	return meta, ""
}

// Get returns the cached page under key, if fresh.
func (c *Cache) Get(key string) (body []byte, contentType string, ok bool) {
	body, contentType, _, ok = c.GetTagged(key)
	return body, contentType, ok
}

// GetTagged returns the cached page under key plus the entity tag it was
// stamped with at capture time ("" when stored untagged).
func (c *Cache) GetTagged(key string) (body []byte, contentType, etag string, ok bool) {
	e, ok := c.store.Get(key)
	if !ok {
		return nil, "", "", false
	}
	contentType, etag = unpackMeta(e.Meta)
	return e.Value, contentType, etag, true
}

// GetKeep is Get without lazy-expiry removal: an expired page misses but
// stays resident for a later GetStale (see KeyedStore.GetKeep).
func (c *Cache) GetKeep(key string) (body []byte, contentType string, ok bool) {
	body, contentType, _, ok = c.GetTaggedKeep(key)
	return body, contentType, ok
}

// GetTaggedKeep is GetTagged without lazy-expiry removal.
func (c *Cache) GetTaggedKeep(key string) (body []byte, contentType, etag string, ok bool) {
	e, ok := c.store.GetKeep(key)
	if !ok {
		return nil, "", "", false
	}
	contentType, etag = unpackMeta(e.Meta)
	return e.Value, contentType, etag, true
}

// GetStale returns the cached page under key even when its TTL has
// lapsed, along with how far past expiry it is (zero while fresh). The
// admission-control stage serves these during origin overload
// (stale-while-revalidate); invalidated pages are Deleted outright and
// can never surface here. The caller bounds acceptable staleness.
func (c *Cache) GetStale(key string) (body []byte, contentType, etag string, age time.Duration, ok bool) {
	e, age, ok := c.store.GetStale(key)
	if !ok {
		return nil, "", "", 0, false
	}
	contentType, etag = unpackMeta(e.Meta)
	return e.Value, contentType, etag, age, true
}

// Put stores a page under key for ttl. Non-positive ttl is ignored: a
// URL-keyed page cache cannot see fragment invalidations on its own, so
// time is the baseline freshness signal — an unexpiring page would be
// wrong forever wherever no invalidation fabric is wired.
func (c *Cache) Put(key string, body []byte, contentType string, ttl time.Duration) {
	c.PutTagged(key, body, contentType, "", ttl)
}

// PutTagged stores a page along with its strong entity tag, letting the
// tier answer If-None-Match revalidations with a 304 instead of a body.
func (c *Cache) PutTagged(key string, body []byte, contentType, etag string, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.store.Put(key, fragstore.KeyedEntry{Value: body, Meta: packMeta(contentType, etag)}, ttl)
}

// Delete removes the page under key, reporting whether one was resident.
// The coherency fabric's page subscriber drops invalidated pages here.
func (c *Cache) Delete(key string) bool { return c.store.Delete(key) }

// DeleteFunc removes every page whose key satisfies pred, returning the
// count (scoped purges: every variant of one URI shares a key prefix).
func (c *Cache) DeleteFunc(pred func(key string) bool) int {
	return c.store.DeleteFunc(pred)
}

// ReserveCapture charges n in-flight capture-buffer bytes (negative
// releases them) against the cache's global byte ledger, so concurrent
// response captures evict resident pages to make room instead of letting
// a capture storm hold budget-busting bytes off the books. No-op when
// the cache is unbudgeted.
func (c *Cache) ReserveCapture(n int64) { c.store.ReserveScratch(n) }

// Flush empties the cache.
func (c *Cache) Flush() { c.store.Flush() }

// Len returns the resident page count.
func (c *Cache) Len() int { return c.store.Len() }

// Bytes returns the resident page bytes.
func (c *Cache) Bytes() int64 { return c.store.Bytes() }

// Stats exposes the backing keyed store's snapshot.
func (c *Cache) Stats() fragstore.KeyedStats { return c.store.Stats() }

// Store exposes the backing keyed store (conformance tests run the
// fragment-store suite against it through AsFragmentStore).
func (c *Cache) Store() fragstore.Keyed { return c.store }
