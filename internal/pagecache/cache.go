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
// the keyed backend, an in-RAM KeyedStore, which a caller may supply
// wrapped (see Over). Both consumers share it: the baseline Proxy in this
// package and the DPC's whole-response tier (its pagecache pipeline
// stage).
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

// Over returns a whole-page cache over a prebuilt keyed backend (a
// KeyedStore behind a tracing decorator, or a test double); the caller owns
// the store's sizing, eviction, and lifecycle.
func Over(store fragstore.Keyed) *Cache { return &Cache{store: store} }

// metaSep separates the content type, the entity tag and the record inside
// the keyed store's Meta string. NUL cannot appear in the first two (one is
// a header value, the other a quoted hex digest); the record, last, may hold
// any byte.
const metaSep = "\x00"

func packMeta(contentType, etag, record string) string {
	switch {
	case record != "":
		return contentType + metaSep + etag + metaSep + record
	case etag != "":
		return contentType + metaSep + etag
	}
	return contentType
}

func unpackMeta(meta string) (contentType, etag, record string) {
	contentType, rest, _ := strings.Cut(meta, metaSep)
	etag, record, _ = strings.Cut(rest, metaSep)
	return contentType, etag, record
}

// Mode says how Lookup treats an entry past its TTL.
type Mode int

const (
	// Fresh reads fresh entries only, removing an expired one it finds.
	Fresh Mode = iota
	// Keep reads fresh entries only and leaves an expired one resident for
	// a later Stale read (see KeyedStore.GetKeep).
	Keep
	// Stale reads an entry whether or not its TTL has lapsed, with its age;
	// the caller bounds the staleness it accepts.
	Stale
)

// Page is one cached response.
type Page struct {
	Body        []byte
	ContentType string
	// ETag is the entity tag the page was stamped with at capture time (""
	// when stored untagged).
	ETag string
	// Age is how far past its TTL the page is, negative while fresh; read
	// in Stale mode only, zero otherwise.
	Age time.Duration
	// Record is what the filer stored beside the page to judge it by when
	// it is read (the DPC's tier: the epoch and fragment refs it was built
	// from); opaque here, "" when none was given.
	Record string
}

// Lookup returns the page under key, read as mode says, through the keyed
// store's Get, GetKeep or GetStale.
func (c *Cache) Lookup(key string, mode Mode) (pg Page, ok bool) {
	var e fragstore.KeyedEntry
	switch mode {
	case Stale:
		e, pg.Age, ok = c.store.GetStale(key)
	case Keep:
		e, ok = c.store.GetKeep(key)
	default:
		e, ok = c.store.Get(key)
	}
	if !ok {
		return Page{}, false
	}
	pg.Body = e.Value
	pg.ContentType, pg.ETag, pg.Record = unpackMeta(e.Meta)
	return pg, true
}

// PutTagged stores a page under key for ttl along with its strong entity
// tag ("" for none), letting the tier answer If-None-Match revalidations
// with a 304 instead of a body, and the record Lookup hands back with it.
// Non-positive ttl is ignored: a URL-keyed page cache cannot see fragment
// invalidations on its own, so time is the baseline freshness signal — an
// unexpiring page would be wrong forever wherever no invalidation fabric is
// wired.
func (c *Cache) PutTagged(key string, body []byte, contentType, etag, record string, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.store.Put(key, fragstore.KeyedEntry{Value: body, Meta: packMeta(contentType, etag, record)}, ttl)
}

// Delete removes the page under key, reporting whether one was resident.
// The DPC's tier drops a page here when its record is found void.
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

// Store exposes the backing keyed store (the DPC's tests read its ledger
// through BudgetUsed).
func (c *Cache) Store() fragstore.Keyed { return c.store }
