package pagecache

import (
	"strings"
	"time"
	"unsafe"

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

// Span is one run of a shared page's body: the next Lit bytes of the
// entry's literal runs, then Frag, a fragment store's own copy of one of
// the fragments the page was assembled from (see fragstore.Peeker), which
// the store never modifies.
type Span struct {
	Lit  int
	Frag []byte
}

// SpanBytes is what one span adds to an entry's span table. A fragment no
// longer than this costs less kept among the literal runs than referenced.
const SpanBytes = int(unsafe.Sizeof(Span{}))

// Layout puts a shared page's body back together: its spans in order, then
// whatever literal bytes follow the last one. Len is the body's length,
// which is what the entry is charged. A Layout is immutable once filed.
type Layout struct {
	Spans []Span
	Len   int
}

// Page is one cached response.
type Page struct {
	// Body is the stored bytes: a flat entry's whole body, or a shared
	// entry's literal runs, which Layout interleaves with the fragments
	// it references. Len and AppendBody read either as the page it is.
	Body []byte
	// Layout is a shared entry's layout (PutShared); nil for a flat one.
	Layout      *Layout
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

// Len returns the length of the page's body.
func (pg *Page) Len() int {
	if pg.Layout != nil {
		return pg.Layout.Len
	}
	return len(pg.Body)
}

// AppendBody appends the page's body to dst and returns the extended
// slice: a flat entry's stored bytes, or a shared entry's literal runs and
// fragments in their order.
func (pg *Page) AppendBody(dst []byte) []byte {
	if pg.Layout == nil {
		return append(dst, pg.Body...)
	}
	lit := pg.Body
	for _, sp := range pg.Layout.Spans {
		dst = append(dst, lit[:sp.Lit]...)
		dst = append(dst, sp.Frag...)
		lit = lit[sp.Lit:]
	}
	return append(dst, lit...)
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
	pg.Layout, _ = e.Obj.(*Layout)
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

// PutShared is PutTagged for a page stored as its literal runs lit, which
// are copied, and layout, which is kept by reference: the entry holds none
// of the fragment bytes layout references, yet is charged layout.Len, the
// page's whole length, so the tier's byte ledger and its eviction order are
// what a flat copy's would be. The fragments a span keeps alive after the
// store lets them go never outweigh that charge.
func (c *Cache) PutShared(key string, lit []byte, layout *Layout, contentType, etag, record string, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.store.Put(key, fragstore.KeyedEntry{
		Value: lit, Obj: layout, Cost: int64(layout.Len),
		Meta: packMeta(contentType, etag, record),
	}, ttl)
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
