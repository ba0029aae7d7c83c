package tmplplan

import (
	"crypto/sha256"
	"sync/atomic"

	"dpcache/internal/fragstore"
	"dpcache/internal/tmpl"
)

// Cache is the plan-cache tier: compiled programs keyed by a SHA-256 of
// the template bytes, stored by reference in a KeyedStore so the global
// eviction machinery (byte budget via Plan.Footprint, entry bound, LRU)
// and the invalidation fabric's Flush apply unchanged. It
// admits only templates that can recur: a one-off (Plan.OneOff) is
// compiled and handed back but never stored, so the budget goes to the
// GET-only templates that do repeat; and a caller that may not run a
// plan again compiles it without keeping it (Find), keeping it once it
// knows it will (Keep).
// Content hashing makes invalidation-by-redeploy automatic — an origin
// that ships a changed layout produces different bytes, misses, and
// compiles fresh; the old plan ages out — while the fabric's
// "plan"-scoped flush (and gap recovery) empties the tier explicitly.
type Cache struct {
	codec tmpl.Codec
	store *fragstore.KeyedStore

	hits     atomic.Int64
	misses   atomic.Int64
	compiles atomic.Int64
}

// CacheConfig parameterizes a plan cache.
type CacheConfig struct {
	// Shards is the backing KeyedStore's shard count (0 = default).
	Shards int
	// MaxEntries bounds resident plans (0 = unbounded).
	MaxEntries int
	// ByteBudget bounds the summed Plan.Footprint of resident plans
	// (0 = unbounded).
	ByteBudget int64
}

// CacheStats is a point-in-time snapshot of plan-cache activity.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Compiles int64 `json:"compiles"`
	Resident int   `json:"resident"`
	Bytes    int64 `json:"bytes"`
}

// NewCache returns a plan cache compiling templates with codec.
func NewCache(codec tmpl.Codec, cfg CacheConfig) (*Cache, error) {
	ks, err := fragstore.NewKeyed(fragstore.KeyedConfig{
		Shards:     cfg.Shards,
		MaxEntries: cfg.MaxEntries,
		ByteBudget: cfg.ByteBudget,
	})
	if err != nil {
		return nil, err
	}
	return &Cache{codec: codec, store: ks}, nil
}

// Get returns the compiled plan for template, compiling it on miss and
// keeping it unless it is a one-off (Find, then Keep); hit reports whether
// the plan was already resident. A nested-include body that carries a SET
// is a one-off too and compiles on every run that includes it.
func (c *Cache) Get(template []byte) (plan *Plan, hit bool, err error) {
	plan, hit, err = c.Find(template)
	if err == nil && !hit {
		c.Keep(plan)
	}
	return plan, hit, err
}

// Find returns the resident plan for template, or else compiles one the
// cache does not keep until Keep files it; hit reports which. The plan
// holds copies of the bytes it needs, so the caller may reuse template as
// soon as Find returns. Two concurrent misses on the same bytes may both
// compile; plans are immutable, so the duplicate Keep is harmless. A
// compile error (a corrupt template) is returned without caching — the
// caller streams the template through Exec.RunStream instead, which
// applies the SETs ahead of the corruption and then reports it.
func (c *Cache) Find(template []byte) (plan *Plan, hit bool, err error) {
	sum := sha256.Sum256(template)
	if p := c.LookupKey(string(sum[:])); p != nil {
		c.hits.Add(1)
		return p, true, nil
	}
	c.misses.Add(1)
	p, err := Compile(c.codec, template)
	if err != nil {
		return nil, false, err
	}
	c.compiles.Add(1)
	p.key = string(sum[:])
	return p, false, nil
}

// Keep files plan, which Find compiled, unless it is a one-off.
func (c *Cache) Keep(plan *Plan) {
	if !plan.OneOff() {
		c.store.Put(plan.key, fragstore.KeyedEntry{Obj: plan, Cost: plan.Footprint()}, 0)
	}
}

// LookupKey returns the resident plan filed under key, the key a plan
// reports (Plan.Key: its template's SHA-256), nil when the cache does not
// hold it. It counts nothing: a caller that goes on to run the plan in place
// of a template it was spared reading says so with CountHit.
func (c *Cache) LookupKey(key string) *Plan {
	if e, ok := c.store.Get(key); ok {
		if p, ok := e.Obj.(*Plan); ok {
			return p
		}
	}
	return nil
}

// CountHit records a hit for a plan that LookupKey found and that then ran:
// a lease ran the plan it names in place of a template.
func (c *Cache) CountHit() { c.hits.Add(1) }

// Codec returns the codec plans are compiled with.
func (c *Cache) Codec() tmpl.Codec { return c.codec }

// Store exposes the backing KeyedStore, which the invalidation fabric
// (dpc.Proxy.Apply) flushes.
func (c *Cache) Store() *fragstore.KeyedStore { return c.store }

// Stats snapshots cache activity.
func (c *Cache) Stats() CacheStats {
	ks := c.store.Stats()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Compiles: c.compiles.Load(),
		Resident: ks.Resident,
		Bytes:    ks.Bytes,
	}
}
