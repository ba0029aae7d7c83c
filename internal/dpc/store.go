// Package dpc implements the Dynamic Proxy Cache of Section 4.3.3: a
// reverse proxy that stores dynamic fragments in an in-memory fragment
// store indexed by dpcKey and assembles pages on demand by following the
// GET/SET instructions in origin templates.
//
// Requests flow through an explicit stage pipeline (pipeline.go):
//
//	admin → pagecache → admission → coalesce → origin-fetch →
//	assemble → stale-fallback → respond
//
// crossing three cache tiers. The fragment store (assemble) holds
// slot-keyed fragments invalidated by the BEM; the whole-response tier
// (pagecache) holds complete responses admitted by one of two rules — the
// origin's explicit Cache-Control: max-age on a plain (non-template)
// response, keyed by URL alone (an allowlisted Vary: Accept-Encoding does
// not split it: the proxy serves identity to every client), or
// (Config.PageCache) any page served to an anonymous-session GET, bounded
// by a micro-TTL; the plan
// cache holds compiled templates. See docs/ARCHITECTURE.md for the full
// design and docs/METRICS.md for the metric surface (MetricCatalog is its
// in-code source of truth).
//
// Storage ownership after the unified-cache refactor: this package
// implements no cache storage of its own. Every tier stores through
// internal/fragstore — the fragment store behind the FragmentStore
// contract, the whole-response tier as a thin wrapper over
// fragstore.KeyedStore — so locking, TTL expiry, entry bounds, and
// byte-budget eviction (one global ledger per store, never per-shard
// partitions) live in exactly one place.
package dpc

import "dpcache/internal/fragstore"

// Store is the paper-faithful slot-array fragment memory, now implemented
// by fragstore.SlotStore (see internal/fragstore for the FragmentStore
// contract, the striped array behind the unbudgeted sharded backend and
// the engine behind the budgeted sharded and the tiered ones). The alias
// keeps the original Section 4.3.3 name in this package's API.
type Store = fragstore.SlotStore

// NewStore returns a slot store with the given capacity.
func NewStore(capacity int) (*Store, error) {
	return fragstore.NewSlotStore(capacity)
}
