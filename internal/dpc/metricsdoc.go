package dpc

// This file is the single source of truth for the proxy's metric surface.
// docs/METRICS.md documents exactly this catalog, and TestMetricsDocumented
// fails when either side drifts: a metric added in code without a catalog
// entry, a catalog entry without documentation, or documentation for a
// metric that no longer exists.

// MetricDoc describes one metric the proxy publishes.
type MetricDoc struct {
	// Name is the full metric name as it appears in registry snapshots
	// and /_dpc/stats.
	Name string
	// Type is "counter", "gauge", or "histogram". Histograms appear in
	// snapshots as <name>.count and <name>.mean_ns.
	Type string
	// When says when the metric moves.
	When string
}

// pipelineStageNames lists the request-pipeline stages in execution
// order; each owns a dpc.stage.<name>.latency histogram. New keeps its
// stage list consistent with this (asserted by TestMetricsDocumented).
var pipelineStageNames = []string{
	"admin", "static-cache", "pagecache", "admission", "coalesce",
	"origin-fetch", "assemble", "stale-fallback", "respond",
}

// MetricCatalog enumerates every dpc.* metric the proxy can publish —
// request counters, cache-tier counters, dpc.store.* gauges, and the
// latency histograms.
func MetricCatalog() []MetricDoc {
	c := []MetricDoc{
		// Request path.
		{"dpc.requests", "counter", "every served response (hit, miss, coalesced, bypass), counted once in the respond stage"},
		{"dpc.errors", "counter", "a request fails mid-pipeline (502 or aborted stream)"},
		{"dpc.assembled", "counter", "a template is assembled into a page and the page reaches the client complete"},
		{"dpc.streamed", "counter", "an assembled page outgrew its look-ahead spool, so its headers were committed before assembly finished, and it then completed cleanly"},
		{"dpc.plain_passthrough", "counter", "a non-template origin response is passed through"},
		{"dpc.template_bytes", "counter", "template bytes read from the origin (cumulative; a template answered by reference adds none)"},
		{"dpc.template_offers", "counter", "an origin fetch named a plan the proxy holds for the key's last template (X-DPC-Have)"},
		{"dpc.template_refs", "counter", "the origin answered an offer by reference (X-DPC-Same, empty body) and the held plan ran; offers minus refs were answered in full"},
		{"dpc.page_bytes", "counter", "assembled page bytes produced (cumulative)"},
		{"dpc.gets", "counter", "GET instructions executed against the fragment store"},
		{"dpc.sets", "counter", "SET instructions executed against the fragment store"},
		// Staleness recovery.
		{"dpc.stale_fallbacks", "counter", "an assembly found stale slots and recovered with a bypass fetch"},
		{"dpc.stream_aborts", "counter", "staleness past the look-ahead spool tore an in-flight response"},
		{"dpc.stale_reports", "counter", "an out-of-band stale report was delivered to the BEM after a torn stream"},
		// Coalescing.
		{"dpc.coalesced", "counter", "a follower was served its leader's broadcast page"},
		{"dpc.coalesce_fallbacks", "counter", "a leader aborted before a follower committed; the follower re-fetched"},
		{"dpc.coalesce_overflows", "counter", "a flight sealed past its buffer cap (late joiner or lagging follower re-fetched)"},
		{"dpc.coalesce_head_shared", "counter", "a HEAD request was served from a GET leader's committed flight headers"},
		{"dpc.coalesce_leader_drains", "counter", "a leader's client disconnected mid-body with followers attached; the leader kept draining the origin and broadcasting for them"},
		// Admission control (populated only when Config.Admission is on).
		{"dpc.shed_503s", "counter", "a request was refused with a fast 503 + Retry-After (hard pressure, no stale copy available)"},
		{"dpc.shed_inflight", "counter", "a shed tripped on the global origin in-flight bound"},
		{"dpc.shed_queue", "counter", "a shed tripped on the coalesce-flight waiter bound"},
		{"dpc.shed_per_key", "counter", "a shed tripped on the per-key origin concurrency bound"},
		{"dpc.shed_per_tenant", "counter", "a shed tripped on the per-tenant (X-User) origin concurrency bound"},
		{"dpc.negcache_hits", "counter", "a request hit the negative cache of a recent origin failure and was answered stale or shed without touching the origin"},
		{"dpc.negcache_fills", "counter", "an origin failure (transport error or non-200) was negative-cached for NegTTL"},
		{"dpc.stale_served_page", "counter", "a request under pressure was served an expired page-tier entry (X-Cache: STALE)"},
		{"dpc.stale_served_static", "counter", "a request under pressure was served an expired static-tier entry (X-Cache: STALE)"},
		{"dpc.stale_revalidations", "counter", "a stale serve kicked one background revalidation to refresh the tier"},
		// Static cache tier.
		{"dpc.static_hits", "counter", "a request was served from the URL-keyed static cache"},
		{"dpc.static_uncacheable_vary", "counter", "a cacheable response was refused because it varies on a non-allowlisted header"},
		{"dpc.static_assembled_fills", "counter", "an assembled template page the origin opted in (Cache-Control: max-age) was filed into the static tier with dependency edges"},
		{"dpc.static_invalidations", "counter", "a static-tier entry was dropped by the invalidation fabric (subscriber drop or in-flight assembled fill refused)"},
		{"dpc.static_flushes", "counter", "the invalidation fabric emptied the whole static tier (the sum of the three causes below)"},
		{"dpc.static_gap_flushes", "counter", "the static tier was flushed because invalidation events were lost (sequence gap)"},
		{"dpc.static_event_flushes", "counter", "the static tier was flushed by a flush event scoped to it or to every tier"},
		{"dpc.static_fallback_flushes", "counter", "the static tier was flushed because the dependency index could not answer a fragment invalidation exactly"},
		// Whole-page cache tier.
		{"dpc.pagecache_hits", "counter", "an anonymous GET was served whole from the page tier (X-Cache: PAGE)"},
		{"dpc.pagecache_misses", "counter", "an anonymous GET missed the page tier and continued down the pipeline"},
		{"dpc.pagecache_fills", "counter", "a completed anonymous response was filed into the page tier"},
		{"dpc.pagecache_bypass_identity", "counter", "a request carried identity (Cookie, Authorization, X-User) and bypassed the page tier"},
		{"dpc.pagecache_uncacheable", "counter", "a captured response was not cacheable (non-200, over the capture bound, no-store/private, or Set-Cookie)"},
		{"dpc.pagecache_304s", "counter", "a page-tier hit with a matching If-None-Match was answered 304 with no body"},
		{"dpc.pagecache_invalidations", "counter", "a page-tier entry was dropped by the invalidation fabric (subscriber drop or in-flight fill refused)"},
		{"dpc.pagecache_flushes", "counter", "the invalidation fabric emptied the whole page tier (the sum of the three causes below)"},
		{"dpc.pagecache_gap_flushes", "counter", "the page tier was flushed because invalidation events were lost (sequence gap)"},
		{"dpc.pagecache_event_flushes", "counter", "the page tier was flushed by a flush event scoped to it or to every tier"},
		{"dpc.pagecache_fallback_flushes", "counter", "the page tier was flushed because the dependency index could not answer a fragment invalidation exactly (dpc.depindex_inexact): one write cost every page, not one"},
		// Compiled-template plan cache: hits + misses = template assemblies
		// (nested-include plan lookups are counted in the cache's own
		// /_dpc/stats snapshot, not here).
		{"dpc.plancache_hits", "counter", "a template body hashed to an already-compiled plan, or the origin named the plan instead of sending the body (dpc.template_refs)"},
		{"dpc.plancache_misses", "counter", "a template body had no cached plan: it was compiled fresh, or could not be one (oversized, cut short by the origin, corrupt) and ran through the streamed driver"},
		{"dpc.plancache_compiles", "counter", "a template was compiled into a plan, whether or not the cache kept it"},
		{"dpc.plancache_oneoff", "counter", "a compiled template carried a SET, so the same bytes cannot arrive again: its plan ran and was not cached"},
		{"dpc.plancache_parallel_gets", "counter", "fragment GETs resolved through the plan executor's parallel prefetch fan-out"},
		// Dependency index (fragment → page-key edges; refreshed like
		// dpc.store.* by the background publisher and /_dpc/stats).
		{"dpc.depindex_fragments", "gauge", "fragments with recorded dependency edges"},
		{"dpc.depindex_edges", "gauge", "fragment→page dependency edges currently retained"},
		{"dpc.depindex_bytes", "gauge", "bytes the dependency index's structures occupy (budget-bounded)"},
		{"dpc.depindex_evictions", "gauge", "fragments that lost live edges to byte pressure since creation"},
		{"dpc.depindex_lookups", "gauge", "invalidation lookups against the index since creation"},
		{"dpc.depindex_inexact", "gauge", "lookups answered conservatively (forcing a tier-flush fallback) since creation"},
		// Fragment store occupancy (refreshed by the background publisher
		// and on each /_dpc/stats request).
		{"dpc.store.capacity", "gauge", "the store's key-space size"},
		{"dpc.store.shards", "gauge", "the store's shard count"},
		{"dpc.store.resident", "gauge", "entries currently resident"},
		{"dpc.store.bytes", "gauge", "resident content bytes"},
		{"dpc.store.byte_budget", "gauge", "the configured global byte budget (0 = unbounded)"},
		{"dpc.store.sets", "gauge", "store SET operations since creation"},
		{"dpc.store.hits", "gauge", "store GET hits since creation"},
		{"dpc.store.misses", "gauge", "store GET misses since creation"},
		{"dpc.store.drops", "gauge", "entries dropped by invalidation since creation"},
		{"dpc.store.evictions", "gauge", "entries evicted by the budget policy since creation"},
		{"dpc.store.evicted_bytes", "gauge", "cumulative bytes evicted by the budget policy"},
		// Disk tier (published only when the tiered backend is mounted;
		// refreshed alongside the dpc.store.* gauges above).
		{"dpc.store.disk_hits", "gauge", "GETs answered by the disk tier since creation (disk_promotions + disk_served_in_place)"},
		{"dpc.store.disk_promotions", "gauge", "disk hits copied into the RAM tier since creation (the disk copy stays): RAM had room, or the key's second disk read within a RAM-tier's-worth of them"},
		{"dpc.store.disk_served_in_place", "gauge", "disk hits served from the disk tier's page and left there since creation: a first touch with RAM full, or an entry RAM cannot hold"},
		{"dpc.store.disk_demotions", "gauge", "RAM evictions written to the disk tier since creation (the disk tier did not hold the victim)"},
		{"dpc.store.disk_clean_evictions", "gauge", "RAM evictions that wrote nothing since creation (the disk tier still held the victim's copy)"},
		{"dpc.store.disk_resident", "gauge", "entries currently resident on the disk tier"},
		{"dpc.store.disk_twinned", "gauge", "disk-tier entries the RAM tier currently holds a copy of (exact whenever no crossing of such a key is in flight)"},
		{"dpc.store.disk_bytes", "gauge", "bytes currently charged against the disk tier's budget"},
		{"dpc.store.disk_file_bytes", "gauge", "the heap file's extent, free pages included (against disk_bytes: fragmentation)"},
		{"dpc.store.disk_byte_budget", "gauge", "the disk tier's configured byte budget (0 = unbounded)"},
		{"dpc.store.disk_recovered_entries", "gauge", "entries replayed from the heap file at the last open (warm restart)"},
		{"dpc.store.disk_checksum_discards", "gauge", "torn or checksum-bad pages discarded at the last open"},
		// Request tracing (internal/trace; populated only when tracing is
		// enabled).
		{"dpc.trace.sampled", "counter", "a finished trace was admitted to the capture ring (rate-sampled, slow, or remote-propagated id)"},
		{"dpc.trace.dropped", "counter", "a finished trace was not admitted to the ring"},
		{"dpc.trace.slow", "counter", "a trace met the slow threshold (also summarized in the one-line slow-request log)"},
		// Latency.
		{"dpc.latency", "histogram", "end-to-end latency of every served response"},
	}
	for _, name := range pipelineStageNames {
		c = append(c, MetricDoc{
			Name: "dpc.stage." + name + ".latency",
			Type: "histogram",
			When: "time spent in the " + name + " pipeline stage, per request that entered it",
		})
	}
	return c
}
