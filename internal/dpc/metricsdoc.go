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
	"admin", "pagecache", "admission", "coalesce",
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
		{"dpc.template_bytes", "counter", "template bytes read from the origin (cumulative; a lease hit adds none)"},
		{"dpc.lease_grants", "counter", "a GET-only template carried a lease (X-DPC-Lease) and the proxy filed it under the request's fetch key once the template's plan was resident and its run had resolved every ref; a fetch that began before a gap or a flush files none, nor does a template that compiles to no cached plan or whose run met a missing or floored slot, nor an identified visitor's page-scoped answer the page tier files for every visitor (dpc.lease_page_grants)"},
		{"dpc.lease_page_grants", "counter", "a page-scoped grant (X-DPC-Lease ending in ;page: the origin's run never read the visitor) was taken in, whichever keeper holds it: the page tier, for an identified visitor's answer it files for every visitor of the URI until the grant ends (no lease is filed, and its plan is not kept), or else a lease filed under the fetch key like any other, which dpc.lease_grants counts too"},
		{"dpc.lease_resident", "gauge", "leases in the table now, at most 16 384: filing a new key adds one (at the bound it first evicts another, dpc.lease_evictions), voiding one or a gap's clear takes it away; a page-scoped grant the page tier keeps files none"},
		{"dpc.lease_evictions", "counter", "a lease was evicted so that another could be filed with the table at its bound of 16 384; the evicted key's next request goes to the origin as a miss"},
		{"dpc.lease_hits", "counter", "a lease stood in for the origin fetch and its plan ran to a complete page (X-Cache: LEASE); no origin exchange"},
		{"dpc.lease_voids", "counter", "a lease was found void and dropped, or cleared by a sequence gap (the sum of the four causes below); a request that found it void went on to the origin"},
		{"dpc.lease_floor_voids", "counter", "a lease's plan met a ref that did not resolve: a fabric event had named its generation, or the slot was gone from the store"},
		{"dpc.lease_expired_voids", "counter", "a lease was past its term: the earliest TTL expiry among its entries, or PageCacheTTL"},
		{"dpc.lease_plan_voids", "counter", "a lease's plan had left the plan cache"},
		{"dpc.lease_gap_voids", "counter", "a lease was cleared by a sequence gap, with the tiers"},
		// The origin's event stream, pulled (Follow).
		{"dpc.fabric_polls", "counter", "a poll of the origin's event stream (coherency.EventsPath) was sent: answered, failed or cut off by its deadline"},
		{"dpc.fabric_poll_errors", "counter", "a poll of the event stream brought no answer (the origin unreachable, an error status, a page that is not the stream, or the poll's deadline); the proxy retries, and stops leasing once its last answer is no longer trusted"},
		{"dpc.fabric_gaps", "counter", "the event stream answered a poll with a gap — the hub had dropped the proxy, restarted, or could not serve its cursor — and the proxy flushed every tier and cleared its leases (each also counts in dpc.pagecache_gap_flushes)"},
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
		{"dpc.shed_per_tenant", "counter", "a shed tripped on the per-tenant (X-User) origin concurrency bound"},
		{"dpc.negcache_hits", "counter", "a request hit the negative cache of a recent origin failure and was answered stale or shed without touching the origin"},
		{"dpc.negcache_fills", "counter", "an origin failure (transport error or non-200) was negative-cached for NegTTL"},
		{"dpc.stale_served_page", "counter", "a request under pressure was served an expired whole-response tier entry, under either admission rule (X-Cache: STALE)"},
		{"dpc.stale_revalidations", "counter", "a stale serve kicked one background revalidation to refresh the tier"},
		// Whole-response tier: one store, two admission rules — the
		// origin's opt-in (X-Cache: STATIC) and, with Config.PageCache, the
		// page rule (X-Cache: PAGE).
		{"dpc.pagecache_hits", "counter", "a request was served whole from the tier, under either rule (X-Cache: STATIC or PAGE)"},
		{"dpc.pagecache_identity_hits", "counter", "an identified bodyless GET (Cookie, Authorization, X-User) was served from the page rule's entry, whose record says it was built under a page-scoped grant that has not ended (X-Cache: PAGE; a subset of dpc.pagecache_hits)"},
		{"dpc.pagecache_misses", "counter", "an anonymous bodyless GET the page rule could have filled missed the tier and continued down the pipeline (misses of the opt-in key alone are not counted, and an identified GET the tier did not serve counts in dpc.pagecache_bypass_identity instead, so hits over hits, misses and identity bypasses is the page rule's hit ratio wherever the origin opts nothing in)"},
		{"dpc.pagecache_fills", "counter", "a completed response was filed into the tier, under either rule"},
		{"dpc.pagecache_shared_bytes", "counter", "bytes of filed pages held by reference to the fragment store's own copies rather than copied into the tier, counted at fill (the entry is still charged its whole length; resident bytes minus these is roughly what the tier's entries copy)"},
		{"dpc.pagecache_bypass_identity", "counter", "an identified bodyless GET (Cookie, Authorization, X-User) the tier did not serve: no entry built under a page-scoped grant that has not ended, or a proxy that does not lease; its answer still files the page when it carries such a grant (plus dpc.pagecache_identity_hits, this is every identified GET on a leasing proxy, but any the origin's opt-in served)"},
		{"dpc.pagecache_uncacheable", "counter", "an admitted response could not be filed (non-200, over the 1 MiB capture bound, no-store/private, or Set-Cookie)"},
		{"dpc.pagecache_uncacheable_vary", "counter", "a response the origin marked cacheable (Cache-Control: max-age) was refused the opt-in because it varies on a header other than Accept-Encoding"},
		{"dpc.pagecache_304s", "counter", "a tier hit with a matching If-None-Match was answered 304 with no body"},
		{"dpc.pagecache_invalidations", "counter", "a tier entry was dropped as void: found on a read built from a fragment generation the fabric killed or filed before a tier flush, purged with its URI, or refused at fill time"},
		{"dpc.pagecache_flushes", "counter", "the invalidation fabric emptied the whole tier (the sum of the two causes below)"},
		{"dpc.pagecache_gap_flushes", "counter", "the tier was flushed because invalidation events were lost (sequence gap)"},
		{"dpc.pagecache_event_flushes", "counter", "the tier was flushed by a flush event scoped \"page\", \"static\", or to every tier"},
		// Compiled-template plan cache: hits + misses = template assemblies
		// (nested-include plan lookups are counted in the cache's own
		// /_dpc/stats snapshot, not here).
		{"dpc.plancache_hits", "counter", "a template body hashed to an already-compiled plan, or a lease ran the plan it names in place of a fetch (dpc.lease_hits)"},
		{"dpc.plancache_misses", "counter", "a template body had no cached plan: it was compiled fresh, or could not be one (oversized, cut short by the origin, corrupt) and ran through the streamed driver"},
		{"dpc.plancache_compiles", "counter", "a template was compiled into a plan, whether or not the cache kept it"},
		{"dpc.plancache_oneoff", "counter", "a compiled template carried a SET, so the same bytes cannot arrive again: its plan ran and was not cached"},
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
		{"dpc.store.disk_promotions", "gauge", "disk hits copied into the RAM tier since creation (the disk copy stays): RAM had room, or the key's second disk read within a quarter of the RAM tier's entry count of them"},
		{"dpc.store.disk_served_in_place", "gauge", "disk hits served from the disk tier's page and left there since creation: a first touch with RAM full, or an entry RAM cannot hold"},
		{"dpc.store.disk_demotions", "gauge", "RAM evictions written to the disk tier since creation (the disk tier did not hold the victim)"},
		{"dpc.store.disk_clean_evictions", "gauge", "RAM evictions that wrote nothing since creation (the disk tier still held the victim's copy)"},
		{"dpc.store.disk_resident", "gauge", "entries currently resident on the disk tier"},
		{"dpc.store.disk_twinned", "gauge", "disk-tier entries the RAM tier currently holds a copy of (exact whenever no crossing of such a key is in flight)"},
		{"dpc.store.disk_bytes", "gauge", "bytes currently charged against the disk tier's budget"},
		{"dpc.store.disk_file_bytes", "gauge", "the heap file's extent, free pages included (against disk_bytes: fragmentation)"},
		{"dpc.store.disk_page_writes", "gauge", "heap-file pages written since open: each page once, by the Put that seals it, plus the pages a kill rewrote or freed, every dirty page at a Delete, flush or close, and the pages replay erased (against disk_demotions: records per page write)"},
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
