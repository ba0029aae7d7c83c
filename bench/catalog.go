package main

// metricDef names one metric of the ledger. BENCHMARK.json carries the
// same list; TestCatalogMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare calls it worse. Per-layer metrics
	// have none.
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the proxy sees, measured with tracing off.
// Each bound is about three times the widest run-to-run spread any
// workload showed on this sandbox, up to the driver's cap of a quarter
// (README.md, "Repeatability"): frag_spill and the tail set the timing
// bounds, write_mix the memory and count bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"rps", "1/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"p99_ms", "ms", lower, 0.25},
	{"proxy_cpu_us_per_req", "us", lower, 0.25},
	{"proxy_rss_mib", "MiB", lower, 0.25},
	{"link_bytes_per_req", "B", lower, 0.02},
	{"exchanges_per_req", "count", lower, 0.05},
}

// dpcStages are the proxy's pipeline stages, in execution order.
var dpcStages = []string{
	"admin", "static-cache", "pagecache", "admission", "coalesce",
	"origin-fetch", "assemble", "stale-fallback", "respond",
}

// perLayer is named <module>.<metric>. README.md says where each comes
// from: counters scraped around the measured window, the traced run, or
// a probe of the module's public functions.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range dpcStages {
		defs = append(defs, metricDef{Name: "dpc.stage." + s + ".us_per_req", Unit: "us", Better: lower})
	}
	return append(defs, []metricDef{
		{Name: "dpc.unattributed_us_per_req", Unit: "us", Better: lower},
		{Name: "dpc.coalesced_ratio", Unit: "ratio", Better: higher},
		{Name: "dpc.stale_fallback_ratio", Unit: "ratio", Better: lower},
		{Name: "dpc.self_us_per_req", Unit: "us", Better: lower},

		{Name: "origin.bytes_per_req", Unit: "B", Better: lower},
		{Name: "origin.fetches_per_req", Unit: "count", Better: lower},
		{Name: "origin.cpu_us_per_req", Unit: "us", Better: lower},
		{Name: "origin.generate_us_per_fetch", Unit: "us", Better: lower},
		{Name: "origin.self_us_per_req", Unit: "us", Better: lower},
		{Name: "origin.rtt_us_per_req", Unit: "us", Better: lower},
		{Name: "bem.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "bem.invalidations_per_write", Unit: "count", Better: lower},

		{Name: "tmplplan.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "tmplplan.compiles", Unit: "count", Better: lower},
		{Name: "tmpl.decode_us_per_req", Unit: "us", Better: lower},
		{Name: "tmpl.decode_us", Unit: "us", Better: lower},
		{Name: "tmplplan.compile_us", Unit: "us", Better: lower},
		{Name: "tmplplan.exec_us", Unit: "us", Better: lower},
		{Name: "tmplplan.exec_allocs", Unit: "count", Better: lower},

		{Name: "fragstore.gets_per_req", Unit: "count", Better: lower},
		{Name: "fragstore.sets_per_req", Unit: "count", Better: lower},
		{Name: "fragstore.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "fragstore.evictions_per_req", Unit: "count", Better: lower},
		{Name: "fragstore.ram_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "fragstore.promotions_per_req", Unit: "count", Better: lower},
		{Name: "fragstore.demotions_per_req", Unit: "count", Better: lower},
		{Name: "fragstore.drops", Unit: "count", Better: lower},
		{Name: "fragstore.get_us_per_req", Unit: "us", Better: lower},
		{Name: "fragstore.set_us_per_req", Unit: "us", Better: lower},
		{Name: "fragstore.get_ns_per_call", Unit: "ns", Better: lower},

		{Name: "diskstore.pool_hit_ratio", Unit: "ratio", Better: higher},
		{Name: "diskstore.pool_loads_per_req", Unit: "count", Better: lower},
		{Name: "diskstore.puts_per_req", Unit: "count", Better: lower},
		{Name: "diskstore.file_bytes_per_live_byte", Unit: "ratio", Better: lower},
		{Name: "diskstore.get_pool_hit_us", Unit: "us", Better: lower},
		{Name: "diskstore.get_pool_load_us", Unit: "us", Better: lower},
		{Name: "diskstore.put_us", Unit: "us", Better: lower},

		{Name: "pagecache.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "pagecache.invalidations_per_write", Unit: "count", Better: lower},
		{Name: "pagecache.resident_bytes", Unit: "B", Better: lower},
		{Name: "pagecache.get_us_per_req", Unit: "us", Better: lower},
		{Name: "pagecache.put_us_per_req", Unit: "us", Better: lower},

		{Name: "depindex.exact_ratio", Unit: "ratio", Better: higher},
		{Name: "depindex.evictions_per_req", Unit: "count", Better: lower},
		{Name: "depindex.record_ns", Unit: "ns", Better: lower},
		{Name: "depindex.dependents_ns", Unit: "ns", Better: lower},

		{Name: "coherency.deliver_us_per_event", Unit: "us", Better: lower},
		{Name: "coherency.errors", Unit: "count", Better: lower},
		{Name: "coherency.raced_reads", Unit: "count", Better: lower},

		{Name: "workload.harness_cpu_us_per_req", Unit: "us", Better: lower},
		{Name: "workload.host_slowdown", Unit: "ratio", Better: lower},
		{Name: "workload.raw_setup_s", Unit: "s", Better: lower},
		{Name: "workload.raw_rps", Unit: "1/s", Better: higher},
		{Name: "workload.raw_p50_ms", Unit: "ms", Better: lower},
		{Name: "workload.raw_p99_ms", Unit: "ms", Better: lower},
		{Name: "workload.raw_proxy_cpu_us_per_req", Unit: "us", Better: lower},
		{Name: "workload.client_self_us_per_req", Unit: "us", Better: lower},

		{Name: "trace.unattributed_share", Unit: "ratio", Better: lower},
		{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
		{Name: "trace.orphan_spans", Unit: "count", Better: lower},
	}...)
}()
