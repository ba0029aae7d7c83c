package main

import (
	"slices"
	"time"
)

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set stores a metric under its catalogue unit. A name outside the
// catalogue is a bug in the harness.
func set(into map[string]value, name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("metric " + name + " is not in the catalogue")
	}
	into[name] = value{Value: v, Unit: unit}
}

// ratio is num/den, or 0 when the layer did nothing in the window.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics fills the user-visible metrics from one window and the
// set-ups before it, and returns the latency sample count.
//
// Every timing is computed per sub-window, divided by that sub-window's
// host slowdown, and reported as the median over the sub-windows. The
// slowdown is the harness's CPU time per request — the clients' own work,
// which no change to the repository alters — over what it costs on an
// undisturbed host. The values as measured go to the per-layer table as
// workload.raw_*.
func endToEndMetrics(res *result, rep windowReport, w workloadSpec, setups []setupTiming) int {
	subs := len(rep.samples[0])
	subLen := rep.window / time.Duration(subs)
	var slow []float64
	var rate, p50, p99, cpu, setup series
	total := 0
	for k := 0; k < subs; k++ {
		var sub []time.Duration
		for _, c := range rep.samples {
			sub = append(sub, c[k]...)
		}
		slices.Sort(sub)
		total += len(sub)
		n := float64(len(sub))
		by := slowdown(rep.usage[k+1].self-rep.usage[k].self, len(sub), w.clientCPU)
		slow = append(slow, by)
		rate.add(n/subLen.Seconds(), 1/by)
		p50.add(ms(quantile(sub, 0.50)), by)
		p99.add(ms(quantile(sub, 0.99)), by)
		cpu.add(ratio(us(rep.usage[k+1].proxy.cpu-rep.usage[k].proxy.cpu), n), by)
	}
	for _, s := range setups {
		setup.add(s.took.Seconds(), slowdown(s.clientCPU, s.requests, w.setupClientCPU))
	}
	n := float64(total)

	set(res.EndToEnd, "setup_s", median(setup.atReference))
	set(res.EndToEnd, "rps", median(rate.atReference))
	set(res.EndToEnd, "p50_ms", median(p50.atReference))
	set(res.EndToEnd, "p99_ms", median(p99.atReference))
	set(res.EndToEnd, "proxy_cpu_us_per_req", median(cpu.atReference))
	set(res.EndToEnd, "proxy_rss_mib", float64(rep.usage[subs].proxy.hwmKiB)/1024)
	originBytes := float64(rep.after.origin.Bytes - rep.before.origin.Bytes)
	set(res.EndToEnd, "link_bytes_per_req", ratio(float64(rep.after.link-rep.before.link)+originBytes, n))
	set(res.EndToEnd, "exchanges_per_req", ratio(n+float64(rep.after.origin.Fetches-rep.before.origin.Fetches), n))

	set(res.PerLayer, "workload.host_slowdown", median(slow))
	set(res.PerLayer, "workload.raw_setup_s", median(setup.measured))
	set(res.PerLayer, "workload.raw_rps", median(rate.measured))
	set(res.PerLayer, "workload.raw_p50_ms", median(p50.measured))
	set(res.PerLayer, "workload.raw_p99_ms", median(p99.measured))
	set(res.PerLayer, "workload.raw_proxy_cpu_us_per_req", median(cpu.measured))
	return total
}

// series is one timing over the sub-windows (or set-ups): as measured,
// and as it would have been on a host at reference speed.
type series struct{ measured, atReference []float64 }

// add records a time that was measured while the host ran slower by the
// given factor. A rate is added with the factor's reciprocal.
func (s *series) add(measured, slowerBy float64) {
	s.measured = append(s.measured, measured)
	s.atReference = append(s.atReference, measured/slowerBy)
}

// slowdown is how much slower than reference the host ran while the
// harness spent cpu on requests requests: 1 on an undisturbed host. With
// nothing to go by it is 1.
func slowdown(cpu time.Duration, requests int, reference time.Duration) float64 {
	if requests == 0 || cpu <= 0 {
		return 1
	}
	return float64(cpu) / float64(requests) / float64(reference)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerCounters fills the per-layer metrics that come from counter
// deltas over the measured window: dpcd's /_dpc/stats, the origin's
// registry and monitor, and the harness's own meters.
func layerCounters(into map[string]value, rep windowReport, raced int64) {
	var requests float64
	var latency time.Duration
	for _, c := range rep.samples {
		for _, sub := range c {
			requests += float64(len(sub))
			for _, d := range sub {
				latency += d
			}
		}
	}
	m := func(name string) float64 {
		return float64(rep.after.proxy.Metrics[name] - rep.before.proxy.Metrics[name])
	}
	// A histogram is published as a count and a mean; their product is
	// the summed time.
	histNs := func(name string) float64 {
		sum := func(s proxyStats) float64 {
			return float64(s.Metrics[name+".count"]) * float64(s.Metrics[name+".mean_ns"])
		}
		return sum(rep.after.proxy) - sum(rep.before.proxy)
	}

	var stages float64
	for _, s := range dpcStages {
		ns := histNs("dpc.stage." + s + ".latency")
		stages += ns
		set(into, "dpc.stage."+s+".us_per_req", ratio(ns/1e3, requests))
	}
	set(into, "dpc.unattributed_us_per_req", ratio(us(latency)-stages/1e3, requests))
	set(into, "dpc.coalesced_ratio", ratio(m("dpc.coalesced"), requests))
	set(into, "dpc.stale_fallback_ratio", ratio(m("dpc.stale_fallbacks"), requests))

	fetches := float64(rep.after.origin.Fetches - rep.before.origin.Fetches)
	writes := float64(rep.after.writes - rep.before.writes)
	set(into, "origin.bytes_per_req", ratio(float64(rep.after.origin.Bytes-rep.before.origin.Bytes), requests))
	set(into, "origin.fetches_per_req", ratio(fetches, requests))
	set(into, "origin.generate_us_per_fetch", ratio(float64(rep.after.origin.GenerateNs-rep.before.origin.GenerateNs)/1e3, fetches))
	b0, b1 := rep.before.origin.BEM, rep.after.origin.BEM
	set(into, "bem.hit_ratio", ratio(float64(b1.Hits-b0.Hits), float64(b1.Lookups-b0.Lookups)))
	set(into, "bem.invalidations_per_write", ratio(float64(b1.DataInvalidations-b0.DataInvalidations), writes))

	var planHits, planMisses, compiles float64
	if p0, p1 := rep.before.proxy.PlanCache, rep.after.proxy.PlanCache; p0 != nil && p1 != nil {
		planHits, planMisses = float64(p1.Hits-p0.Hits), float64(p1.Misses-p0.Misses)
		compiles = float64(p1.Compiles - p0.Compiles)
	}
	set(into, "tmplplan.hit_ratio", ratio(planHits, planHits+planMisses))
	set(into, "tmplplan.compiles", compiles)

	s0, s1 := rep.before.proxy.Store, rep.after.proxy.Store
	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	set(into, "fragstore.gets_per_req", ratio(hits+misses, requests))
	set(into, "fragstore.sets_per_req", ratio(float64(s1.Sets-s0.Sets), requests))
	set(into, "fragstore.hit_ratio", ratio(hits, hits+misses))
	set(into, "fragstore.evictions_per_req", ratio(float64(s1.Evictions-s0.Evictions), requests))
	set(into, "fragstore.drops", float64(s1.Drops-s0.Drops))

	// Without a disk tier every hit is a RAM hit and the tier metrics
	// are zero.
	ramHits := hits
	var promotions, demotions, poolHits, poolLoads, puts, fileRatio float64
	if d0, d1 := rep.before.proxy.Disk, rep.after.proxy.Disk; d0 != nil && d1 != nil {
		ramHits = float64(d1.RAM.Hits - d0.RAM.Hits)
		promotions = float64(d1.Promotions - d0.Promotions)
		demotions = float64(d1.Demotions - d0.Demotions)
		poolHits = float64(d1.Disk.PoolHits - d0.Disk.PoolHits)
		poolLoads = float64(d1.Disk.PoolLoads - d0.Disk.PoolLoads)
		puts = float64(d1.Disk.Puts - d0.Disk.Puts)
		fileRatio = ratio(float64(rep.heapBytes), float64(d1.Disk.Bytes))
	}
	set(into, "fragstore.ram_hit_ratio", ratio(ramHits, hits+misses))
	set(into, "fragstore.promotions_per_req", ratio(promotions, requests))
	set(into, "fragstore.demotions_per_req", ratio(demotions, requests))
	set(into, "diskstore.pool_hit_ratio", ratio(poolHits, poolHits+poolLoads))
	set(into, "diskstore.pool_loads_per_req", ratio(poolLoads, requests))
	set(into, "diskstore.puts_per_req", ratio(puts, requests))
	set(into, "diskstore.file_bytes_per_live_byte", fileRatio)

	pageHits, pageMisses := m("dpc.pagecache_hits"), m("dpc.pagecache_misses")
	set(into, "pagecache.hit_ratio", ratio(pageHits, pageHits+pageMisses))
	set(into, "pagecache.invalidations_per_write", ratio(m("dpc.pagecache_invalidations"), writes))
	var pageBytes float64
	if rep.after.proxy.PageCache != nil {
		pageBytes = float64(rep.after.proxy.PageCache.Bytes)
	}
	set(into, "pagecache.resident_bytes", pageBytes)

	var lookups, inexact, depEvictions float64
	if x0, x1 := rep.before.proxy.DepIndex, rep.after.proxy.DepIndex; x0 != nil && x1 != nil {
		lookups, inexact = float64(x1.Lookups-x0.Lookups), float64(x1.Inexact-x0.Inexact)
		depEvictions = float64(x1.Evictions - x0.Evictions)
	}
	exact := 0.0
	if lookups > 0 {
		exact = 1 - inexact/lookups
	}
	set(into, "depindex.exact_ratio", exact)
	set(into, "depindex.evictions_per_req", ratio(depEvictions, requests))

	o0, o1 := rep.before.origin, rep.after.origin
	set(into, "coherency.deliver_us_per_event", ratio(float64(o1.DeliverNs-o0.DeliverNs)/1e3, float64(o1.Delivered-o0.Delivered)))
	set(into, "coherency.errors", float64(o1.DeliverErrors))
	set(into, "coherency.raced_reads", float64(raced))

	first, last := rep.usage[0], rep.usage[len(rep.usage)-1]
	set(into, "origin.cpu_us_per_req", ratio(us(last.origin.cpu-first.origin.cpu), requests))
	set(into, "workload.harness_cpu_us_per_req", ratio(us(last.self-first.self), requests))
}
