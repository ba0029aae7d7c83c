package main

import (
	"math"
	"testing"
	"time"
)

// syntheticWindow builds a report of subs one-second sub-windows in which
// one client sent perSub requests of the given latency, the proxy spent
// proxyCPU per request and the harness clientCPU per request.
func syntheticWindow(subs, perSub int, latency, proxyCPU time.Duration, clientCPU []time.Duration) windowReport {
	rep := windowReport{window: time.Duration(subs) * time.Second, samples: []windowSamples{make(windowSamples, subs)}}
	u := usage{}
	rep.usage = append(rep.usage, u)
	for k := 0; k < subs; k++ {
		for i := 0; i < perSub; i++ {
			rep.samples[0][k] = append(rep.samples[0][k], latency)
		}
		u.proxy.cpu += proxyCPU * time.Duration(perSub)
		u.self += clientCPU[k] * time.Duration(perSub)
		rep.usage = append(rep.usage, u)
	}
	return rep
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// On a host at reference speed the reported values are the measured ones.
func TestEndToEndAtReferenceSpeed(t *testing.T) {
	w := workloadSpec{clientCPU: 50 * time.Microsecond, setupClientCPU: 80 * time.Microsecond}
	ref := []time.Duration{w.clientCPU, w.clientCPU, w.clientCPU}
	rep := syntheticWindow(3, 1000, 2*time.Millisecond, 100*time.Microsecond, ref)
	res := &result{EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
	setups := []setupTiming{{took: 3 * time.Second, clientCPU: 80 * time.Microsecond * 6000, requests: 6000}}
	if n := endToEndMetrics(res, rep, w, setups); n != 3000 {
		t.Errorf("samples = %d, want 3000", n)
	}
	want := map[string]float64{"rps": 1000, "p50_ms": 2, "p99_ms": 2, "proxy_cpu_us_per_req": 100, "setup_s": 3}
	for name, v := range want {
		if got := res.EndToEnd[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := res.PerLayer["workload.host_slowdown"].Value; !near(got, 1) {
		t.Errorf("host_slowdown = %v, want 1", got)
	}
}

// A host running at half speed doubles every cost, the harness's own
// included; dividing by the slowdown recovers the reference-speed values,
// and the values as measured are kept as workload.raw_*.
func TestEndToEndCancelsHostSlowdown(t *testing.T) {
	w := workloadSpec{clientCPU: 50 * time.Microsecond, setupClientCPU: 80 * time.Microsecond}
	slow := []time.Duration{2 * w.clientCPU, 2 * w.clientCPU, 2 * w.clientCPU}
	rep := syntheticWindow(3, 500, 4*time.Millisecond, 200*time.Microsecond, slow)
	res := &result{EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
	setups := []setupTiming{{took: 6 * time.Second, clientCPU: 160 * time.Microsecond * 6000, requests: 6000}}
	endToEndMetrics(res, rep, w, setups)
	want := map[string]float64{"rps": 1000, "p50_ms": 2, "p99_ms": 2, "proxy_cpu_us_per_req": 100, "setup_s": 3}
	for name, v := range want {
		if got := res.EndToEnd[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	raw := map[string]float64{
		"workload.raw_rps": 500, "workload.raw_p50_ms": 4, "workload.raw_proxy_cpu_us_per_req": 200,
		"workload.raw_setup_s": 6, "workload.host_slowdown": 2,
	}
	for name, v := range raw {
		if got := res.PerLayer[name].Value; !near(got, v) {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// A slow spell in a minority of the sub-windows moves neither the
// slowdown-corrected values nor, thanks to the median, the raw ones.
func TestEndToEndIsMedianOfSubWindows(t *testing.T) {
	w := workloadSpec{clientCPU: 50 * time.Microsecond, setupClientCPU: 80 * time.Microsecond}
	cpu := []time.Duration{w.clientCPU, w.clientCPU, 3 * w.clientCPU, w.clientCPU, w.clientCPU}
	rep := syntheticWindow(5, 1000, 2*time.Millisecond, 100*time.Microsecond, cpu)
	rep.samples[0][2] = rep.samples[0][2][:300] // the slow sub-window completed fewer requests
	res := &result{EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
	endToEndMetrics(res, rep, w, []setupTiming{{took: time.Second, clientCPU: time.Second, requests: 1000}})
	if got := res.PerLayer["workload.raw_rps"].Value; !near(got, 1000) {
		t.Errorf("raw_rps = %v, want the median 1000", got)
	}
	if got := res.EndToEnd["rps"].Value; !near(got, 1000) {
		t.Errorf("rps = %v, want 1000", got)
	}
}

func TestSlowdownWithNothingToGoBy(t *testing.T) {
	if got := slowdown(0, 0, time.Microsecond); got != 1 {
		t.Errorf("slowdown with no requests = %v, want 1", got)
	}
}
