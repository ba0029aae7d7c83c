package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Values from Python: statistics.quantiles([...], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{4, 4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.05}
	rps := metricDef{Name: "rps", Unit: "1/s", Better: higher, Bound: 0.05}
	steady := []float64{1.00, 1.00, 1.01, 0.99, 1.00}
	cases := []struct {
		name       string
		d          metricDef
		base, next []float64
		want       string
	}{
		{"unchanged", lat, steady, steady, verdictOK},
		{"latency up 10%", lat, steady, scale(steady, 1.10), verdictWorse},
		{"latency down 10%", lat, steady, scale(steady, 0.90), verdictOK},
		{"latency up 4%", lat, steady, scale(steady, 1.04), verdictOK},
		{"throughput down 10%", rps, steady, scale(steady, 0.90), verdictWorse},
		{"throughput up 10%", rps, steady, scale(steady, 1.10), verdictOK},
		{"too noisy to say", lat, []float64{0.8, 0.9, 1.0, 1.1, 1.2}, scale(steady, 1.10), verdictUnresolved},
		{"single runs", lat, []float64{1}, []float64{1.2}, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.d, c.base, c.next).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

func TestComparisonExitCode(t *testing.T) {
	mk := func(rps float64, correct bool) []result {
		return []result{{
			Workload: "frag_hot", Correct: correct, Attempted: 10,
			EndToEnd: map[string]value{"rps": {Value: rps, Unit: "1/s"}},
		}}
	}
	var out bytes.Buffer
	if code := printComparison(&out, mk(4000, true), mk(3990, true)); code != 0 {
		t.Errorf("a 0.25%% drop exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, mk(4000, true), mk(2400, true)); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 40%% drop exits %d:\n%s", code, out.String())
	}
	if code := printComparison(&out, mk(4000, true), mk(4000, false)); code != 1 {
		t.Errorf("failed operations exit %d", code)
	}
}
