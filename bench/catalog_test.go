package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedJSON struct {
	metricJSON
	Bound float64 `json:"bound"`
}

// wantBenchmarkJSON renders the catalogue and the workload table as
// BENCHMARK.json must state them.
func wantBenchmarkJSON(keep benchmarkJSON) benchmarkJSON {
	want := benchmarkJSON{Command: keep.Command, Paths: keep.Paths, RunSeconds: keep.RunSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, boundedJSON{metricJSON{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metricJSON{d.Name, d.Unit, d.Better})
	}
	return want
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	wantJSON, _ := json.MarshalIndent(wantBenchmarkJSON(got), "", "  ")
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("BENCHMARK.json and the catalogue in catalog.go disagree; the catalogue says:\n%s", wantJSON)
	}
	if len(got.Paths) != 1 || got.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
