package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first quartile, median and third quartile of vs
// as Python's statistics.quantiles(vs, n=4) computes them (the exclusive
// method), so spreads agree with the driver's. Fewer than two values
// have no spread: all three are the single value.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// row is one comparison.
type row struct {
	workload, metric string
	base, next       float64
	change           float64 // share of base by which next is worse; negative is better
	spread           float64 // the wider interquartile range of the two, as a share of its median
	bound            float64
	verdict          string
}

// judge compares the two sides' runs of one metric. A metric whose own
// run-to-run spread exceeds its bound cannot tell a regression of that
// size from noise, so it is unresolved rather than ok or worse.
func judge(d metricDef, base, next []float64) row {
	r := row{metric: d.Name, bound: d.Bound}
	var spreads [2]float64
	for i, vs := range [][]float64{base, next} {
		q1, q2, q3 := quartiles(vs)
		if q2 != 0 {
			spreads[i] = (q3 - q1) / q2
		}
		if i == 0 {
			r.base = q2
		} else {
			r.next = q2
		}
	}
	r.spread = max(spreads[0], spreads[1])
	if r.base != 0 {
		r.change = (r.next - r.base) / r.base
		if d.Better == higher {
			r.change = -r.change
		}
	}
	switch {
	case r.spread > d.Bound:
		r.verdict = verdictUnresolved
	case r.change > d.Bound:
		r.verdict = verdictWorse
	default:
		r.verdict = verdictOK
	}
	return r
}

// compareResults judges every workload × end-to-end metric present on
// both sides.
func compareResults(base, next []result) []row {
	collect := func(rs []result) map[string]map[string][]float64 {
		m := map[string]map[string][]float64{}
		for _, r := range rs {
			if m[r.Workload] == nil {
				m[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.EndToEnd {
				m[r.Workload][name] = append(m[r.Workload][name], v.Value)
			}
		}
		return m
	}
	b, n := collect(base), collect(next)
	var rows []row
	for _, w := range workloads {
		for _, d := range endToEnd {
			bv, nv := b[w.Name][d.Name], n[w.Name][d.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			r := judge(d, bv, nv)
			r.workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// compareFiles prints one row per workload × end-to-end metric and
// returns the exit code: 1 if any row is worse or a side had a failed
// operation, 2 if a file cannot be read.
func compareFiles(w io.Writer, basePath, nextPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	next, err := readResults(nextPath)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	return printComparison(w, base, next)
}

func printComparison(w io.Writer, base, next []result) int {
	code := 0
	for _, side := range [][]result{base, next} {
		for _, r := range side {
			if !r.Correct {
				fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	rows := compareResults(base, next)
	if len(rows) == 0 {
		fmt.Fprintln(w, "bench: the two files share no workload")
		return 2
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tworse by\tspread\tbound\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
			r.workload, r.metric, r.base, r.next, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	tw.Flush()
	return code
}
