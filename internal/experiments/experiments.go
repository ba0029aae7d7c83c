// Package experiments regenerates every table and figure in the paper's
// evaluation (Sections 5 and 6), plus the Result 1 break-even check and
// the deployment case study.
//
// Each runner returns a Table whose rows are the series the paper plots.
// Analytical figures (2a, 2b, 3a) come straight from the closed-form model
// in package analytical; experimental figures (3b, 5, 6) stand up a live
// origin+BEM+DPC system per point, drive it with a Zipf workload, and
// measure real bytes on the origin↔DPC link the way the paper's Sniffer
// did (application bytes plus modeled TCP/IP overhead).
package experiments

import (
	"dpcache/internal/fragstore"
	"fmt"
	"strings"
)

// Table is one regenerated paper artifact.
type Table struct {
	// ID matches DESIGN.md's experiment index ("fig2a", "table2", …).
	ID string
	// Title describes the artifact.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes records caveats (measured hit ratios, substitutions, …).
	Notes []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune the live-system experiments. Analytical runners ignore
// them.
type Options struct {
	// Requests is the measured-window request count per point per mode.
	Requests int
	// Warmup requests run before the meter resets (steady-state, as in
	// the paper's "in steady-state …" setup).
	Warmup int
	// Concurrency is the client worker count.
	Concurrency int
	// Seed drives all randomness.
	Seed int64
	// ExtraHeaderBytes pads origin headers toward Table 2's f = 500.
	ExtraHeaderBytes int
	// ZipfAlpha shapes page popularity.
	ZipfAlpha float64
	// Coalesce enables single-flight broadcast coalescing at the measured
	// system's proxy (dpc.Config.Coalesce) in the live runners.
	Coalesce bool
	// Store selects and bounds the measured proxy's fragment store (the
	// zero value is the paper-faithful slot store); the memory experiment
	// sweeps its ByteBudget. Capacity and DiskPath are the system's to set.
	Store fragstore.Config
	// DiskDir is the tiered backend's heap-file directory
	// (core.Config.DiskDir); required when Store.Backend is "tiered". The
	// memory experiment's disk rows point this at a temporary directory
	// per point.
	DiskDir string
	// PageCache mounts the whole-page cache stage at the measured
	// proxy (dpc.Config.PageCache) in the live runners.
	PageCache bool
}

// DefaultOptions sizes runs for the CLI: large enough for stable numbers.
func DefaultOptions() Options {
	return Options{Requests: 400, Warmup: 40, Concurrency: 4, Seed: 2002, ExtraHeaderBytes: 300, ZipfAlpha: 1}
}

// QuickOptions sizes runs for -short tests and smoke benchmarks.
func QuickOptions() Options {
	return Options{Requests: 60, Warmup: 20, Concurrency: 4, Seed: 2002, ExtraHeaderBytes: 300, ZipfAlpha: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Requests <= 0 {
		o.Requests = d.Requests
	}
	if o.Warmup <= 0 {
		o.Warmup = d.Warmup
	}
	if o.Concurrency <= 0 {
		o.Concurrency = d.Concurrency
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.ZipfAlpha < 0 {
		o.ZipfAlpha = d.ZipfAlpha
	}
	return o
}

// Registry maps experiment IDs to runners so the CLI and the benchmarks
// share one catalogue.
type Runner func(Options) (Table, error)

// All returns the full experiment catalogue in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table2", func(Options) (Table, error) { return Table2(), nil }},
		{"fig2a", func(Options) (Table, error) { return Fig2a(), nil }},
		{"fig2b", func(Options) (Table, error) { return Fig2b(), nil }},
		{"fig3a", func(Options) (Table, error) { return Fig3a(), nil }},
		{"result1", func(Options) (Table, error) { return Result1(), nil }},
		{"fig3b", Fig3b},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"memory", Memory},
		{"pipeline", Pipeline},
		{"casestudy", CaseStudy},
		{"baselines", Baselines},
		{"ablation-codec", AblationCodec},
		{"ablation-strict", AblationStrict},
		{"ablation-latency", AblationLatencyModel},
		{"saturation", Saturation},
	}
}

// ByID returns the runner for one experiment.
func ByID(id string) (Runner, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
