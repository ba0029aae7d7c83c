package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// BenchRecord is the serialized form of one experiment run — a
// BENCH_<id>.json trajectory file. Committing these per PR makes
// performance drift visible in review: the rows are the same series the
// table prints, and the options block says exactly how the numbers were
// produced, so two records with equal options are directly comparable.
type BenchRecord struct {
	// ID is the experiment ID ("memory", "fig5", …).
	ID string `json:"id"`
	// Title is the table's human title.
	Title string `json:"title"`
	// GeneratedAt is the run's UTC wall-clock time (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// Options echoes the knobs that shaped the run.
	Options BenchOptions `json:"options"`
	// Columns and Rows mirror the rendered table.
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes carries the table's caveats (measured hit ratios, …).
	Notes []string `json:"notes,omitempty"`
}

// BenchOptions is the reproducibility-relevant subset of Options.
type BenchOptions struct {
	Requests    int   `json:"requests"`
	Warmup      int   `json:"warmup"`
	Concurrency int   `json:"concurrency"`
	Seed        int64 `json:"seed"`
}

// WriteBench serializes one experiment result as dir/BENCH_<id>.json and
// returns the written path. The file is rewritten whole each run; diffs
// against the committed copy are the trajectory.
func WriteBench(dir string, tab Table, opts Options) (string, error) {
	opts = opts.withDefaults()
	rec := BenchRecord{
		ID:          tab.ID,
		Title:       tab.Title,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Options: BenchOptions{
			Requests:    opts.Requests,
			Warmup:      opts.Warmup,
			Concurrency: opts.Concurrency,
			Seed:        opts.Seed,
		},
		Columns: tab.Columns,
		Rows:    tab.Rows,
		Notes:   tab.Notes,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", tab.ID))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
