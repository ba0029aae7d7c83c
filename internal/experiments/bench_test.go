package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestWriteBench(t *testing.T) {
	dir := t.TempDir()
	tab := Table{
		ID:      "memory",
		Title:   "memory-bounded store",
		Columns: []string{"clients", "ttfb_ms"},
		Rows:    [][]string{{"1", "2.0"}, {"64", "2.4"}},
		Notes:   []string{"measured"},
	}
	path, err := WriteBench(dir, tab, Options{Requests: 60, Warmup: 20, Concurrency: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_memory.json"); path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec BenchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if rec.ID != "memory" || rec.Title != "memory-bounded store" {
		t.Errorf("record identity = %q/%q", rec.ID, rec.Title)
	}
	if rec.Options.Seed != 7 || rec.Options.Requests != 60 {
		t.Errorf("options not echoed: %+v", rec.Options)
	}
	if len(rec.Rows) != 2 || rec.Rows[1][1] != "2.4" {
		t.Errorf("rows not preserved: %v", rec.Rows)
	}
	if len(rec.Notes) != 1 || rec.Notes[0] != "measured" {
		t.Errorf("notes not preserved: %v", rec.Notes)
	}
	if _, err := time.Parse(time.RFC3339, rec.GeneratedAt); err != nil {
		t.Errorf("generated_at %q not RFC 3339: %v", rec.GeneratedAt, err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Error("file should end with a newline")
	}
}

// Zero-valued options are filled with defaults before being echoed, so a
// committed record always states real run parameters.
func TestWriteBenchDefaultsOptions(t *testing.T) {
	path, err := WriteBench(t.TempDir(), Table{ID: "x"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var rec BenchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	d := DefaultOptions()
	if rec.Options.Requests != d.Requests || rec.Options.Seed != d.Seed {
		t.Errorf("defaults not applied: %+v", rec.Options)
	}
}
