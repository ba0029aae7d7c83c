package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The harness starts its own binary as the origin child; under go test
// that binary is this one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve-origin" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// shortConfig is the -short sizing rooted at the repository, with the
// dpcd binary and every temporary file under a directory of the test's.
func shortConfig(t *testing.T) runConfig {
	cfg := shortRunConfig()
	cfg.root = ".."
	cfg.workDir = t.TempDir()
	cfg.window = 2 * time.Second
	cfg.trace = true
	cfg.seed = 1
	cfg.logf = t.Logf
	return cfg
}

// TestBenchSmoke is `bench -short -trace 1 -workload all`: every workload
// launches the real dpcd, passes the oracle with no failed operation,
// emits every metric of the catalogue, shows the layer activity its
// name promises, and leaves no process or file behind.
func TestBenchSmoke(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc for the proxy's CPU time and peak memory")
	}
	cfg := shortConfig(t)
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d first=%q",
				w.Name, res.Correct, res.Attempted, res.Failed, res.FirstErr)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		layer := func(name string) float64 { return res.PerLayer[name].Value }
		spills := layer("fragstore.promotions_per_req") > 0 && layer("diskstore.pool_loads_per_req") > 0
		if spills != (w.Name == "frag_spill") {
			t.Errorf("%s: promotions %v, pool loads %v", w.Name,
				layer("fragstore.promotions_per_req"), layer("diskstore.pool_loads_per_req"))
		}
		if w.Name == "page_hot" && (layer("origin.fetches_per_req") >= 0.001 || layer("pagecache.hit_ratio") <= 0.99) {
			t.Errorf("page_hot: origin fetches %v per request, page hit ratio %v",
				layer("origin.fetches_per_req"), layer("pagecache.hit_ratio"))
		}
		if w.writes != (layer("bem.invalidations_per_write") > 0) {
			t.Errorf("%s: %v invalidations per write", w.Name, layer("bem.invalidations_per_write"))
		}
		if _, err := os.Stat(filepath.Join(cfg.workDir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if out := killChildren(); out != "" {
		t.Errorf("dpcd still running after the runs:\n%s", out)
	}
	left, _ := filepath.Glob(filepath.Join(cfg.workDir, "*-*"))
	if len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}

// A proxy that cannot start is reported with what it wrote, and is gone.
func TestFailedSpawnReportsOutput(t *testing.T) {
	dir := t.TempDir()
	bin, err := buildDpcd(context.Background(), "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = startDpcd(bin, "http://127.0.0.1:1", []string{"-store", "bogus"})
	if err == nil {
		t.Fatal("dpcd -store bogus started")
	}
	if !strings.Contains(err.Error(), "exited before becoming ready") || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error does not carry dpcd's own message: %v", err)
	}
}

// stop interrupts, then kills a proxy that ignores the interrupt, and in
// both cases returns only once the process has been reaped.
func TestStopReapsTheChild(t *testing.T) {
	dir := t.TempDir()
	bin, err := buildDpcd(context.Background(), "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	o, err := startOrigin("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.stop()
	c, err := startDpcd(bin, o.url, workloads[0].dpcdFlags(dir))
	if err != nil {
		t.Fatal(err)
	}
	pid := c.pid()
	c.stop()
	if c.cmd.ProcessState == nil {
		t.Fatal("stop returned before the process was reaped")
	}
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid), "stat")); err == nil {
		t.Errorf("pid %d still exists after stop", pid)
	}
}

func TestBuildRefusesAnotherDirectory(t *testing.T) {
	if _, err := buildDpcd(context.Background(), t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("built dpcd from a directory that is not the repository root")
	}
}
