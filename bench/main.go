// Command bench is the repository's performance ledger: it launches the
// origin and the real cmd/dpcd as child processes, drives dpcd over
// loopback HTTP from two closed-loop clients, checks every response, and
// prints every end-to-end and per-layer metric by name and unit. See
// README.md beside this file.
//
//	go run ./bench -workload frag_hot -seed 1
//	go run ./bench -workload all -runs 10 -out a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: frag_hot, page_hot, frag_spill, write_mix, or all")
	seed := fs.Int64("seed", 1, "seed of the request streams and the write schedule")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 adds the traced run and the probes, and makes the result line carry the per-layer metrics")
	short := fs.Bool("short", false, "smoke sizing: one set-up, 2 s window, 500 traced requests")
	runs := fs.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "append every run's result to this JSON file, for -compare")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare base.json new.json")
	timeout := fs.Duration("timeout", 170*time.Second, "kill dpcd and exit if one run takes longer")
	dir := fs.String("dir", ".bench_build", "scratch directory for the dpcd binary, heap files and traces")
	serve := fs.String("serve-origin", "", "internal: run as the origin child on this address")
	control := fs.String("control", "", "internal: the origin child's control address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *serve != "" {
		fmt.Fprintln(os.Stderr, "bench origin:", serveOrigin(*serve, *control))
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	specs := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		specs = []workloadSpec{w}
	}
	cfg := defaultRunConfig()
	if *short {
		cfg = shortRunConfig()
		*seconds = 2
	}
	cfg.root = "."
	cfg.workDir = *dir
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace != 0
	cfg.logf = func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigc:
			abort("interrupted", 130)
		case <-finished:
			signal.Stop(sigc)
		}
	}()

	failed := false
	for i := 0; i < *runs; i++ {
		for _, w := range specs {
			cfg.seed = *seed + int64(i)
			// The context bounds the build of dpcd; the watchdog bounds
			// everything else, which has no context to cancel.
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			watchdog := time.AfterFunc(*timeout, func() {
				abort(fmt.Sprintf("%s did not finish within %v", w.Name, *timeout), 3)
			})
			res, err := runWorkload(ctx, cfg, w)
			watchdog.Stop()
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			printResult(res, cfg.trace)
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
			failed = failed || !res.Correct
		}
	}
	if failed {
		return 1
	}
	return 0
}

// abort is the way out when a run cannot finish by itself: it kills
// every dpcd, prints what they wrote, removes the temporary directories
// and exits.
func abort(why string, code int) {
	out := killChildren()
	fmt.Fprintf(os.Stderr, "bench: %s\n%s", why, out)
	os.Exit(code)
}

// printResult writes the human-readable ledger and then, as the last
// line, the machine-readable result: the end-to-end metrics of a run
// with tracing off, the per-layer metrics of a traced one.
func printResult(res *result, traced bool) {
	fmt.Printf("workload %s  seed %d  window %gs  stream_sha %s\n", res.Workload, res.Seed, res.Seconds, res.StreamSHA)
	fmt.Printf("attempted %d  failed %d  latency samples %d\n", res.Attempted, res.Failed, res.Samples)
	if res.FirstErr != "" {
		fmt.Printf("first failure: %s\n", res.FirstErr)
	}
	printMetrics("end to end", endToEnd, res.EndToEnd)
	printMetrics("per layer", perLayer, res.PerLayer)

	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.EndToEnd}
	if traced {
		line.Metrics = res.PerLayer
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Printf("%s\n", b)
}

func printMetrics(title string, defs []metricDef, got map[string]value) {
	fmt.Printf("%s:\n", title)
	for _, d := range defs {
		if v, ok := got[d.Name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// appendResult adds res to the JSON array in path, creating it if absent.
func appendResult(path string, res *result) error {
	all, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	all = append(all, *res)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Workload < all[j].Workload })
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []result
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}
