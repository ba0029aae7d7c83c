// Command dpcbench regenerates the paper's tables and figures.
//
//	dpcbench                    # run everything
//	dpcbench -run fig3b,fig5    # run selected artifacts
//	dpcbench -requests 1000     # bigger measurement windows
//	dpcbench -run memory -json .   # also emit BENCH_*.json trajectories
//
// Analytical artifacts (table2, fig2a, fig2b, fig3a, result1) are
// instantaneous; experimental ones (fig3b, fig5, fig6, casestudy) stand up
// live origin+BEM+DPC systems per data point and take seconds each.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpcache/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	requests := flag.Int("requests", 0, "measured requests per point (0 = default)")
	warmup := flag.Int("warmup", 0, "warmup requests per point (0 = default)")
	concurrency := flag.Int("concurrency", 0, "client workers (0 = default)")
	seed := flag.Int64("seed", 0, "workload seed (0 = default)")
	jsonDir := flag.String("json", "", "also write each result as <dir>/BENCH_<id>.json trajectory files")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *requests > 0 {
		opts.Requests = *requests
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *concurrency > 0 {
		opts.Concurrency = *concurrency
	}
	if *seed != 0 {
		opts.Seed = *seed
	}

	var ids []string
	if *run == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	exit := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			continue
		}
		start := time.Now()
		tab, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			exit = 1
			continue
		}
		fmt.Print(tab.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *jsonDir != "" {
			path, err := experiments.WriteBench(*jsonDir, tab, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
				exit = 1
				continue
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	os.Exit(exit)
}
