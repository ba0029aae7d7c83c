package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"dpcache/internal/depindex"
	"dpcache/internal/diskstore"
	"dpcache/internal/fragstore"
	"dpcache/internal/origin"
	"dpcache/internal/tmpl"
	"dpcache/internal/tmplplan"
)

// The probes time layers that have no seam a decorator could sit on, by
// calling their public functions directly: one goroutine, fixed operation
// counts (times cfg.probeScale), inputs at this workload's sizes.

// captureTemplates fetches the first n pages' templates from the origin
// as the proxy would: the warm BEM answers with GET tags for the tagged
// fragments and the rest as literals.
func captureTemplates(originURL string, n int) ([][]byte, error) {
	var out [][]byte
	for p := 0; p < n; p++ {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/page/synth?page=%d", originURL, p), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(origin.HeaderCapable, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get(origin.HeaderTemplate) == "" {
			return nil, fmt.Errorf("page %d: status %d, template header %q", p, resp.StatusCode, resp.Header.Get(origin.HeaderTemplate))
		}
		out = append(out, body)
	}
	return out, nil
}

// perOp times n calls of fn and returns the mean.
func perOp(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

func runProbes(cfg runConfig, templates [][]byte, into map[string]float64) error {
	if err := probeTemplates(cfg, templates, into); err != nil {
		return err
	}
	if err := probeDiskstore(cfg, into); err != nil {
		return err
	}
	probeDepindex(cfg, into)
	return nil
}

func probeTemplates(cfg runConfig, templates [][]byte, into map[string]float64) error {
	codec := tmpl.Binary{}
	n := 200 * cfg.probeScale
	pick := func(i int) []byte { return templates[i%len(templates)] }

	var err error
	into["tmpl.decode_us"] = us(perOp(n, func(i int) {
		if _, e := tmpl.DecodeAll(codec, bytes.NewReader(pick(i))); e != nil {
			err = e
		}
	}))
	into["tmplplan.compile_us"] = us(perOp(n, func(i int) {
		if _, e := tmplplan.Compile(codec, pick(i)); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	// Execute against a RAM store holding every fragment the templates
	// reference, configured as the proxy configures its executor.
	store, err := fragstore.New(fragstore.Config{Backend: fragstore.BackendSharded, Capacity: slotCapacity})
	if err != nil {
		return err
	}
	plans, err := tmplplan.NewCache(codec, tmplplan.CacheConfig{})
	if err != nil {
		return err
	}
	content := bytes.Repeat([]byte("x"), siteConfig.FragmentBytes)
	compiled := make([]*tmplplan.Plan, len(templates))
	for i, t := range templates {
		ins, err := tmpl.DecodeAll(codec, bytes.NewReader(t))
		if err != nil {
			return err
		}
		for _, in := range ins {
			if in.Op == tmpl.OpGet {
				if err := store.Set(in.Key, in.Gen, content); err != nil {
					return err
				}
			}
		}
		if compiled[i], _, err = plans.Get(t); err != nil {
			return err
		}
	}
	exec := &tmplplan.Exec{Store: store, Strict: true, Codec: codec, Plans: plans, Parallelism: 4}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	into["tmplplan.exec_us"] = us(perOp(n, func(i int) {
		if _, e := exec.Run(compiled[i%len(compiled)], io.Discard, nil); e != nil {
			err = e
		}
	}))
	runtime.ReadMemStats(&ms1)
	into["tmplplan.exec_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return err
}

// probeDiskstore times the heap file at the fragment size: Put, then Get
// with a pool large enough to hold every page (all hits), then Get with a
// one-frame pool read in an order that changes page on every call (all
// loads). The operating system's page cache still serves the file reads.
func probeDiskstore(cfg runConfig, into map[string]float64) error {
	dir, err := tempDir(cfg.workDir, "probe-")
	if err != nil {
		return err
	}
	defer removeTempDir(dir)
	n := 400 * cfg.probeScale
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	value := bytes.Repeat([]byte("x"), siteConfig.FragmentBytes)
	perPage := diskstore.DefaultPageBytes / siteConfig.FragmentBytes

	open := func(name string, pool int) (*diskstore.Store, error) {
		return diskstore.Open(diskstore.Config{Path: filepath.Join(dir, name), PoolPages: pool})
	}
	fill := func(s *diskstore.Store) time.Duration {
		return perOp(n, func(i int) { s.Put(key(i), diskstore.Entry{Value: value}) })
	}
	missing := 0
	get := func(s *diskstore.Store, order func(i int) int) time.Duration {
		return perOp(n, func(i int) {
			if _, ok := s.Get(key(order(i))); !ok {
				missing++
			}
		})
	}

	hot, err := open("hit.heap", n/perPage+2)
	if err != nil {
		return err
	}
	into["diskstore.put_us"] = us(fill(hot))
	get(hot, func(i int) int { return i }) // load every page once
	into["diskstore.get_pool_hit_us"] = us(get(hot, func(i int) int { return i }))
	if err := hot.Close(); err != nil {
		return err
	}

	cold, err := open("load.heap", 1)
	if err != nil {
		return err
	}
	fill(cold)
	// Stride by a page's worth of records so consecutive reads land on
	// different pages.
	into["diskstore.get_pool_load_us"] = us(get(cold, func(i int) int { return (i * perPage) % n }))
	if err := cold.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("diskstore probe: %d reads missed", missing)
	}
	return nil
}

func probeDepindex(cfg runConfig, into map[string]float64) {
	n := 2000 * cfg.probeScale
	ix := depindex.New(depindex.Config{Horizon: pageTTL})
	refs := make([]string, n)
	keys := make([]string, n)
	for i := range refs {
		refs[i] = depindex.Ref(uint32(i%slotCapacity), uint32(i))
		keys[i] = fmt.Sprintf("GET /page/synth?page=%d", i%siteConfig.Pages)
	}
	into["depindex.record_ns"] = float64(perOp(n, func(i int) { ix.Record(refs[i], keys[i]) }))
	into["depindex.dependents_ns"] = float64(perOp(n, func(i int) { ix.Dependents(refs[i]) }))
}
