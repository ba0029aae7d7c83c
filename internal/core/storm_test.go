package core

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dpcache/internal/dpc"
	"dpcache/internal/site"
)

// The storm test hammers a cached system with concurrent readers while a
// writer continuously updates fragment source rows, asserting that every
// served page is structurally intact: correct total size, every fragment
// present exactly once, and no fragment older than the version that was
// current when the *previous* page for that client completed (monotonic
// freshness per client under serialized client requests is not guaranteed
// by the paper's design, so we assert the weaker torn-page property plus
// global version floors).
func TestConcurrentStormIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test")
	}
	cfg := site.SyntheticConfig{Pages: 4, FragmentsPerPage: 4, FragmentBytes: 256, Cacheability: 1.0}
	sys, err := NewSystem(Config{Capacity: 64, Seed: 5, Proxy: dpc.Config{Strict: true}}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(cfg, sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	fragRe := regexp.MustCompile(`<!--frag (\d+) v(\d+)-->`)
	var minVersion atomic.Int64 // floor: versions the writer has fully published
	minVersion.Store(1)

	var stop atomic.Bool
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		v := int64(2)
		for !stop.Load() {
			for j := 0; j < cfg.Pages*cfg.FragmentsPerPage; j++ {
				site.TouchFragment(sys.Repo, j, fmt.Sprint(v))
			}
			minVersion.Store(v) // all fragments now at >= v
			v++
		}
	}()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				page := (g + i) % cfg.Pages
				floor := minVersion.Load()
				resp, err := client.Get(fmt.Sprintf("%s/page/synth?page=%d", sys.FrontURL(), page))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d err %v", resp.StatusCode, err)
					return
				}
				if len(body) != cfg.FragmentsPerPage*cfg.FragmentBytes {
					errs <- fmt.Errorf("torn page: %d bytes, want %d", len(body), cfg.FragmentsPerPage*cfg.FragmentBytes)
					return
				}
				matches := fragRe.FindAllStringSubmatch(string(body), -1)
				if len(matches) != cfg.FragmentsPerPage {
					errs <- fmt.Errorf("page %d has %d fragment markers, want %d", page, len(matches), cfg.FragmentsPerPage)
					return
				}
				for k, m := range matches {
					wantFrag := page*cfg.FragmentsPerPage + k
					gotFrag, _ := strconv.Atoi(m[1])
					if gotFrag != wantFrag {
						errs <- fmt.Errorf("page %d slot %d shows fragment %d, want %d (cross-fragment mixup)", page, k, gotFrag, wantFrag)
						return
					}
					v, _ := strconv.ParseInt(m[2], 10, 64)
					if v < floor {
						errs <- fmt.Errorf("fragment %d served version %d below published floor %d", gotFrag, v, floor)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	writerWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
