// Command origind runs the origin application server: content repository,
// dynamic scripts, and (in cached mode) the Back End Monitor. Pair it with
// dpcd as the reverse proxy and loadgen as the client.
//
//	origind -addr :8080 -sites bookstore,brokerage,portal,synth
//
// In cached mode origind also serves the BEM's invalidation stream at
// /_dpc/events, a long poll that dpcd follows from start-up, so the pair
// runs with template leases and an exact page tier without further wiring
// (internal/coherency). The stream carries each invalidated fragment's ID,
// slot and generation, which name no more than the templates a proxy
// assembles already show it (personal fragments included): serve it where
// templates may go, and no further. The stream is also a way to slow the
// origin: a client that joins it and never acks holds every BEM
// invalidation — writes, and page requests that expire, evict or report a
// stale fragment — for up to twice the hub's 2s bound, and the hub takes at
// most 64 followers. So origind's listener, like dpcd's -invalidate
// endpoint, must be reachable only by its proxies.
// /stats has a fabric section: the hub's sequence, acks, pullers and drops.
// In plain mode there is no BEM and no stream (404), and dpcd asks the
// origin on every request, as the paper's proxy does.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"

	"dpcache/internal/bem"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/site"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	sites := flag.String("sites", "bookstore,brokerage,portal,synth", "sites to serve")
	mode := flag.String("mode", "cached", "cached (BEM templates) or plain (full pages)")
	capacity := flag.Int("capacity", 4096, "BEM fragment capacity")
	headerPad := flag.Int("headerpad", 0, "extra response-header padding bytes")
	faultLatency := flag.Duration("fault-latency", 0, "fault injection: base latency added to every page/static request")
	faultJitter := flag.Duration("fault-jitter", 0, "fault injection: uniform random extra latency in [0, jitter)")
	faultErrorRate := flag.Float64("fault-error-rate", 0, "fault injection: probability a request is answered 500")
	faultHangRate := flag.Float64("fault-hang-rate", 0, "fault injection: probability a request stalls for -fault-hang")
	faultHang := flag.Duration("fault-hang", 0, "fault injection: stall applied to hung requests (0 = 5s)")
	faultAbortRate := flag.Float64("fault-abort-rate", 0, "fault injection: probability a response is torn mid-body")
	faultConcurrency := flag.Int("fault-concurrency", 0, "fault injection: origin worker-pool size; excess requests queue (0 = unbounded)")
	faultSeed := flag.Int64("fault-seed", 0, "fault injection: RNG seed for reproducible draws (0 = 1)")
	flag.Parse()

	repo := repository.New(repository.LatencyModel{})
	var mon *bem.Monitor
	if *mode == "cached" {
		var err error
		mon, err = bem.New(bem.Config{Capacity: *capacity})
		if err != nil {
			log.Fatal(err)
		}
		mon.BindRepo(repo)
	} else if *mode != "plain" {
		log.Fatalf("origind: unknown mode %q", *mode)
	}

	var faults *origin.FaultInjector
	if *faultLatency > 0 || *faultJitter > 0 || *faultErrorRate > 0 ||
		*faultHangRate > 0 || *faultAbortRate > 0 || *faultConcurrency > 0 {
		faults = origin.NewFaultInjector(origin.FaultConfig{
			Latency:       *faultLatency,
			Jitter:        *faultJitter,
			ErrorRate:     *faultErrorRate,
			HangRate:      *faultHangRate,
			Hang:          *faultHang,
			AbortRate:     *faultAbortRate,
			MaxConcurrent: *faultConcurrency,
			Seed:          *faultSeed,
		})
	}

	srv, err := origin.New(origin.Config{
		Repo:             repo,
		Monitor:          mon,
		ExtraHeaderBytes: *headerPad,
		Faults:           faults,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range strings.Split(*sites, ",") {
		switch strings.TrimSpace(name) {
		case "bookstore":
			err = srv.Register(site.BuildBookstore(repo))
		case "brokerage":
			err = srv.Register(site.BuildBrokerage(repo))
		case "portal":
			p, perr := site.BuildPortal(site.DefaultPortal(), repo)
			if perr != nil {
				log.Fatal(perr)
			}
			err = srv.Register(p)
		case "synth":
			sc, _, serr := site.BuildSynthetic(site.DefaultSynthetic(), repo)
			if serr != nil {
				log.Fatal(serr)
			}
			err = srv.Register(sc)
		case "":
		default:
			log.Fatalf("origind: unknown site %q", name)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("origind: serving %v in %s mode on %s\n", srv.Scripts(), *mode, *addr)
	if srv.Hub() != nil {
		fmt.Printf("origind: invalidation stream at http://%s/_dpc/events\n", *addr)
	}
	log.Fatal(http.ListenAndServe(*addr, srv))
}
