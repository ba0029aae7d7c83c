// Brokerage: the stock-quote page of the paper's Section 3.2.1. Three
// fragments with three lifetimes — price (seconds), headlines (half
// hour), historical research (monthly) — show why fragment-granularity
// invalidation beats page-level caching: a price tick regenerates ~100
// bytes, not the whole page.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"

	"dpcache"
)

func main() {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 256, Proxy: dpcache.ProxyConfig{Strict: true}}, dpcache.ModeCached)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dpcache.BuildBrokerage(sys.Repo)); err != nil {
		log.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fetch := func() (string, int64) {
		before := sys.Meter.BytesOut()
		resp, err := http.Get(sys.FrontURL() + "/page/quote?ticker=IBM")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), sys.Meter.BytesOut() - before
	}

	_, cold := fetch()
	fmt.Printf("cold request:  %5d origin bytes (all three fragments SET)\n", cold)

	_, warm := fetch()
	fmt.Printf("warm request:  %5d origin bytes (three GET tags)\n", warm)

	// The market moves: only the price fragment's source row changes.
	sys.Repo.Put(dpcache.RepoKey{Table: "quotes", Row: "IBM"},
		map[string]string{"px": "142.10", "t": "10:15:00"})

	page, tick := fetch()
	fmt.Printf("after tick:    %5d origin bytes (price re-SET; headlines+research still GETs)\n", tick)

	if tick >= cold {
		log.Fatal("price tick cost as much as a cold page — granular invalidation broken")
	}
	if tick <= warm {
		log.Fatal("price tick was free — invalidation did not happen")
	}
	fmt.Printf("page shows new price: %v\n", contains(page, "$142.10"))
	fmt.Printf("origin-byte economics: cold %d > tick %d > warm %d ✓\n", cold, tick, warm)

	st := sys.Monitor.Stats()
	fmt.Printf("BEM: %d data invalidations (just the price fragment)\n", st.DataInvalidations)
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
