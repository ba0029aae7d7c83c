// Quickstart: stand up a complete origin + BEM + DPC system in-process,
// serve a page with one cacheable fragment, and watch the origin↔proxy
// template shrink once the fragment is cached.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"dpcache"
)

func main() {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 64, Proxy: dpcache.ProxyConfig{Strict: true}}, dpcache.ModeCached)
	if err != nil {
		log.Fatal(err)
	}

	// Seed some content the fragment will read (and depend on: updating
	// it invalidates the fragment automatically).
	sys.Repo.Put(dpcache.RepoKey{Table: "motd", Row: "today"},
		map[string]string{"text": "fragment caching with dynamic layouts"})

	page := dpcache.NewScript("hello", func(ctx *dpcache.Context) []dpcache.Block {
		return []dpcache.Block{
			dpcache.Static("head", "<html><body><h1>dpcache</h1>"),
			dpcache.Tagged("motd", time.Minute, nil,
				func(c *dpcache.Context, w io.Writer) error {
					_, err := fmt.Fprintf(w, "<p>Today: %s</p>", c.Field("motd", "today", "text", "…"))
					return err
				}),
			dpcache.Static("tail", "</body></html>"),
		}
	})
	if err := sys.Register(page); err != nil {
		log.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fetch := func() string {
		resp, err := http.Get(sys.FrontURL() + "/page/hello")
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return string(b)
	}

	before := sys.Meter.BytesOut()
	page1 := fetch()
	cold := sys.Meter.BytesOut() - before

	before = sys.Meter.BytesOut()
	page2 := fetch()
	warm := sys.Meter.BytesOut() - before

	fmt.Println("page:", page1)
	if page1 != page2 {
		log.Fatal("pages differ between cold and warm serve!")
	}
	fmt.Printf("origin bytes, cold request (SET carries content): %d\n", cold)
	fmt.Printf("origin bytes, warm request (GET tag only):        %d\n", warm)
	fmt.Printf("origin-link reduction: %.1fx\n", float64(cold)/float64(warm))

	// Update the source row: the dependency index invalidates the
	// fragment, and the next page is fresh.
	sys.Repo.Put(dpcache.RepoKey{Table: "motd", Row: "today"},
		map[string]string{"text": "fresh content after invalidation"})
	fmt.Println("after update:", fetch())

	st := sys.Monitor.Stats()
	fmt.Printf("BEM: %d lookups, %d hits, %d data invalidations (hit ratio %.2f)\n",
		st.Lookups, st.Hits, st.DataInvalidations, st.HitRatio())
}
