package bem_test

import (
	"fmt"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/repository"
)

// The run-time operation of Section 4.3.2: first request misses (the
// caller generates content and emits SET), later requests hit (GET), and
// a data update invalidates the fragment through its dependencies.
func Example() {
	mon, _ := bem.New(bem.Config{Capacity: 16})
	repo := repository.New(repository.LatencyModel{})
	mon.BindRepo(repo)
	quote := repository.Key{Table: "quotes", Row: "IBM"}
	repo.Put(quote, map[string]string{"px": "141.80"})

	d, _ := mon.Lookup("pxquote+IBM", 2*time.Second)
	fmt.Println("first lookup hit:", d.Hit)
	mon.Depend("pxquote+IBM", d.Gen, quote) // before the render reads the row
	mon.Commit("pxquote+IBM", d.Gen, 64)

	d, _ = mon.Lookup("pxquote+IBM", 2*time.Second)
	fmt.Println("second lookup hit:", d.Hit)

	repo.Put(quote, map[string]string{"px": "142.10"}) // price tick
	d, _ = mon.Lookup("pxquote+IBM", 2*time.Second)
	fmt.Println("after update hit:", d.Hit)

	st := mon.Stats()
	fmt.Printf("lookups=%d hits=%d data-invalidations=%d\n",
		st.Lookups, st.Hits, st.DataInvalidations)
	// Output:
	// first lookup hit: false
	// second lookup hit: true
	// after update hit: false
	// lookups=3 hits=1 data-invalidations=1
}
