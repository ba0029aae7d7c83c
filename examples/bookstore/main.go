// Bookstore: the paper's Section 4.3.2 catalog site, demonstrating the
// correctness property that breaks URL-keyed page caches (Section 3.2.1):
// Bob (registered) and Alice (anonymous) request the *same URL* and must
// receive different pages — Bob's greeting and recommendations must never
// leak into Alice's response — while the shared category fragment is still
// served from the proxy cache for both.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"dpcache"
)

func main() {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 256, Proxy: dpcache.ProxyConfig{Strict: true}}, dpcache.ModeCached)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dpcache.BuildBookstore(sys.Repo)); err != nil {
		log.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fetch := func(user string) string {
		req, _ := http.NewRequest(http.MethodGet,
			sys.FrontURL()+"/page/catalog?categoryID=Fiction", nil)
		if user != "" {
			req.Header.Set("X-User", user)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	bob := fetch("bob")
	fmt.Println("--- Bob's page (same URL) ---")
	fmt.Println(excerpt(bob))
	if !strings.Contains(bob, "Hello, Bob!") {
		log.Fatal("Bob lost his greeting")
	}

	alice := fetch("") // anonymous, same URL
	fmt.Println("--- Alice's page (same URL) ---")
	fmt.Println(excerpt(alice))
	if strings.Contains(alice, "Hello,") || strings.Contains(alice, "Because you like") {
		log.Fatal("CORRECTNESS VIOLATION: Alice received personalized content")
	}
	fmt.Println("✓ same URL, different layouts, no personalization leak")

	// The shared category fragment is cached across both users.
	st := sys.Monitor.Stats()
	fmt.Printf("BEM after 2 requests: %d lookups, %d hits (category fragment reused)\n",
		st.Lookups, st.Hits)

	// A catalog update invalidates just the category fragment.
	sys.Repo.Put(dpcache.RepoKey{Table: "books", Row: "Fiction/0"},
		map[string]string{"title": "A Wizard of Earthsea", "category": "Fiction"})
	fresh := fetch("")
	if !strings.Contains(fresh, "A Wizard of Earthsea") {
		log.Fatal("stale catalog served after update")
	}
	fmt.Println("✓ catalog update propagated through dependency invalidation")
}

func excerpt(page string) string {
	if len(page) > 360 {
		return page[:360] + "…"
	}
	return page
}
