// Edge: the paper's Section 7 forward-proxy deployment. Three edge DPCs
// front one origin; a consistent-hash router gives users session affinity
// (and failover), and a coherency hub propagates BEM invalidations to
// every edge so none keeps serving stale fragments.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"dpcache"
)

func main() {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 512, Proxy: dpcache.ProxyConfig{Strict: true}}, dpcache.ModeCached)
	if err != nil {
		log.Fatal(err)
	}
	portal, err := dpcache.BuildPortal(dpcache.DefaultPortal(), sys.Repo)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(portal); err != nil {
		log.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Three forward-deployed proxies, one coherency hub.
	hub := dpcache.NewCoherencyHub(sys.Monitor)
	router := dpcache.NewRouter()
	for _, name := range []string{"edge-east", "edge-west", "edge-eu"} {
		edge, err := sys.StartEdge(name)
		if err != nil {
			log.Fatal(err)
		}
		hub.Subscribe(edge.Proxy)
		router.AddProxy(name, edge.URL)
		fmt.Printf("started %s at %s\n", name, edge.URL)
	}
	front := httptest.NewServer(router)
	defer front.Close()

	fetch := func(user string) (page, routedTo string) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/page/portal", nil)
		req.Header.Set("X-User", user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return string(b), resp.Header.Get("X-Routed-To")
	}

	// Session affinity: each user sticks to one edge.
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	homes := map[string]string{}
	for _, u := range users {
		_, edge := fetch(u)
		homes[u] = edge
		for i := 0; i < 3; i++ {
			if _, again := fetch(u); again != edge {
				log.Fatalf("affinity broken for %s: %s then %s", u, edge, again)
			}
		}
	}
	fmt.Println("✓ session affinity:", homes)

	// Coherency: update a module that appears in many profiles; every
	// edge must serve fresh content immediately afterward.
	sys.Repo.Put(dpcache.RepoKey{Table: "modules", Row: "mod0"},
		map[string]string{"title": "Module 0", "body": "BREAKING: coherent update"})
	fmt.Printf("hub broadcast %d invalidation events, all edges acked through %d\n",
		hub.Seq(), hub.AckedThrough())

	stale := 0
	for _, u := range users {
		page, _ := fetch(u)
		if strings.Contains(page, "content of module 0") {
			stale++
		}
	}
	if stale > 0 {
		log.Fatalf("COHERENCY VIOLATION: %d users saw stale module content", stale)
	}
	fmt.Println("✓ no edge served stale content after invalidation broadcast")
}
