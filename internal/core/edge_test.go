package core

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/routing"
	"dpcache/internal/site"
)

// Section 7 deployment in miniature: two edge DPCs behind a router with a
// coherency hub. Asserts session affinity, coherent invalidation, and
// router failover.
func TestEdgeDeployment(t *testing.T) {
	sys, err := NewSystem(Config{Capacity: 256, Seed: 4, Proxy: dpc.Config{Strict: true}}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	portal, err := site.BuildPortal(site.PortalConfig{Users: 8, Modules: 6, ModulesPerPage: 3, ModuleBytes: 256}, sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(portal); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if _, err := sys.StartEdge("too-early-check"); err != nil {
		t.Fatal(err) // started system: must succeed
	}

	hub := coherency.NewHub(sys.Monitor)
	router := routing.NewRouter(nil)
	for _, name := range []string{"east", "west"} {
		edge, err := sys.StartEdge(name)
		if err != nil {
			t.Fatal(err)
		}
		hub.Subscribe(edge.Proxy)
		router.AddProxy(name, edge.URL)
	}
	front := httptest.NewServer(router)
	defer front.Close()

	fetch := func(user string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/page/portal", nil)
		req.Header.Set("X-User", user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return string(b), resp.Header.Get("X-Routed-To")
	}

	// Affinity: repeated requests by one user land on one edge.
	for u := 0; u < 8; u++ {
		user := fmt.Sprintf("u%d", u)
		_, home := fetch(user)
		for i := 0; i < 3; i++ {
			if _, again := fetch(user); again != home {
				t.Fatalf("user %s moved %s → %s", user, home, again)
			}
		}
	}

	// Coherency: update a module; no user on any edge may see stale
	// content afterward.
	site.UpdateModule(sys.Repo, 0, "fresh content everywhere")
	if hub.AckedThrough() != hub.Seq() {
		t.Fatalf("edges acked %d of %d events", hub.AckedThrough(), hub.Seq())
	}
	for u := 0; u < 8; u++ {
		page, _ := fetch(fmt.Sprintf("u%d", u))
		if strings.Contains(page, "content of module 0") {
			t.Fatalf("user u%d saw stale module content", u)
		}
	}

	// Failover: removing one edge, all users still get served.
	router.RemoveProxy("east")
	for u := 0; u < 8; u++ {
		page, routed := fetch(fmt.Sprintf("u%d", u))
		if routed != "west" {
			t.Fatalf("request routed to %q after removal", routed)
		}
		if len(page) == 0 {
			t.Fatal("empty page after failover")
		}
	}
}

func TestStartEdgeBeforeStartFails(t *testing.T) {
	sys, err := NewSystem(Config{Capacity: 8}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartEdge("x"); err == nil {
		t.Fatal("StartEdge before Start accepted")
	}
}
