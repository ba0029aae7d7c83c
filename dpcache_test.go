package dpcache_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dpcache"
)

// The facade must support the full documented quick-start flow.
func TestFacadeQuickStart(t *testing.T) {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 64, Proxy: dpcache.ProxyConfig{Strict: true}}, dpcache.ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	page := dpcache.NewScript("hello", func(ctx *dpcache.Context) []dpcache.Block {
		return []dpcache.Block{
			dpcache.Static("head", "<html>"),
			dpcache.Tagged("body", time.Minute, nil, func(c *dpcache.Context, w io.Writer) error {
				_, err := io.WriteString(w, "cached body")
				return err
			}),
			dpcache.Static("tail", "</html>"),
		}
	})
	if err := sys.Register(page); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(sys.FrontURL() + "/page/hello")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "<html>cached body</html>" {
			t.Fatalf("page = %q", body)
		}
	}
	st := sys.Monitor.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeSitesRender(t *testing.T) {
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{}, dpcache.ModeNoCache)
	if err != nil {
		t.Fatal(err)
	}
	catalog := dpcache.BuildBookstore(sys.Repo)
	quote := dpcache.BuildBrokerage(sys.Repo)
	portal, err := dpcache.BuildPortal(dpcache.DefaultPortal(), sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	synth, _, err := dpcache.BuildSynthetic(dpcache.DefaultSynthetic(), sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(catalog, quote, portal, synth); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for _, path := range []string{
		"/page/catalog?categoryID=Fiction",
		"/page/quote?ticker=IBM",
		"/page/portal",
		"/page/synth?page=0",
	} {
		resp, err := http.Get(sys.FrontURL() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(b) == 0 {
			t.Fatalf("%s: status %d, %d bytes", path, resp.StatusCode, len(b))
		}
	}
}

func TestFacadeExperimentCatalogue(t *testing.T) {
	ids := dpcache.ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("ids = %v", ids)
	}
	tab, err := dpcache.RunExperiment("table2", dpcache.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "hit ratio") {
		t.Fatalf("table2 = %s", tab.String())
	}
	if _, err := dpcache.RunExperiment("bogus", dpcache.ExperimentOptions{}); err == nil {
		t.Fatal("bogus experiment accepted")
	}
}

func TestFacadeAnalytical(t *testing.T) {
	p := dpcache.BaselineParams()
	if p.HitRatio != 0.8 {
		t.Fatalf("baseline = %+v", p)
	}
	if p.SavingsPercent() <= 0 {
		t.Fatal("baseline savings not positive")
	}
}

func TestFacadeWorkloadHelpers(t *testing.T) {
	z, err := dpcache.NewZipf(5, 1)
	if err != nil || z.N() != 5 {
		t.Fatalf("zipf: %v", err)
	}
	u, err := dpcache.NewUserPool(3, 0.5)
	if err != nil || u.Size() != 3 {
		t.Fatalf("pool: %v", err)
	}
}

func TestFacadeRenderPage(t *testing.T) {
	sc := dpcache.NewScript("x", func(*dpcache.Context) []dpcache.Block {
		return []dpcache.Block{dpcache.Static("only", "static!")}
	})
	b, err := dpcache.RenderPage(sc, dpcache.NewContext(nil, "", nil))
	if err != nil || string(b) != "static!" {
		t.Fatalf("%q, %v", b, err)
	}
}

func TestFacadeRouterAndHub(t *testing.T) {
	r := dpcache.NewRouter()
	r.AddProxy("a", "http://127.0.0.1:1")
	if len(r.Proxies()) != 1 {
		t.Fatal("router add failed")
	}
	sys, err := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 8}, dpcache.ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	hub := dpcache.NewCoherencyHub(sys.Monitor)
	ev := hub.Broadcast("f", 0, 1)
	if ev.Seq != 1 {
		t.Fatalf("seq = %d", ev.Seq)
	}
}

func ExampleNewScript() {
	sc := dpcache.NewScript("greeting", func(ctx *dpcache.Context) []dpcache.Block {
		return []dpcache.Block{
			dpcache.Static("head", "<h1>"),
			dpcache.Untagged("who", func(c *dpcache.Context, w io.Writer) error {
				_, err := fmt.Fprint(w, c.Param("name", "world"))
				return err
			}),
			dpcache.Static("tail", "</h1>"),
		}
	})
	page, _ := dpcache.RenderPage(sc, dpcache.NewContext(nil, "", map[string]string{"name": "SIGMOD"}))
	fmt.Println(string(page))
	// Output: <h1>SIGMOD</h1>
}
