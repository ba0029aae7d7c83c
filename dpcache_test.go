package dpcache_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpcache"
	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/tmpl"
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
	// Each template names the fragment and the page's shell: both miss,
	// then both hit.
	st := sys.Monitor.Stats()
	if st.Hits != 1+1 || st.Misses != 1+1 {
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
	hub := sys.Origin.Hub()
	ev := hub.Broadcast("f", 0, 1)
	if ev.Seq != 1 {
		t.Fatalf("seq = %d", ev.Seq)
	}
}

// A facade proxy subscribed to a hub covers the whole-response tier under
// both admission rules: an assembled page the origin opted in
// (Cache-Control: max-age) is dropped by a fragment event broadcast
// through the hub, with the page rule off and on.
func TestFacadePageSubscriberDropsOptInPage(t *testing.T) {
	var buf bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&buf)
	_ = enc.Literal([]byte("<html>"))
	_ = enc.Set(1, 1, []byte("opted in"))
	_ = enc.Literal([]byte("</html>"))
	_ = enc.Flush()
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-DPC-Template", "binary")
		w.Header().Set("Cache-Control", "max-age=60")
		_, _ = w.Write(buf.Bytes())
	}))
	defer origin.Close()

	mon, err := bem.New(bem.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pageCache := range []bool{false, true} {
		p, err := dpc.New(dpcache.ProxyConfig{OriginURL: origin.URL, Capacity: 8, PublishInterval: -1, PageCache: pageCache})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		get := func() string {
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/page", nil))
			return rec.Header().Get("X-Cache")
		}
		get()
		if state := get(); state != "STATIC" {
			t.Fatalf("pagecache=%v: revisit X-Cache = %q, want STATIC", pageCache, state)
		}
		hub := coherency.NewHub(mon)
		hub.Subscribe(p)
		hub.Broadcast("frag", 1, 1) // the page's fragment dies
		if state := get(); state == "STATIC" {
			t.Fatalf("pagecache=%v: the opted-in page outlived its fragment", pageCache)
		}
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
