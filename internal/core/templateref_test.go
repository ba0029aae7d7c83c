package core

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dpcache/internal/dpc"
	"dpcache/internal/site"
)

// gatedLink is the proxy's origin transport with a gate on it: while armed,
// a request stops after the proxy has written its headers — the offer is
// made — and before the origin sees it. It records each request's offer. It
// withholds the lease ask (X-DPC-Lease), so that every request the tests
// make reaches the origin: the offer and its answer are what they observe.
type gatedLink struct {
	next http.RoundTripper

	mu      sync.Mutex
	offers  []string
	entered chan struct{} // non-nil while armed
	release chan struct{}
}

func (g *gatedLink) RoundTrip(r *http.Request) (*http.Response, error) {
	g.mu.Lock()
	g.offers = append(g.offers, r.Header.Get("X-DPC-Have"))
	entered, release := g.entered, g.release
	g.entered = nil
	g.mu.Unlock()
	if entered != nil {
		close(entered)
		<-release
	}
	if r.Header.Get("X-DPC-Lease") != "" {
		r = r.Clone(r.Context())
		r.Header.Del("X-DPC-Lease")
	}
	return g.next.RoundTrip(r)
}

func (g *gatedLink) arm() (entered <-chan struct{}, release chan<- struct{}) {
	e, r := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.entered, g.release = e, r
	g.mu.Unlock()
	return e, r
}

// lastOffer returns the offer the most recent request carried ("" = none).
func (g *gatedLink) lastOffer() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.offers[len(g.offers)-1]
}

// newTemplateRefSystem is a fabric system without the page tier, so that
// every request is a fragment-path request the origin answers.
func newTemplateRefSystem(t *testing.T) (*System, *gatedLink) {
	link := &gatedLink{next: &http.Transport{MaxIdleConnsPerHost: 8}}
	sys, _ := newFabricSystem(t, func(c *Config) {
		c.Proxy = dpc.Config{Strict: true, Transport: link}
	})
	return sys, link
}

func counter(sys *System, name string) int64 { return sys.Registry.Counter(name).Value() }

// The fabric flushes the plan tier while a request that offered a plan is
// parked between its offer and the origin's answer. The request kept its
// plan, so the reference it is answered with still assembles the right page;
// the flush shows in the next request, which finds no plan and offers
// nothing.
func TestTemplateRefPlanFlushBetweenOfferAndAnswer(t *testing.T) {
	sys, link := newTemplateRefSystem(t)
	page := sys.FrontURL() + "/page/synth?page=0"
	fabricGet(t, page, "")            // SETs
	fabricGet(t, page, "")            // GETs: plan kept, hint recorded
	_, want := fabricGet(t, page, "") // by reference
	if counter(sys, "dpc.template_refs") != 1 || link.lastOffer() == "" {
		t.Fatalf("warm-up: refs=%d last offer %q, want the third visit answered by reference",
			counter(sys, "dpc.template_refs"), link.lastOffer())
	}

	entered, release := link.arm()
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(page)
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got <- string(body)
	}()
	<-entered
	if link.lastOffer() == "" {
		t.Fatal("the parked request carries no offer")
	}
	sys.Hub.BroadcastFlush("plan")
	if st := sys.Proxy.Plans().Stats(); st.Resident != 0 {
		t.Fatalf("plan tier holds %d plans after the flush", st.Resident)
	}
	close(release)
	if body := <-got; body != want {
		t.Fatalf("page assembled across the flush:\n%q\nwant\n%q", body, want)
	}
	if refs, errs := counter(sys, "dpc.template_refs"), counter(sys, "dpc.errors"); refs != 2 || errs != 0 {
		t.Fatalf("refs=%d errors=%d, want the parked request answered by reference", refs, errs)
	}

	// The hint is still there; the plan it names is not.
	if _, body := fabricGet(t, page, ""); body != want || link.lastOffer() != "" {
		t.Fatalf("first request after the flush: offer %q, page equal: %v; want no offer and the same page", link.lastOffer(), body == want)
	}
	if _, body := fabricGet(t, page, ""); body != want || link.lastOffer() == "" || counter(sys, "dpc.template_refs") != 3 {
		t.Fatalf("second request after the flush: offer %q refs=%d, page equal: %v; want a reference again",
			link.lastOffer(), counter(sys, "dpc.template_refs"), body == want)
	}
}

// A write to a tagged fragment makes the next template carry a SET, which
// is never a reference; the GET-only template after it names a new
// generation, which the proxy has not seen; only then do references resume.
// A write to an untagged fragment invalidates the page's shell, whose SET
// the next template carries, with the same effect. Every page along the way
// is fresh.
func TestTemplateRefAfterFragmentWrite(t *testing.T) {
	sys, link := newTemplateRefSystem(t)
	page := sys.FrontURL() + "/page/synth?page=0"
	visit := func(what, marker string, wantOffer bool, wantRefs int64) {
		t.Helper()
		_, body := fabricGet(t, page, "")
		if !strings.Contains(body, marker) {
			t.Fatalf("%s: page lacks %q", what, marker)
		}
		if offered := link.lastOffer() != ""; offered != wantOffer || counter(sys, "dpc.template_refs") != wantRefs {
			t.Fatalf("%s: offered=%v refs=%d, want offered=%v refs=%d", what, offered, counter(sys, "dpc.template_refs"), wantOffer, wantRefs)
		}
	}
	visit("cold", "<!--frag 0 v1-->", false, 0)
	visit("GET-only template, first sight", "<!--frag 0 v1-->", false, 0)
	visit("same template again", "<!--frag 0 v1-->", true, 1)

	site.TouchFragment(sys.Repo, 0, "2") // tagged
	visit("after the write: a SET", "<!--frag 0 v2-->", true, 1)
	visit("new generation's GET, first sight", "<!--frag 0 v2-->", true, 1)
	visit("new generation's GET again", "<!--frag 0 v2-->", true, 2)

	// Page 3's four fragments (12 to 15) are all untagged: its template is
	// the page's shell and one literal, GET-only from the second request.
	page = sys.FrontURL() + "/page/synth?page=3"
	visit("untagged page: the shell's SET", "<!--frag 12 v1-->", false, 2)
	visit("untagged page: the shell's GET, first sight", "<!--frag 12 v1-->", false, 2)
	visit("untagged page again", "<!--frag 12 v1-->", true, 3)
	site.TouchFragment(sys.Repo, 12, "7")
	visit("after an untagged write: the shell's SET", "<!--frag 12 v7-->", true, 3)
	visit("the shell's new generation, first sight", "<!--frag 12 v7-->", true, 3)
	visit("the new template again", "<!--frag 12 v7-->", true, 4)

	if errs, stale := counter(sys, "dpc.errors"), counter(sys, "dpc.stale_fallbacks"); errs != 0 || stale != 0 {
		t.Fatalf("errors=%d stale fallbacks=%d", errs, stale)
	}
	if offers, refs := counter(sys, "dpc.template_offers"), counter(sys, "dpc.template_refs"); offers != 8 || refs != 4 {
		t.Fatalf("offers=%d refs=%d, want 8 and 4: four offers declined", offers, refs)
	}
	if got := counter(sys, "origin.template_refs"); got != 4 {
		t.Fatalf("origin.template_refs = %d, want 4", got)
	}
}

// userGet fetches url as user and returns the body.
func userGet(t *testing.T, url, user string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-User", user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s as %s: status %d, %v", url, user, resp.StatusCode, err)
	}
	return string(b)
}

// Identified visitors share a page's template. After a tagged write the
// first of them pays for the SET and for the new generation's template in
// full; the next, another user who has never seen that template, is offered
// the page's new plan and answered by reference.
func TestTemplateRefAfterFragmentWriteAcrossUsers(t *testing.T) {
	sys, link := newTemplateRefSystem(t)
	page := sys.FrontURL() + "/page/synth?page=0"
	visit := func(what, user, marker string, wantOffer bool, wantRefs int64) {
		t.Helper()
		if body := userGet(t, page, user); !strings.Contains(body, marker) {
			t.Fatalf("%s: page lacks %q", what, marker)
		}
		if offered := link.lastOffer() != ""; offered != wantOffer || counter(sys, "dpc.template_refs") != wantRefs {
			t.Fatalf("%s: offered=%v refs=%d, want offered=%v refs=%d", what, offered, counter(sys, "dpc.template_refs"), wantOffer, wantRefs)
		}
	}
	visit("A, cold", "alice", "<!--frag 0 v1-->", false, 0)
	visit("A, GET-only template, first sight", "alice", "<!--frag 0 v1-->", false, 0)
	visit("B, first visit: the page's plan", "bob", "<!--frag 0 v1-->", true, 1)

	site.TouchFragment(sys.Repo, 0, "2") // tagged
	visit("A after the write: a SET", "alice", "<!--frag 0 v2-->", true, 1)
	visit("A, new generation's GET, first sight", "alice", "<!--frag 0 v2-->", true, 1)
	visit("B, new generation: the page's new plan", "bob", "<!--frag 0 v2-->", true, 2)
	visit("A again", "alice", "<!--frag 0 v2-->", true, 3)

	if errs, stale := counter(sys, "dpc.errors"), counter(sys, "dpc.stale_fallbacks"); errs != 0 || stale != 0 {
		t.Fatalf("errors=%d stale fallbacks=%d", errs, stale)
	}
	if offers, refs := counter(sys, "dpc.template_offers"), counter(sys, "dpc.template_refs"); offers != 5 || refs != 3 {
		t.Fatalf("offers=%d refs=%d, want 5 and 3: A's two after the write declined", offers, refs)
	}
}
