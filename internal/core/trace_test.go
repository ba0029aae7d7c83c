package core

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dpcache/internal/dpc"
	"dpcache/internal/site"
	"dpcache/internal/trace"
)

// TestSystemSharedTracer asserts the cluster-level tracing contract: the
// front proxy and every edge share one tracer, so a client-supplied
// X-DPC-Trace id is adopted at whichever node it hits and both nodes'
// traces land in the one ring System.Tracer serves.
func TestSystemSharedTracer(t *testing.T) {
	sys, err := NewSystem(Config{
		Capacity: 256,
		Seed:     11,
		Proxy:    dpc.Config{Strict: true, Trace: true, TraceSampleEvery: 1, TraceSlow: -1},
	}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer == nil {
		t.Fatal("Config.Trace set but System.Tracer is nil")
	}
	portal, err := site.BuildPortal(site.PortalConfig{Users: 2, Modules: 4, ModulesPerPage: 2, ModuleBytes: 128}, sys.Repo)
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
	edge, err := sys.StartEdge("east")
	if err != nil {
		t.Fatal(err)
	}

	get := func(base, id string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, base+"/page/portal", nil)
		req.Header.Set("X-User", "u0")
		if id != "" {
			req.Header.Set(trace.Header, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d from %s", resp.StatusCode, base)
		}
		return resp
	}

	// An upstream-stamped id hits the front proxy; a fresh request hits
	// the edge. Both must be sampled (SampleEvery=1) into the same ring.
	const remoteID = "00000000deadbeef"
	front := get(sys.FrontURL(), remoteID)
	if got := front.Header.Get(trace.ResponseHeader); got != remoteID {
		t.Fatalf("front %s = %q, want adopted id %q", trace.ResponseHeader, got, remoteID)
	}
	edgeResp := get(edge.URL, "")
	edgeID := edgeResp.Header.Get(trace.ResponseHeader)
	if edgeID == "" || edgeID == remoteID {
		t.Fatalf("edge %s = %q, want a fresh id", trace.ResponseHeader, edgeID)
	}

	found := map[string]trace.TraceJSON{}
	for _, tr := range sys.Tracer.Traces(0) {
		found[tr.ID] = tr
	}
	remote, ok := found[remoteID]
	if !ok {
		t.Fatalf("front trace %s missing from shared ring (have %d traces)", remoteID, len(found))
	}
	if !remote.Remote {
		t.Error("adopted trace not marked remote")
	}
	edgeTr, ok := found[edgeID]
	if !ok {
		t.Fatalf("edge trace %s missing from shared ring", edgeID)
	}
	if edgeTr.Remote {
		t.Error("edge-originated trace wrongly marked remote")
	}
	if !strings.HasPrefix(edgeTr.Root.Name, "GET ") {
		t.Errorf("root span name %q, want GET ...", edgeTr.Root.Name)
	}

	// Shared counters: both samples aggregate on the one registry.
	if n := sys.Registry.Snapshot()["dpc.trace.sampled"]; n < 2 {
		t.Errorf("dpc.trace.sampled = %d, want >= 2", n)
	}
}

// TestSystemTraceDisabledByDefault keeps tracing strictly opt-in at the
// system layer.
func TestSystemTraceDisabledByDefault(t *testing.T) {
	sys, err := NewSystem(Config{Capacity: 8}, ModeNoCache)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Tracer != nil {
		t.Fatal("tracer created without Config.Trace")
	}
}
