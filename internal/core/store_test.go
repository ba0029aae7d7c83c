package core

import (
	"strings"
	"testing"

	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
)

// TestStoreBackendSelection runs the full cached pipeline (origin → BEM →
// DPC) against every selectable store backend and checks that assembled
// pages are identical across them: the backend is an implementation
// detail of the fragment memory, never of the content.
func TestStoreBackendSelection(t *testing.T) {
	configs := map[string]Config{
		"slot-default": {Capacity: 256, Seed: 1, Proxy: dpc.Config{Strict: true}},
		"slot":         {Capacity: 256, Seed: 1, Proxy: dpc.Config{Strict: true}, Store: fragstore.Config{Backend: fragstore.BackendSlot}},
		"sharded":      {Capacity: 256, Seed: 1, Proxy: dpc.Config{Strict: true}, Store: fragstore.Config{Backend: fragstore.BackendSharded, Shards: 8}},
		"sharded-lru": {
			Capacity: 256,
			Seed:     1,
			Proxy:    dpc.Config{Strict: true},
			Store:    fragstore.Config{Backend: fragstore.BackendSharded, ByteBudget: 1 << 20, Eviction: "lru"},
		},
		"sharded-gdsf": {
			Capacity: 256,
			Seed:     1,
			Proxy:    dpc.Config{Strict: true},
			Store:    fragstore.Config{Backend: fragstore.BackendSharded, ByteBudget: 1 << 20, Eviction: "gdsf"},
		},
	}
	var reference string
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			sys := startSynthetic(t, ModeCached, cfg)
			// Twice: first fills the store via SETs, second assembles
			// from resident fragments.
			fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1")
			page := fetch(t, sys.FrontURL()+"/page/synth?page=0", "u1")
			if reference == "" {
				reference = page
			} else if page != reference {
				t.Fatalf("backend %s assembled a different page", name)
			}
			st := sys.Proxy.Store().Stats()
			if st.Resident == 0 || st.Sets == 0 {
				t.Fatalf("store never populated: %+v", st)
			}
		})
	}
}

// TestStoreBackendSelectionRejectsBadConfig ensures misconfiguration
// fails at NewSystem, not at Start.
func TestStoreBackendSelectionRejectsBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{Store: fragstore.Config{Backend: "bogus"}}, ModeCached); err == nil {
		t.Fatal("unknown store backend accepted")
	}
	if _, err := NewSystem(Config{
		Store: fragstore.Config{Backend: fragstore.BackendSharded, ByteBudget: 1024},
	}, ModeCached); err == nil {
		t.Fatal("byte budget without eviction policy accepted")
	}
	_, err := NewSystem(Config{
		Store: fragstore.Config{Backend: fragstore.BackendSharded, Eviction: "fifo"},
	}, ModeCached)
	if err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Fatalf("unknown eviction policy error = %v", err)
	}
	// What the system fills per proxy is refused, not silently replaced.
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Proxy: dpc.Config{OriginURL: "http://elsewhere"}}, "Proxy.OriginURL"},
		{Config{Proxy: dpc.Config{Capacity: 64}}, "Proxy.OriginURL"},
		{Config{Store: fragstore.Config{Backend: fragstore.BackendTiered, DiskPath: "/tmp/x.heap"}}, "Store.DiskPath"},
		{Config{Store: fragstore.Config{Capacity: 64}}, "Store.Capacity"},
	} {
		if _, err := NewSystem(tc.cfg, ModeCached); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error = %v, want one naming %s", tc.cfg, err, tc.want)
		}
	}
	// A heap-file directory without the backend that uses it selects nothing.
	if _, err := NewSystem(Config{DiskDir: t.TempDir()}, ModeCached); err == nil {
		t.Fatal("DiskDir accepted with the slot backend")
	}
}

// TestEdgeProxiesGetDistinctStores guards the per-proxy store invariant:
// edges must not share fragment memory with the reverse proxy (coherency
// relies on invalidating each edge independently).
func TestEdgeProxiesGetDistinctStores(t *testing.T) {
	sys := startSynthetic(t, ModeCached,
		Config{Capacity: 64, Proxy: dpc.Config{Strict: true}, Store: fragstore.Config{Backend: fragstore.BackendSharded}})
	edge, err := sys.StartEdge("edge-1")
	if err != nil {
		t.Fatal(err)
	}
	if edge.Proxy.Store() == sys.Proxy.Store() {
		t.Fatal("edge shares the reverse proxy's store")
	}
	_ = sys.Proxy.Store().Set(1, 1, []byte("main-only"))
	if _, ok := edge.Proxy.Store().Get(1, 1, false); ok {
		t.Fatal("edge store sees main proxy's fragments")
	}
}
