package core

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dpcache/internal/dpc"
	"dpcache/internal/firewall"
	"dpcache/internal/site"
)

// startSynthetic builds and starts a system running the synthetic site.
func startSynthetic(t *testing.T, mode Mode, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := site.BuildSynthetic(site.DefaultSynthetic(), sys.Repo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register(sc); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func fetch(t *testing.T, url, user string) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return string(b)
}

func TestModeString(t *testing.T) {
	if ModeNoCache.String() != "no-cache" || ModeCached.String() != "cached" {
		t.Fatal("mode names changed")
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Config{}, ModeCached)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Monitor == nil {
		t.Fatal("cached mode lacks monitor")
	}
	sysNC, err := NewSystem(Config{}, ModeNoCache)
	if err != nil {
		t.Fatal(err)
	}
	if sysNC.Monitor != nil {
		t.Fatal("no-cache mode has monitor")
	}
}

func TestNewSystemRejectsNegativeCapacity(t *testing.T) {
	if _, err := NewSystem(Config{Capacity: -1}, ModeCached); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestRegisterAfterStartFails(t *testing.T) {
	sys := startSynthetic(t, ModeNoCache, Config{})
	if err := sys.Register(nil); err == nil {
		t.Fatal("register after start accepted")
	}
}

func TestPagesIdenticalAcrossModes(t *testing.T) {
	nc := startSynthetic(t, ModeNoCache, Config{Seed: 1})
	ch := startSynthetic(t, ModeCached, Config{Seed: 1, Proxy: dpc.Config{Strict: true}})
	for _, q := range []string{"0", "3", "9"} {
		url := "/page/synth?page=" + q
		a := fetch(t, nc.FrontURL()+url, "")
		b := fetch(t, ch.FrontURL()+url, "") // cold
		c := fetch(t, ch.FrontURL()+url, "") // warm
		if a != b || a != c {
			t.Fatalf("page %s differs across modes (lens %d/%d/%d)", q, len(a), len(b), len(c))
		}
	}
}

func TestCachedModeSavesOriginBandwidth(t *testing.T) {
	nc := startSynthetic(t, ModeNoCache, Config{Seed: 1})
	ch := startSynthetic(t, ModeCached, Config{Seed: 1})

	const reqs = 30
	for i := 0; i < reqs; i++ {
		fetch(t, nc.FrontURL()+"/page/synth?page=0", "")
		fetch(t, ch.FrontURL()+"/page/synth?page=0", "")
	}
	ncBytes := nc.Meter.BytesOut()
	chBytes := ch.Meter.BytesOut()
	if chBytes >= ncBytes {
		t.Fatalf("cached origin bytes %d not below no-cache %d", chBytes, ncBytes)
	}
	// With a hot cache, 60% cacheable fragments and 30 identical
	// requests, the ratio should sit well under 0.7.
	ratio := float64(chBytes) / float64(ncBytes)
	if ratio > 0.7 {
		t.Fatalf("B_C/B_NC = %.3f, want < 0.7", ratio)
	}
}

func TestMeterSeesTraffic(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{})
	fetch(t, sys.FrontURL()+"/page/synth?page=0", "")
	if sys.Meter.Bytes() == 0 || sys.Meter.Conns() == 0 {
		t.Fatal("origin link not metered")
	}
}

func TestForcedMissDrivesHitRatio(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{ForcedMissProb: 1.0, Seed: 3})
	for i := 0; i < 10; i++ {
		fetch(t, sys.FrontURL()+"/page/synth?page=0", "")
	}
	st := sys.Monitor.Stats()
	if st.Hits != 0 {
		t.Fatalf("forced-miss 1.0 still produced %d hits", st.Hits)
	}
}

func TestFirewallScansOriginLink(t *testing.T) {
	fw := firewall.New(nil)
	sys := startSynthetic(t, ModeCached, Config{Firewall: fw})
	fetch(t, sys.FrontURL()+"/page/synth?page=0", "")
	if fw.ScannedBytes() == 0 {
		t.Fatal("firewall saw no traffic")
	}
	if fw.ScannedBytes() < sys.Meter.Bytes() {
		t.Fatalf("firewall scanned %d < metered %d", fw.ScannedBytes(), sys.Meter.Bytes())
	}
}

func TestExtraHeaderBytesInflateResponses(t *testing.T) {
	small := startSynthetic(t, ModeNoCache, Config{})
	big := startSynthetic(t, ModeNoCache, Config{ExtraHeaderBytes: 300})
	fetch(t, small.FrontURL()+"/page/synth?page=0", "")
	fetch(t, big.FrontURL()+"/page/synth?page=0", "")
	if plain, padded := small.Meter.BytesOut(), big.Meter.BytesOut(); padded <= plain+250 {
		t.Fatalf("header padding missing: %d vs %d", padded, plain)
	}
}

func TestOriginURLDirectAccessServesPlainPage(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{})
	body := fetch(t, sys.OriginURL()+"/page/synth?page=0", "")
	if !strings.Contains(body, "<!--frag 0") {
		t.Fatalf("direct origin page = %q…", body[:40])
	}
}

func TestDoubleStartFails(t *testing.T) {
	sys := startSynthetic(t, ModeNoCache, Config{})
	if err := sys.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestInvalidationFlowsThroughSystem(t *testing.T) {
	sys := startSynthetic(t, ModeCached, Config{Proxy: dpc.Config{Strict: true}})
	url := sys.FrontURL() + "/page/synth?page=0"
	before := fetch(t, url, "")
	fetch(t, url, "") // warm
	site.TouchFragment(sys.Repo, 0, "42")
	after := fetch(t, url, "")
	if before == after {
		t.Fatal("update did not reach served pages")
	}
	if !strings.Contains(after, "v42") {
		t.Fatalf("fresh content missing: %q…", after[:60])
	}
}
