package origin

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/clock"
	"dpcache/internal/repository"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
)

// leaseServer serves the given scripts over a BEM on a fake clock.
func leaseServer(t *testing.T, capacity int, build func(repo *repository.Repo) []*script.Script) (*Server, *bem.Monitor, *repository.Repo, *clock.Fake) {
	t.Helper()
	repo := repository.New(repository.LatencyModel{})
	clk := clock.NewFake(time.Date(2002, 6, 4, 9, 30, 0, 0, time.UTC))
	mon, err := bem.New(bem.Config{Capacity: capacity, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	mon.BindRepo(repo)
	srv, err := New(Config{Repo: repo, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range build(repo) {
		if err := srv.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	return srv, mon, repo, clk
}

// leaseFetch makes one capable request, asking for a lease or not.
func leaseFetch(t *testing.T, srv *Server, url, user string, ask bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(HeaderCapable, "1")
	if user != "" {
		req.Header.Set(HeaderUser, user)
	}
	if ask {
		req.Header.Set(HeaderLease, "1")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s as %q: status %d: %s", url, user, rec.Code, rec.Body)
	}
	return rec
}

// instructions decodes a binary template.
func instructions(t *testing.T, template []byte) []tmpl.Instruction {
	t.Helper()
	ins, err := tmpl.DecodeAll(tmpl.Binary{}, bytes.NewReader(template))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func synthOnly(cfg site.SyntheticConfig) func(repo *repository.Repo) []*script.Script {
	return func(repo *repository.Repo) []*script.Script {
		sc, _, err := site.BuildSynthetic(cfg, repo)
		if err != nil {
			panic(err)
		}
		return []*script.Script{sc}
	}
}

// Every template opens with its page's shell — a SET with an empty body when
// the shell's entry is new, a GET of it after — whether or not the request
// asks for a lease: the ask changes no byte of it.
func TestLeaseTemplateOpensWithShell(t *testing.T) {
	srv, mon, _, _ := leaseServer(t, 64, synthOnly(site.DefaultSynthetic()))
	const url = "/page/synth?page=0"
	first := instructions(t, leaseFetch(t, srv, url, "", false).Body.Bytes())
	if len(first) == 0 || first[0].Op != tmpl.OpSet || len(first[0].Data) != 0 {
		t.Fatalf("first template opens with %+v, want a SET with no body", first[0])
	}
	plain := leaseFetch(t, srv, url, "", false).Body.Bytes() // GET-only
	asked := leaseFetch(t, srv, url, "u1", true).Body.Bytes()
	ins := instructions(t, asked)
	if ins[0].Op != tmpl.OpGet || ins[0].Key != first[0].Key || ins[0].Gen != first[0].Gen {
		t.Fatalf("asked template opens with %+v, want a GET of the shell %d:%d", ins[0], first[0].Key, first[0].Gen)
	}
	if !bytes.Equal(asked, plain) {
		t.Fatal("the asked template differs from the one a request that does not ask gets")
	}
	var shells int
	for _, f := range mon.TopFragments(0) {
		if strings.HasPrefix(f.FragmentID, shellMark) {
			shells++
		}
	}
	if shells != 1 {
		t.Fatalf("%d shell entries for one page and query, visited by two identities", shells)
	}
}

// A GET-only template answering a request that asked carries the grant: the
// first and a repeat alike name the time left until the earliest TTL expiry
// among the template's entries, or none, and end in ";page" when the run
// never read the user — on the synthetic site, not on the portal, whose
// layout asks who the visitor is. A request that did not ask is never
// granted one, and the ask does not change the answer: a request of either
// kind is sent the template the other is.
func TestLeaseGrant(t *testing.T) {
	synth := func(ttl time.Duration) func(repo *repository.Repo) []*script.Script {
		cfg := site.DefaultSynthetic()
		cfg.TTL = ttl
		return synthOnly(cfg)
	}
	for _, tc := range []struct {
		name  string
		build func(repo *repository.Repo) []*script.Script
		url   string
		want  string // the grant after the clock moved 300 ms
	}{
		{"no TTL", synth(0), "/page/synth?page=0", "none;page"},
		{"2 s TTL", synth(2 * time.Second), "/page/synth?page=0", "1700;page"},
		{"portal", portalOnly, "/page/portal", "3599700"}, // the modules' hour
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, _, clk := leaseServer(t, 64, tc.build)
			url := tc.url
			leaseFetch(t, srv, url, "u1", true) // shell and fragments SET
			clk.Advance(300 * time.Millisecond)

			first := leaseFetch(t, srv, url, "u1", true)
			repeat := leaseFetch(t, srv, url, "u1", true)
			for what, rec := range map[string]*httptest.ResponseRecorder{"first": first, "repeated": repeat} {
				if rec.Body.String() != first.Body.String() || rec.Header().Get(HeaderLease) != tc.want {
					t.Fatalf("%s answer: %s=%q, want the GET-only template granting %q", what,
						HeaderLease, rec.Header().Get(HeaderLease), tc.want)
				}
			}
			snap := srv.reg.Snapshot()
			wantPage := int64(0)
			if strings.HasSuffix(tc.want, leasePageScope) {
				wantPage = 2
			}
			if snap["origin.leases_granted"] != 2 || snap["origin.leases_granted_page"] != wantPage {
				t.Fatalf("leases_granted=%d leases_granted_page=%d, want 2 and %d", snap["origin.leases_granted"],
					snap["origin.leases_granted_page"], wantPage)
			}

			// Without the ask: the same template, with no grant.
			if rec := leaseFetch(t, srv, url, "u1", false); rec.Body.String() != first.Body.String() || rec.Header().Get(HeaderLease) != "" ||
				srv.reg.Snapshot()["origin.leases_granted"] != 2 {
				t.Fatal("a request that did not ask was sent another template, or was granted a lease")
			}
			leaseFetch(t, srv, url, "u2", false) // u2's own fragments SET, on the portal
			plain := leaseFetch(t, srv, url, "u2", false).Body.String()
			rec := leaseFetch(t, srv, url, "u2", true)
			grant := rec.Header().Get(HeaderLease)
			if rec.Body.String() != plain || grant == "" || strings.HasSuffix(grant, leasePageScope) != strings.HasSuffix(tc.want, leasePageScope) ||
				srv.reg.Snapshot()["origin.leases_granted"] != 3 {
				t.Fatalf("the template a request without the ask got answered one that asked with %s=%q, want it granting one scoped as %q",
					HeaderLease, grant, tc.want)
			}
		})
	}
}

func portalOnly(repo *repository.Repo) []*script.Script {
	sc, err := site.BuildPortal(site.PortalConfig{Users: 4, Modules: 6, ModulesPerPage: 3, ModuleBytes: 64}, repo)
	if err != nil {
		panic(err)
	}
	return []*script.Script{sc}
}

// The shell's dependencies are the union of what every visitor's run read:
// on the portal, whose layout reads the visitor's own profile, a write to
// u0's profile kills the shell u1's lease names too — an over-invalidation,
// never a stale lease — and a later run by u1 does not narrow them to u1's
// reads.
func TestLeaseShellDependsOnEveryVisitorsReads(t *testing.T) {
	srv, mon, repo, _ := leaseServer(t, 256, portalOnly)
	var died []string
	mon.OnInvalidate(func(id string, _, _ uint32, reason bem.InvalidationReason) {
		if strings.HasPrefix(id, shellMark) {
			died = append(died, string(reason))
		}
	})
	shellOf := func(user string) tmpl.Instruction {
		return instructions(t, leaseFetch(t, srv, "/page/portal", user, true).Body.Bytes())[0]
	}
	shellOf("u0")
	shellOf("u1")
	shellOf("u1") // a second run of u1's against the same generation
	s := shellOf("u1")
	if s.Op != tmpl.OpGet {
		t.Fatalf("u1's template opens with %+v, want a GET of the page's shell", s)
	}
	repo.Put(repository.Key{Table: "profiles", Row: "u0"}, map[string]string{"name": "Zero", "modules": "mod1,mod2,mod3"})
	if len(died) != 1 || died[0] != string(bem.ReasonData) {
		t.Fatalf("shell invalidations after a write to u0's profile: %v, want one, by data", died)
	}
	if after := shellOf("u1"); after.Op != tmpl.OpSet || after.Gen <= s.Gen {
		t.Fatalf("u1's next template opens with %+v, want a SET of the shell's new generation", after)
	}
}

// A tagged block cannot name a page's shell: a fragment ID that begins as a
// shell's does fails the page instead of reading or writing the shell.
func TestLeaseShellIDUnforgeable(t *testing.T) {
	srv, mon, _, _ := leaseServer(t, 16, func(*repository.Repo) []*script.Script {
		forged := script.Tagged(shellID("forge", ""), 0, nil, func(_ *script.Context, w io.Writer) error {
			_, err := io.WriteString(w, "forged")
			return err
		})
		return []*script.Script{{Name: "forge", Layout: func(*script.Context) []script.Block { return []script.Block{forged} }}}
	})
	req := httptest.NewRequest(http.MethodGet, "/page/forge", nil)
	req.Header.Set(HeaderCapable, "1")
	req.Header.Set(HeaderLease, "1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("a block named like a shell: status %d, want 500", rec.Code)
	}
	if st := mon.Stats(); st.Lookups != 1 {
		t.Fatalf("%d BEM lookups: the block reached the directory", st.Lookups)
	}
}
