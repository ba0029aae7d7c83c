package script

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"dpcache/internal/repository"
)

func newRepo() *repository.Repo {
	r := repository.New(repository.LatencyModel{})
	r.Put(repository.Key{Table: "cat", Row: "fiction"}, map[string]string{"title": "Fiction"})
	r.Put(repository.Key{Table: "users", Row: "bob"}, map[string]string{"name": "Bob"})
	return r
}

func greetingScript() *Script {
	return &Script{
		Name: "page",
		Layout: func(ctx *Context) []Block {
			blocks := []Block{Static("head", "<html>")}
			if !ctx.Anonymous() {
				blocks = append(blocks, Tagged("greet", 0,
					func(c *Context) string { return c.UserID },
					func(c *Context, w io.Writer) error {
						name := c.Field("users", c.UserID, "name", c.UserID)
						_, err := fmt.Fprintf(w, "Hello, %s", name)
						return err
					}))
			}
			blocks = append(blocks,
				Tagged("cat", time.Minute,
					func(c *Context) string { return c.Param("categoryID", "none") },
					func(c *Context, w io.Writer) error {
						title := c.Field("cat", c.Param("categoryID", "none"), "title", "?")
						_, err := fmt.Fprintf(w, "[%s]", title)
						return err
					}),
				Static("tail", "</html>"))
			return blocks
		},
	}
}

func TestRenderPagePlain(t *testing.T) {
	repo := newRepo()
	s := greetingScript()
	page, err := RenderPage(s, NewContext(repo, "bob", map[string]string{"categoryID": "fiction"}))
	if err != nil {
		t.Fatal(err)
	}
	want := "<html>Hello, Bob[Fiction]</html>"
	if string(page) != want {
		t.Fatalf("page = %q, want %q", page, want)
	}
}

// The same URL must yield different layouts for different users — the
// dynamic-layout property of Section 2.1 (Bob vs Alice).
func TestDynamicLayoutPerUser(t *testing.T) {
	repo := newRepo()
	s := greetingScript()
	params := map[string]string{"categoryID": "fiction"}
	bob, err := RenderPage(s, NewContext(repo, "bob", params))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := RenderPage(s, NewContext(repo, "", params)) // anonymous
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(alice), "Hello") {
		t.Fatalf("anonymous user got a greeting: %q", alice)
	}
	if !strings.Contains(string(bob), "Hello, Bob") {
		t.Fatalf("registered user missing greeting: %q", bob)
	}
}

func TestFragmentIDIncludesParams(t *testing.T) {
	b := Tagged("cat", 0, func(c *Context) string { return c.Param("categoryID", "x") }, nil)
	ctx := NewContext(nil, "", map[string]string{"categoryID": "fiction"})
	if got := b.FragmentID(ctx); got != "cat+fiction" {
		t.Fatalf("FragmentID = %q", got)
	}
	plain := Tagged("nav", 0, nil, nil)
	if got := plain.FragmentID(ctx); got != "nav" {
		t.Fatalf("FragmentID without params = %q", got)
	}
}

// recordingSink captures the fragment/literal sequence a run produces.
type recordingSink struct {
	events []string
	deps   map[string][]repository.Key
}

func (r *recordingSink) Literal(p []byte) error {
	r.events = append(r.events, "lit:"+string(p))
	return nil
}

func (r *recordingSink) Fragment(id string, _ time.Duration, rd *Renderer) error {
	body, deps, err := rd.Render()
	if err != nil {
		return err
	}
	if r.deps == nil {
		r.deps = map[string][]repository.Key{}
	}
	r.deps[id] = append([]repository.Key(nil), deps...) // the run reuses both
	r.events = append(r.events, "frag:"+id+":"+string(body))
	return nil
}

func TestRunRoutesBlocksToSink(t *testing.T) {
	repo := newRepo()
	s := greetingScript()
	sink := &recordingSink{}
	ctx := NewContext(repo, "bob", map[string]string{"categoryID": "fiction"})
	if err := Run(s, ctx, sink); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lit:<html>",
		"frag:greet+bob:Hello, Bob",
		"frag:cat+fiction:[Fiction]",
		"lit:</html>",
	}
	if len(sink.events) != len(want) {
		t.Fatalf("events = %v", sink.events)
	}
	for i := range want {
		if sink.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, sink.events[i], want[i])
		}
	}
}

// Dependencies recorded inside a fragment render must be scoped to that
// fragment only — the interdependent-fragments problem of Section 3.2.2 is
// solved by tracking actual reads per block.
func TestDependencyScopingPerFragment(t *testing.T) {
	repo := newRepo()
	s := greetingScript()
	sink := &recordingSink{}
	ctx := NewContext(repo, "bob", map[string]string{"categoryID": "fiction"})
	if err := Run(s, ctx, sink); err != nil {
		t.Fatal(err)
	}
	greetDeps := sink.deps["greet+bob"]
	if len(greetDeps) != 1 || greetDeps[0] != (repository.Key{Table: "users", Row: "bob"}) {
		t.Fatalf("greet deps = %v", greetDeps)
	}
	catDeps := sink.deps["cat+fiction"]
	if len(catDeps) != 1 || catDeps[0] != (repository.Key{Table: "cat", Row: "fiction"}) {
		t.Fatalf("cat deps = %v", catDeps)
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	s := &Script{
		Name: "bad",
		Layout: func(*Context) []Block {
			return []Block{Untagged("x", func(*Context, io.Writer) error { return boom })}
		},
	}
	err := Run(s, NewContext(nil, "", nil), &PlainSink{W: io.Discard})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestTaggedBlockErrorPropagates(t *testing.T) {
	boom := errors.New("frag boom")
	s := &Script{
		Name: "bad",
		Layout: func(*Context) []Block {
			return []Block{Tagged("f", 0, nil, func(*Context, io.Writer) error { return boom })}
		},
	}
	err := Run(s, NewContext(nil, "", nil), &PlainSink{W: io.Discard})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestNilLayoutErrors(t *testing.T) {
	if err := Run(&Script{Name: "empty"}, NewContext(nil, "", nil), &PlainSink{W: io.Discard}); err == nil {
		t.Fatal("nil layout accepted")
	}
}

func TestPlainSinkCountsBytes(t *testing.T) {
	repo := newRepo()
	var buf bytes.Buffer
	sink := &PlainSink{W: &buf}
	ctx := NewContext(repo, "", map[string]string{"categoryID": "fiction"})
	if err := Run(greetingScript(), ctx, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != int64(buf.Len()) {
		t.Fatalf("Bytes = %d, buffer = %d", sink.Bytes, buf.Len())
	}
}

func TestContextParamDefault(t *testing.T) {
	ctx := NewContext(nil, "", nil)
	if ctx.Param("missing", "d") != "d" {
		t.Fatal("default not returned")
	}
}

func TestContextQueryRecordsDepEvenOnMiss(t *testing.T) {
	repo := repository.New(repository.LatencyModel{})
	ctx := NewContext(repo, "", nil)
	_, err := ctx.Query("t", "missing")
	if err == nil {
		t.Fatal("expected not-found error")
	}
	deps := ctx.deps
	if len(deps) != 1 {
		t.Fatalf("deps = %v; a miss must still record the dependency", deps)
	}
}
