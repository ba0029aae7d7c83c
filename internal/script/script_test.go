package script

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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
					func(c *Context) string { return c.User() },
					func(c *Context, w io.Writer) error {
						name := c.Field("users", c.User(), "name", c.User())
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

// recordingSink captures the fragment/literal sequence a run produces, and
// the rows each fragment's render reads.
type recordingSink struct {
	events []string
	deps   map[string][]repository.Key
}

func (r *recordingSink) Literal(p []byte) error {
	r.events = append(r.events, "lit:"+string(p))
	return nil
}

func (r *recordingSink) Fragment(id string, _ time.Duration, rd *Renderer) error {
	if r.deps == nil {
		r.deps = map[string][]repository.Key{}
	}
	body, err := rd.Render(func(k repository.Key) { r.deps[id] = append(r.deps[id], k) })
	if err != nil {
		return err
	}
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

// The page's read set, the rows WatchReads hears of, is what the layout, the
// KeyParams and the untagged blocks read; a tagged block's render reads go
// to its fragment alone.
func TestRunReadSet(t *testing.T) {
	repo := newRepo()
	layoutRow := repository.Key{Table: "layout", Row: "main"}
	repo.Put(layoutRow, map[string]string{"rail": "left"})
	repo.Put(repository.Key{Table: "nav", Row: "top"}, map[string]string{"html": "<nav>"})
	s := &Script{
		Name: "page",
		Layout: func(c *Context) []Block {
			c.Field("layout", "main", "rail", "")
			return []Block{
				Untagged("nav", func(c *Context, w io.Writer) error {
					_, err := io.WriteString(w, c.Field("nav", "top", "html", ""))
					return err
				}),
				Tagged("greet", 0,
					func(c *Context) string { return c.Field("users", c.User(), "name", "") },
					func(c *Context, w io.Writer) error {
						_, err := io.WriteString(w, c.Field("cat", "fiction", "title", ""))
						return err
					}),
			}
		},
	}
	ctx := NewContext(repo, "bob", nil)
	var got []repository.Key
	ctx.WatchReads(func(k repository.Key) { got = append(got, k) })
	sink := &recordingSink{}
	for run := 0; run < 2; run++ {
		got = got[:0]
		if err := Run(s, ctx, sink); err != nil {
			t.Fatal(err)
		}
		want := []repository.Key{
			layoutRow,
			{Table: "nav", Row: "top"},
			{Table: "users", Row: "bob"}, // KeyParams: names the fragment
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: page reads %v, want %v", run, got, want)
		}
	}
	cat := sink.deps["greet+Bob"]
	if want := (repository.Key{Table: "cat", Row: "fiction"}); len(cat) != 2 || cat[0] != want || cat[1] != want {
		t.Fatalf("fragment reads %v over two runs, want cat/fiction in each", cat)
	}
}

// watchingSink renders every fragment with a watch that writes the row it
// is told of, as a write racing the render would.
type watchingSink struct {
	PlainSink
	repo    *repository.Repo
	watched []repository.Key
}

func (w *watchingSink) Fragment(_ string, _ time.Duration, r *Renderer) error {
	body, err := r.Render(func(k repository.Key) {
		w.watched = append(w.watched, k)
		w.repo.Put(k, map[string]string{"title": "Watched", "name": "Watched"})
	})
	if err != nil {
		return err
	}
	return w.Literal(body)
}

// A watch hears of each row a tagged block reads before the read, and of no
// other: the write it makes is what the read returns, and the untagged
// blocks and the layout read unwatched.
func TestRenderWatchHearsRowsBeforeTheirReads(t *testing.T) {
	repo := newRepo()
	var page bytes.Buffer
	sink := &watchingSink{PlainSink: PlainSink{W: &page}, repo: repo}
	if err := Run(greetingScript(), NewContext(repo, "bob", map[string]string{"categoryID": "fiction"}), sink); err != nil {
		t.Fatal(err)
	}
	want := []repository.Key{{Table: "users", Row: "bob"}, {Table: "cat", Row: "fiction"}}
	if !slices.Equal(sink.watched, want) {
		t.Fatalf("watched %v, want %v", sink.watched, want)
	}
	if page.String() != "<html>Hello, Watched[Watched]</html>" {
		t.Fatalf("page %q: a read ran before its watch", page.String())
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
	var deps []repository.Key
	ctx.WatchReads(func(k repository.Key) { deps = append(deps, k) })
	_, err := ctx.Query("t", "missing")
	if err == nil {
		t.Fatal("expected not-found error")
	}
	if len(deps) != 1 || deps[0] != (repository.Key{Table: "t", Row: "missing"}) {
		t.Fatalf("watched %v; a miss must still record the dependency", deps)
	}
}

// ReadIdentity reports whether the run asked for the user in page context —
// the layout, a KeyParams or an untagged block — and not when only a tagged
// block's render did: that read is its fragment's. Each Run starts afresh.
func TestReadIdentity(t *testing.T) {
	repo := newRepo()
	user := func(c *Context, w io.Writer) error {
		_, err := io.WriteString(w, c.User())
		return err
	}
	for _, tc := range []struct {
		name   string
		blocks func(*Context) []Block
		want   bool
	}{
		{"none", func(*Context) []Block { return []Block{Static("s", "x")} }, false},
		{"layout", func(c *Context) []Block { c.Anonymous(); return nil }, true},
		{"key params", func(*Context) []Block {
			return []Block{Tagged("t", 0, func(c *Context) string { return c.User() }, user)}
		}, true},
		{"untagged block", func(*Context) []Block { return []Block{Untagged("u", user)} }, true},
		{"tagged render", func(*Context) []Block { return []Block{Tagged("t", 0, nil, user)} }, false},
	} {
		ctx := NewContext(repo, "bob", nil)
		ctx.User() // before the run: Run starts afresh
		if _, err := RenderPage(&Script{Name: "p", Layout: tc.blocks}, ctx); err != nil {
			t.Fatal(err)
		}
		if ctx.ReadIdentity() != tc.want {
			t.Errorf("%s: ReadIdentity() = %v, want %v", tc.name, ctx.ReadIdentity(), tc.want)
		}
	}
}
