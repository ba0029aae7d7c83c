// Package script is the dynamic-scripting substrate: the stand-in for the
// JSP/ASP page-generation layer of Section 2.
//
// A Script generates one page. Its Layout function runs per request and
// returns the ordered code blocks that make up the page — so both the
// *content* and the *layout* are decided at run time, the property
// (Section 2.1) that defeats URL-keyed proxy caches and ESI-style
// templates, and that the DPC/BEM design exists to support.
//
// Cacheable code blocks are created with Tagged — the initialization-time
// tagging API of Section 4.3.1. A tagged block carries the fragment name,
// a TTL, and a KeyParams function producing the parameter list that
// completes the fragmentID (fragmentID = name "+" parameterList).
//
// Script execution is sink-driven: the same script runs unchanged against
//
//   - a PlainSink (full page bytes — the no-cache baseline server), or
//   - the origin server's BEM sink (template output with GET/SET tags).
//
// That shared code path is what makes the with/without-cache comparisons
// of Section 6 apples-to-apples.
//
// The contract a script keeps: its Layout, every KeyParams and every block
// are functions of the request — the path, the query parameters and the
// user, the user only through User / Anonymous — and of the repository rows
// they read through the Context (Query and Field). Nothing else may change
// what they write: no clock, no random numbers, no state kept between runs,
// no repository read past the Context. The BEM relies on it for tagged
// blocks (a fragment stays valid until a row it read is written or its TTL
// passes), and the origin for the page around them: the rows the layout
// and the untagged blocks read are the dependencies of the page's own BEM
// entry, its shell, which WatchReads registers. A template answered by
// reference without running the script again, or leased to a proxy, stays
// current until a write to one of those rows invalidates the shell. So a
// run that never asked for the user (ReadIdentity) wrote what the same
// request by any other visitor, anonymous included, would have: the origin
// leases such a template to the page, not the visitor.
package script

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"dpcache/internal/repository"
)

// Context carries per-request state through a script run: the request
// parameters, the requesting user (empty for anonymous visitors), and the
// repository handle. It tells a sink of every row before it is read: a
// tagged block's reads are its fragment's data dependencies, which the BEM
// uses for update-driven invalidation, and the rest are the page's
// (WatchReads). It also records whether the page asked who the user is
// (ReadIdentity).
type Context struct {
	// Params are the request's query parameters (e.g. categoryID).
	Params map[string]string
	// Repo is the content repository backing the site.
	Repo *repository.Repo

	// userID identifies a registered user; empty means anonymous. User and
	// Anonymous read it, and mark the run as one that read it.
	userID string
	// readUser reports that the current run read userID outside its tagged
	// blocks' renders.
	readUser bool

	// watch hears of each row before it is read: while a tagged block
	// renders for a sink that asked, the block's own (Renderer.Render), and
	// otherwise pageWatch.
	watch func(repository.Key)
	// pageWatch is what WatchReads set: the watch on the page's own reads.
	pageWatch func(repository.Key)
}

// NewContext returns a request context.
func NewContext(repo *repository.Repo, userID string, params map[string]string) *Context {
	if params == nil {
		params = map[string]string{}
	}
	return &Context{Params: params, userID: userID, Repo: repo}
}

// Param returns a request parameter or def when absent.
func (c *Context) Param(name, def string) string {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// User returns the registered user's ID, empty for an anonymous visitor.
func (c *Context) User() string {
	c.readUser = true
	return c.userID
}

// Anonymous reports whether the request has no registered user.
func (c *Context) Anonymous() bool {
	c.readUser = true
	return c.userID == ""
}

// ReadIdentity reports whether the current run asked for the user — through
// User or Anonymous, in Layout, in a KeyParams or in an untagged block —
// and is left as it is after Run returns, until another Run on the same
// Context starts. What a tagged block's render reads belongs to its
// fragment, whose ID carries the user through KeyParams if the render
// depends on it, so it does not count.
func (c *Context) ReadIdentity() bool { return c.readUser }

// Query reads a repository row, after the watch has heard of it (a missing
// row too).
func (c *Context) Query(table, row string) (repository.Row, error) {
	k := repository.Key{Table: table, Row: row}
	if c.watch != nil {
		c.watch(k)
	}
	return c.Repo.Get(k)
}

// Field reads one column, after the watch has heard of the row; def is
// returned when the row or column is missing.
func (c *Context) Field(table, row, column, def string) string {
	k := repository.Key{Table: table, Row: row}
	if c.watch != nil {
		c.watch(k)
	}
	return c.Repo.Field(k, column, def)
}

// WatchReads has fn hear of each row the page reads — in Layout, in
// KeyParams and in untagged blocks, not in a tagged block's render — before
// it is read, so that a sink can depend on the row from before the read
// (the BEM's Depend on a page's shell): a write that lands while the page
// runs is then either seen by the read or heard by the sink. Set it before
// Run.
func (c *Context) WatchReads(fn func(repository.Key)) { c.watch, c.pageWatch = fn, fn }

// RenderFunc writes a block's output.
type RenderFunc func(ctx *Context, w io.Writer) error

// Block is one code block of a script.
type Block struct {
	// Name identifies the block; for tagged blocks it is the first half
	// of the fragmentID.
	Name string
	// Cacheable marks the block as tagged.
	Cacheable bool
	// TTL bounds fragment freshness; zero means no time-based expiry.
	TTL time.Duration
	// KeyParams returns the parameter list completing the fragmentID.
	// Only consulted for tagged blocks. Nil means no parameters.
	KeyParams func(*Context) string
	// Render produces the block's output.
	Render RenderFunc
}

// FragmentID computes the block's fragment identifier for a request:
// name + parameterList, as in Section 4.3.1.
func (b Block) FragmentID(ctx *Context) string {
	if b.KeyParams == nil {
		return b.Name
	}
	return b.Name + "+" + b.KeyParams(ctx)
}

// Tagged constructs a cacheable code block — the tagging API the paper
// inserts around cacheable regions at initialization time.
func Tagged(name string, ttl time.Duration, keyParams func(*Context) string, render RenderFunc) Block {
	return Block{Name: name, Cacheable: true, TTL: ttl, KeyParams: keyParams, Render: render}
}

// Untagged constructs a non-cacheable code block; its output is always
// generated fresh and shipped as literal bytes.
func Untagged(name string, render RenderFunc) Block {
	return Block{Name: name, Render: render}
}

// Static is a convenience for an untagged block with fixed output.
func Static(name, html string) Block {
	return Untagged(name, func(_ *Context, w io.Writer) error {
		_, err := io.WriteString(w, html)
		return err
	})
}

// Script generates one page.
type Script struct {
	// Name is the script's path component, e.g. "catalog".
	Name string
	// Layout returns, per request, the ordered blocks composing the page.
	Layout func(*Context) []Block
}

// Sink receives script output. Implementations decide what "cacheable"
// means: the plain sink renders everything; the origin's BEM sink turns
// tagged blocks into GET/SET template instructions.
type Sink interface {
	// Literal receives non-cacheable output bytes, valid until it returns.
	Literal(p []byte) error
	// Fragment handles one tagged block. r generates the fragment body on
	// demand; a sink that does not need the body (the BEM's hit) never
	// calls it, and then the block costs nothing.
	Fragment(fragmentID string, ttl time.Duration, r *Renderer) error
}

// Renderer generates the block a run has reached. One serves a whole run:
// every block renders into its buffer, one after the other, so a request
// grows one buffer once where it used to grow one per block.
type Renderer struct {
	buf    bytes.Buffer
	script *Script
	ctx    *Context
	block  *Block
}

// maxPooledRender caps the buffer a Renderer goes back to the pool with, so
// one huge block does not pin memory.
const maxPooledRender = 1 << 20

var rendererPool = sync.Pool{New: func() any { return new(Renderer) }}

// Render runs the block and returns its output, the run's scratch memory:
// it is valid until the sink method it was obtained in returns, and a sink
// that keeps it copies. A non-nil watch is called with each row before the
// block reads it, so that a sink can depend on the row from before the read
// (the BEM's Depend): a write that lands while the block renders is then
// either seen by the read or heard by the sink.
func (r *Renderer) Render(watch func(repository.Key)) ([]byte, error) {
	r.buf.Reset()
	readUser := r.ctx.readUser
	r.ctx.watch = watch
	err := r.block.Render(r.ctx, &r.buf)
	r.ctx.watch = r.ctx.pageWatch
	if r.block.Cacheable {
		r.ctx.readUser = readUser // the fragment's, not the page's
	}
	if err != nil {
		return nil, fmt.Errorf("script %q block %q: %w", r.script.Name, r.block.Name, err)
	}
	return r.buf.Bytes(), nil
}

// Run executes the script against the sink. The blocks Layout returns are
// only read, so a script whose layout does not depend on the request may
// return the same slice every time.
func Run(s *Script, ctx *Context, sink Sink) error {
	if s.Layout == nil {
		return fmt.Errorf("script %q has no layout", s.Name)
	}
	r := rendererPool.Get().(*Renderer)
	r.script, r.ctx = s, ctx
	defer func() {
		r.script, r.ctx, r.block = nil, nil, nil
		if r.buf.Cap() <= maxPooledRender {
			rendererPool.Put(r)
		}
	}()
	ctx.readUser = false
	blocks := s.Layout(ctx)
	for i := range blocks {
		b := &blocks[i]
		r.block = b
		if !b.Cacheable {
			body, err := r.Render(ctx.pageWatch)
			if err != nil {
				return err
			}
			if err := sink.Literal(body); err != nil {
				return err
			}
			continue
		}
		if err := sink.Fragment(b.FragmentID(ctx), b.TTL, r); err != nil {
			return err
		}
	}
	return nil
}

// PlainSink renders every block — cacheable or not — straight to a writer.
// It is the no-cache baseline: the page exactly as a conventional
// application server would emit it.
type PlainSink struct {
	W io.Writer
	// Bytes counts total output.
	Bytes int64
}

// Literal implements Sink.
func (p *PlainSink) Literal(b []byte) error {
	n, err := p.W.Write(b)
	p.Bytes += int64(n)
	return err
}

// Fragment implements Sink by always generating.
func (p *PlainSink) Fragment(_ string, _ time.Duration, r *Renderer) error {
	body, err := r.Render(nil)
	if err != nil {
		return err
	}
	return p.Literal(body)
}

// RenderPage is a convenience that runs a script against a PlainSink and
// returns the full page bytes.
func RenderPage(s *Script, ctx *Context) ([]byte, error) {
	var buf bytes.Buffer
	if err := Run(s, ctx, &PlainSink{W: &buf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
