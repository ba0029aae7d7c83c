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
// repository handle. It also collects the data dependencies touched while
// rendering the current fragment, which the BEM uses for update-driven
// invalidation.
type Context struct {
	// Params are the request's query parameters (e.g. categoryID).
	Params map[string]string
	// UserID identifies a registered user; empty means anonymous.
	UserID string
	// Repo is the content repository backing the site.
	Repo *repository.Repo

	deps []repository.Key
}

// NewContext returns a request context.
func NewContext(repo *repository.Repo, userID string, params map[string]string) *Context {
	if params == nil {
		params = map[string]string{}
	}
	return &Context{Params: params, UserID: userID, Repo: repo}
}

// Param returns a request parameter or def when absent.
func (c *Context) Param(name, def string) string {
	if v, ok := c.Params[name]; ok {
		return v
	}
	return def
}

// Anonymous reports whether the request has no registered user.
func (c *Context) Anonymous() bool { return c.UserID == "" }

// Query reads a repository row, recording the dependency for the fragment
// currently being rendered.
func (c *Context) Query(table, row string) (repository.Row, error) {
	k := repository.Key{Table: table, Row: row}
	c.deps = append(c.deps, k)
	return c.Repo.Get(k)
}

// Field reads one column, recording the dependency; def is returned when
// the row or column is missing.
func (c *Context) Field(table, row, column, def string) string {
	k := repository.Key{Table: table, Row: row}
	c.deps = append(c.deps, k)
	return c.Repo.Field(k, column, def)
}

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

// Render runs the block and returns its output and the repository keys it
// read. Both are the run's scratch memory: they are valid until the sink
// method they were obtained in returns, and a sink that keeps either copies.
func (r *Renderer) Render() (body []byte, deps []repository.Key, err error) {
	r.buf.Reset()
	r.ctx.deps = r.ctx.deps[:0]
	if err := r.block.Render(r.ctx, &r.buf); err != nil {
		return nil, nil, fmt.Errorf("script %q block %q: %w", r.script.Name, r.block.Name, err)
	}
	return r.buf.Bytes(), r.ctx.deps, nil
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
	blocks := s.Layout(ctx)
	for i := range blocks {
		b := &blocks[i]
		r.block = b
		if !b.Cacheable {
			body, _, err := r.Render()
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
	body, _, err := r.Render()
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
