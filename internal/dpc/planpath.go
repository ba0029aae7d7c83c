package dpc

import (
	"bytes"
	"io"

	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// Every template is assembled by one engine, internal/tmplplan, and this
// file only decides which of its two drivers runs. A template that arrives
// whole and compiles runs as a plan: the body is read into a pooled
// buffer, hashed and looked up in the plan cache, a hit executes an
// immutable operator program (its literal bytes the plan's own, emitted
// zero-copy), and a miss compiles — once for every later request carrying
// the same bytes when the template can recur, for this request alone when
// it is a one-off (tmplplan.Plan.OneOff). Everything else — a template too
// large to hold, a body the origin stopped sending, a corrupt stream —
// runs the same operators straight off the decoder, retaining nothing, so
// the SETs ahead of the failure land before it surfaces.

// ErrStale reports that one or more GET instructions referenced slots that
// are empty or (in strict mode) carry a different generation than the
// template expected. The proxy recovers by re-fetching the page with the
// bypass header, reporting the stale references so the BEM invalidates
// them (see AssembleStats.Stale).
var ErrStale = tmplplan.ErrStale

// StaleRef identifies a slot reference that failed during assembly.
type StaleRef = tmplplan.Ref

// AssembleStats reports what one assembly consumed and produced. See
// tmplplan.Stats for field semantics.
type AssembleStats = tmplplan.Stats

// planMaxTemplate bounds the template bytes buffered for plan-cache
// hashing — the same ceiling the request-body replay buffer uses. Larger
// templates are streamed instead of being held resident.
const planMaxTemplate = 8 << 20

// planCacheBudget bounds the summed retained footprint of resident plans;
// it is the plan cache's one bound (no entry count). Only templates that
// can recur are kept: one carrying a SET is compiled, run and dropped.
const planCacheBudget = 32 << 20

// errReader replays a terminal read error, so a streamed run over the
// bytes that did arrive observes the stream failing where the origin's
// body failed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readTemplate appends body to buf until EOF, an error, or one byte more
// than a plan may hold (which is how the caller sees "oversized"). A
// declared length (the caller has checked it against the limit) is
// reserved at once; an undeclared one grows by append's steps as
// io.ReadAll does, not by doubling, so reading up to the limit never has
// two limit-sized arrays live.
func readTemplate(buf []byte, body io.Reader, clen int64) ([]byte, error) {
	// One byte spare, so the read that reports io.EOF has somewhere to go.
	if need := int(clen) + 1; clen >= 0 && cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	for len(buf) <= planMaxTemplate {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):min(cap(buf), planMaxTemplate+1)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// assemble is the single assemble chokepoint: every template assembly —
// first try and stale-fallback retry — runs through it. clen is the body's
// declared length, -1 when the origin declared none. It counts one plan hit
// or miss per assembly and names the driver, and why, in one "plan" event
// on the stage's span. The template is held in a pooled buffer for the
// length of the run and in nothing afterwards: a plan owns copies of the
// bytes it emits. A lease hit (rs.held) has no body at all: the plan the
// lease names runs in its place, a hit with no template bytes read. The
// grant the origin's answer carried (rs.grantUntil) goes to its one keeper
// here, once the plan's run has resolved every ref, or to none: the page
// tier, when it files the page for every visitor (tierKeeps), and then the
// plan is not kept either; or else a lease, under the plan the template
// compiles to.
func (p *Proxy) assemble(w io.Writer, body io.Reader, clen int64, rs *reqState) (AssembleStats, error) {
	sp := rs.span
	until := rs.grantUntil
	rs.grantUntil = 0
	if plan := rs.held; plan != nil {
		rs.held = nil
		p.plans.CountHit()
		p.m.planHits.Inc()
		sp.Event(trace.KindHit, "plan", "hit:lease", 0)
		st, err := p.exec.Run(plan, w, sp)
		st.TemplateBytes = 0
		return st, err
	}
	if clen > planMaxTemplate {
		// Declared too large for a plan: nothing of it needs holding.
		p.m.planMisses.Inc()
		sp.Event(trace.KindMiss, "plan", "streamed:oversized", clen)
		return p.exec.RunStream(body, w, sp)
	}
	ref := pageBufPool.Get().(*[]byte)
	buf, err := readTemplate((*ref)[:0], body, clen)
	defer putPageBuf(ref, buf)
	var why string
	rest := body
	switch {
	case err != nil:
		why, rest = "streamed:read-error", errReader{err}
	case len(buf) > planMaxTemplate:
		why = "streamed:oversized"
	default:
		plan, hit, err := p.plans.Find(buf)
		if err == nil {
			kind, note := trace.KindHit, "hit"
			if hit {
				p.m.planHits.Inc()
			} else {
				kind, note = trace.KindMiss, "compile"
				p.m.planMisses.Inc()
				p.m.planCompiles.Inc()
				if plan.OneOff() {
					note = "compile:one-off"
					p.m.planOneOff.Inc()
				}
			}
			sp.Event(kind, "plan", note, int64(len(buf)))
			st, err := p.exec.Run(plan, w, sp)
			// A run that went stale keeps no grant: its refetch is the
			// stale fallback's, and the next visit would only void it.
			granted := err == nil && until != 0 && !plan.OneOff()
			if granted && p.tierKeeps(rs, st.PageBytes) {
				p.leases.pageGrants.Inc()
				return st, err
			}
			if !hit {
				p.plans.Keep(plan)
			}
			if granted {
				p.fileLease(rs, until, plan)
			}
			return st, err
		}
		// body is at EOF: the decoder meets the corruption in buf.
		why = "streamed:corrupt"
	}
	p.m.planMisses.Inc()
	sp.Event(trace.KindMiss, "plan", why, int64(len(buf)))
	return p.exec.RunStream(io.MultiReader(bytes.NewReader(buf), rest), w, sp)
}
