package dpc

import (
	"bytes"
	"io"

	"dpcache/internal/tmplplan"
	"dpcache/internal/trace"
)

// Every template is assembled by one engine, internal/tmplplan, and this
// file only decides which of its two drivers runs. A template that arrives
// whole and compiles runs as a cached plan: the body is hashed and looked
// up in the plan cache, a hit executes an immutable operator program
// (literal bytes retained once and emitted zero-copy, independent fragment
// GETs prefetched by a bounded worker pool), and a miss compiles once for
// every later request carrying the same bytes. Everything else — a
// template too large to hold, a body the origin stopped sending, a corrupt
// stream — runs the same operators straight off the decoder, retaining
// nothing, so the SETs ahead of the failure land before it surfaces.

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

// Plan-cache defaults (overridden by the PlanCache* config knobs).
const (
	defaultPlanEntries     = 512
	defaultPlanBudget      = 32 << 20
	defaultPlanParallelism = 4
)

// errReader replays a terminal read error, so a streamed run over the
// bytes that did arrive observes the stream failing where the origin's
// body failed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// assemble is the single assemble chokepoint: every template assembly —
// first try and stale-fallback retry — runs through it. It counts one plan
// hit or miss per assembly and names the driver, and why, in one "plan"
// event on sp.
func (p *Proxy) assemble(w io.Writer, body io.Reader, sp *trace.Span) (AssembleStats, error) {
	buf, err := io.ReadAll(io.LimitReader(body, planMaxTemplate+1))
	var why string
	rest := body
	switch {
	case err != nil:
		why, rest = "streamed:read-error", errReader{err}
	case len(buf) > planMaxTemplate:
		why = "streamed:oversized"
	default:
		plan, hit, err := p.plans.Get(buf)
		if err == nil {
			if hit {
				p.reg.Counter("dpc.plancache_hits").Inc()
				sp.Event(trace.KindHit, "plan", "hit", int64(len(buf)))
			} else {
				p.reg.Counter("dpc.plancache_misses").Inc()
				p.reg.Counter("dpc.plancache_compiles").Inc()
				sp.Event(trace.KindMiss, "plan", "compile", int64(len(buf)))
			}
			return p.exec.Run(plan, w, sp)
		}
		// body is at EOF: the decoder meets the corruption in buf.
		why = "streamed:corrupt"
	}
	p.reg.Counter("dpc.plancache_misses").Inc()
	sp.Event(trace.KindMiss, "plan", why, int64(len(buf)))
	return p.exec.RunStream(io.MultiReader(bytes.NewReader(buf), rest), w, sp)
}
