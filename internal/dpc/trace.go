package dpc

import (
	"net/http"
	"time"

	"dpcache/internal/metrics"
	"dpcache/internal/trace"
)

// NewTracer builds a request tracer with its dpc.trace.* metric family
// wired to reg: sampled (a finished trace admitted to the capture ring),
// dropped (finished but not admitted), slow (met the slow threshold, also
// logged). core shares one tracer across the interior proxy and every
// edge, so a cluster request lands in one ring regardless of which hop
// sampled it.
func NewTracer(reg *metrics.Registry, sampleEvery int, slow time.Duration, ringSize int) *trace.Tracer {
	return trace.New(trace.Config{
		SampleEvery:   sampleEvery,
		SlowThreshold: slow,
		RingSize:      ringSize,
		OnSampled:     func() { reg.Counter("dpc.trace.sampled").Inc() },
		OnDropped:     func() { reg.Counter("dpc.trace.dropped").Inc() },
		OnSlow:        func() { reg.Counter("dpc.trace.slow").Inc() },
	})
}

// traceWriter attributes response bytes and time-to-first-byte to the
// request's root span on their way to the client. It is the request's
// writer (rs.w) from ServeHTTP on, so whole pages, streamed chunks, and
// coalesced replays are all attributed; the tier's capture is a tee of the
// spool writer, not a wrapper of this one.
type traceWriter struct {
	http.ResponseWriter
	sp *trace.Span
}

func (t *traceWriter) WriteHeader(code int) {
	t.sp.MarkFirstByte()
	t.ResponseWriter.WriteHeader(code)
}

func (t *traceWriter) Write(b []byte) (int, error) {
	t.sp.MarkFirstByte()
	n, err := t.ResponseWriter.Write(b)
	t.sp.AddBytes(int64(n))
	return n, err
}

// Flush forwards to the underlying writer so streaming paths keep their
// flush-per-chunk behavior through the attribution layer.
func (t *traceWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// expositionMetrics renders MetricCatalog in the Prometheus writer's
// form — the catalog's When sentence becomes the HELP line — so
// /_dpc/metrics and docs/METRICS.md can never disagree about the metric
// surface.
func expositionMetrics() []metrics.ExpositionMetric {
	docs := MetricCatalog()
	out := make([]metrics.ExpositionMetric, len(docs))
	for i, d := range docs {
		out[i] = metrics.ExpositionMetric{Name: d.Name, Type: d.Type, Help: d.When}
	}
	return out
}
