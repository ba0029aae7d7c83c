package main

import "testing"

// sumSelf is the total attributed time.
func sumSelf(r spanReport) int64 {
	var s int64
	for _, ns := range r.selfNs {
		s += ns
	}
	return s
}

func TestAnalyzeNested(t *testing.T) {
	spans := []span{
		{Name: rootSpan, Req: 1, Start: 0, End: 100},
		{Name: "dpc", Req: 1, Start: 10, End: 90},
		{Name: "origin.rtt", Req: 1, Start: 20, End: 60},
		{Name: "origin", Req: 1, Start: 30, End: 50},
	}
	r := analyze(spans)
	want := map[string]int64{rootSpan: 20, "dpc": 40, "origin.rtt": 20, "origin": 20}
	for name, ns := range want {
		if r.selfNs[name] != ns {
			t.Errorf("self[%s] = %d, want %d", name, r.selfNs[name], ns)
		}
	}
	if sumSelf(r) != r.rootNs || r.rootNs != 100 {
		t.Errorf("self times sum to %d, root is %d", sumSelf(r), r.rootNs)
	}
	if r.orphans != 0 {
		t.Errorf("orphans = %d", r.orphans)
	}
	for i, parent := range []int{-1, 0, 1, 2} {
		if spans[i].Parent != parent {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, parent)
		}
	}
}

// Parallel prefetch issues overlapping GETs: the parent loses the union
// of their intervals, not the sum.
func TestAnalyzeOverlappingSiblings(t *testing.T) {
	r := analyze([]span{
		{Name: rootSpan, Req: 1, Start: 0, End: 100},
		{Name: "fragstore.get", Req: 1, Start: 10, End: 50},
		{Name: "fragstore.get", Req: 1, Start: 30, End: 80},
		{Name: "fragstore.get", Req: 1, Start: 40, End: 45},
	})
	if got := r.selfNs["fragstore.get"]; got != 70 {
		t.Errorf("overlapping gets cover %d, want the union 70", got)
	}
	if got := r.selfNs[rootSpan]; got != 30 {
		t.Errorf("root self = %d, want 30", got)
	}
	if got := r.totalNs["fragstore.get"]; got != 95 {
		t.Errorf("summed get durations = %d, want 95", got)
	}
	if sumSelf(r) != r.rootNs {
		t.Errorf("self times sum to %d, root is %d", sumSelf(r), r.rootNs)
	}
}

// A child that outlives its root — a handler returning a moment after
// the client has the whole response — is clipped, not lost or doubled.
func TestAnalyzeClipsOverhang(t *testing.T) {
	r := analyze([]span{
		{Name: rootSpan, Req: 1, Start: 0, End: 100},
		{Name: "dpc", Req: 1, Start: 10, End: 120},
	})
	if r.selfNs["dpc"] != 90 || r.selfNs[rootSpan] != 10 {
		t.Errorf("self = %v, want dpc 90 and root 10", r.selfNs)
	}
	if sumSelf(r) != r.rootNs {
		t.Errorf("self times sum to %d, root is %d", sumSelf(r), r.rootNs)
	}
}

func TestAnalyzeOrphans(t *testing.T) {
	r := analyze([]span{
		{Name: rootSpan, Req: 1, Start: 0, End: 100},
		{Name: "dpc", Req: 1, Start: 10, End: 90},
		{Name: "dpc", Req: 1, Start: 150, End: 160},    // began after its root ended
		{Name: "origin", Req: 2, Start: 200, End: 210}, // no root at all
	})
	if r.orphans != 2 {
		t.Errorf("orphans = %d, want 2", r.orphans)
	}
	if r.roots != 1 || sumSelf(r) != r.rootNs {
		t.Errorf("roots = %d, self sum %d, root %d", r.roots, sumSelf(r), r.rootNs)
	}
}

func TestRecorderKeepsRequestOfSpanStart(t *testing.T) {
	rec := newRecorder()
	rec.req.Store(4)
	o := rec.begin()
	rec.req.Store(5) // the client moved on before the call returned
	rec.end("dpc", o)
	if got := rec.spans[0].Req; got != 4 {
		t.Errorf("span charged to request %d, want 4", got)
	}
}
