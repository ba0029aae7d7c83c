//go:build !race

package script

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own).

// A run over a bench-shaped page — sixteen 1 KiB blocks, twelve tagged —
// renders every block into the run's one pooled buffer: no buffer per
// block, no closure per tagged block, no dependency slice per render.
func TestAllocBudgetRunRendersIntoOneBuffer(t *testing.T) {
	const blocks, blockBytes = 16, 1 << 10
	body := strings.Repeat("x", blockBytes)
	render := func(c *Context, w io.Writer) error {
		c.Field("t", "row", "v", "")
		_, err := io.WriteString(w, body)
		return err
	}
	layout := make([]Block, blocks)
	for k := range layout {
		if k%4 == 0 {
			layout[k] = Untagged("lit", render)
		} else {
			layout[k] = Tagged("frag", 0, nil, render)
		}
	}
	s := &Script{Name: "page", Layout: func(*Context) []Block { return layout }}
	ctx := NewContext(newRepo(), "", nil)
	sink := &PlainSink{W: io.Discard} // renders all sixteen: the BEM's all-miss case
	run := func() {
		if err := Run(s, ctx, sink); err != nil {
			t.Fatal(err)
		}
	}
	run() // sizes the pooled buffer and the context's dependency list

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if sink.Bytes != (runs+1)*blocks*blockBytes {
		t.Fatalf("%d bytes rendered, want %d", sink.Bytes, (runs+1)*blocks*blockBytes)
	}
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	objsPer := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d B in %d objects per run", bytesPer, objsPer)
	if bytesPer >= blockBytes || objsPer > 2 {
		t.Fatalf("%d B in %d objects allocated per run of %d blocks, budget under one %d-byte block and 2 objects",
			bytesPer, objsPer, blocks, blockBytes)
	}
}
