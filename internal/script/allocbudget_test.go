//go:build !race

package script

import (
	"io"
	"strings"
	"testing"

	"dpcache/internal/alloctest"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own).

// A run over a bench-shaped page — sixteen 1 KiB blocks, twelve tagged —
// renders every block into the run's one pooled buffer: no buffer per
// block, no closure per tagged block.
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
	run() // sizes the pooled buffer

	const windows, runs = 5, 200
	bytesPer, objsPer := alloctest.PerCall(windows, runs, run)
	if sink.Bytes != (windows*runs+1)*blocks*blockBytes {
		t.Fatalf("%d bytes rendered, want %d", sink.Bytes, (windows*runs+1)*blocks*blockBytes)
	}
	t.Logf("%.0f B in %.2f objects per run", bytesPer, objsPer)
	if bytesPer >= blockBytes || objsPer > 2 {
		t.Fatalf("%.0f B in %.2f objects allocated per run of %d blocks, budget under one %d-byte block and 2 objects",
			bytesPer, objsPer, blocks, blockBytes)
	}
}
