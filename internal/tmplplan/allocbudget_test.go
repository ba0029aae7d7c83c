//go:build !race

package tmplplan

import (
	"testing"

	"dpcache/internal/alloctest"
	"dpcache/internal/tmpl"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs the AllocBudget tests in a step of their own).

// compileFixed allows for the two objects of a fixed size Compile makes
// beside a plan's ops and bytes: the Plan and the decoder it drops (96 and
// 64 B).
const compileFixed = 256

// Compile gathers the bytes a plan keeps, literals and SET bodies, in pooled
// scratch and copies them out once, into one buffer of exactly their
// length: the objects a compile makes do not grow with the number of
// literals or SETs, and its bytes are the plan's bytes and ops, within the
// allocator's size classes (at most 1/8 over), and the Plan and decoder
// (4 objects at every size; 1 280 B for the 1 057-byte GET-only template of
// 4 blocks, 4 640 B at 16). Before, the buffer was sized to the whole
// template, tag bytes included, and each op held a slice header (48 B an
// op): 1 488 B at 4 blocks, 5 904 B at 16. The decoder before that fed KMP
// one byte at a time and copied every literal three times: the cold
// template cost 49 objects and 24 584 B at 4 blocks, 144 and 75 720 B at
// 16, 510 and 280 619 B at 64; its GET-only successor 28 and 10 520 B, 60
// and 19 464 B, 174 and 55 592 B.
func TestAllocBudgetCompileTemplate(t *testing.T) {
	for _, cold := range []bool{true, false} {
		var first float64
		for _, blocks := range []int{4, 16, 64} {
			src := benchShaped(t, blocks, cold)
			var p *Plan
			compile := func() {
				var err error
				if p, err = Compile(tmpl.Binary{}, src); err != nil {
					t.Fatal(err)
				}
			}
			compile()
			b, objs := alloctest.PerCall(20, 10, compile)
			kept := len(p.data) + len(p.ops)*int(opSize)
			if budget := 1.125*float64(kept) + compileFixed; b > budget {
				t.Errorf("cold=%v blocks=%d: Compile allocates %.0f B for a plan of %d bytes and %d ops, budget %.0f",
					cold, blocks, b, len(p.data), len(p.ops), budget)
			}
			if blocks == 4 {
				first = objs
			} else if objs > first {
				t.Errorf("cold=%v blocks=%d: Compile allocates %.1f objects, %.1f at 4 blocks: the count grows with the template",
					cold, blocks, objs, first)
			}
			t.Logf("cold=%v blocks=%d: %d-byte template, %d plan bytes, %d ops: %.1f objects, %.0f B",
				cold, blocks, len(src), len(p.data), len(p.ops), objs, b)
		}
	}
}

// TestPlanFootprintTracksRetainedBytes: the footprint a plan charges a plan
// cache's byte budget is, within 15 %, what Compile allocates for it, all of
// which the plan keeps but the decoder.
func TestPlanFootprintTracksRetainedBytes(t *testing.T) {
	for _, cold := range []bool{true, false} {
		for _, blocks := range []int{4, 16, 64} {
			src := benchShaped(t, blocks, cold)
			var p *Plan
			compile := func() {
				var err error
				if p, err = Compile(tmpl.Binary{}, src); err != nil {
					t.Fatal(err)
				}
			}
			compile()
			b, _ := alloctest.PerCall(20, 10, compile)
			if f := float64(p.Footprint()); f < 0.85*b || f > 1.15*b {
				t.Errorf("cold=%v blocks=%d: Footprint %.0f B, Compile allocates %.0f B: off by %+.1f %%",
					cold, blocks, f, b, 100*(f-b)/b)
			}
		}
	}
}
