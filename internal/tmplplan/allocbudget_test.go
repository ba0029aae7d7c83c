//go:build !race

package tmplplan

import (
	"testing"
	"unsafe"

	"dpcache/internal/alloctest"
	"dpcache/internal/tmpl"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs the AllocBudget tests in a step of their own).

// Compile copies the bytes a plan keeps, literals and SET bodies, once,
// into one allocation: the objects a compile makes do not grow with the
// number of literals or SETs, and its bytes stay within 1.25× the template
// plus the op slice (4 objects at every size; 1 488 B for the 1 057-byte
// GET-only template of 4 blocks). The decoder it replaced fed KMP one byte
// at a time and copied every literal three times: the cold template cost
// 49 objects and 24 584 B at 4 blocks, 144 and 75 720 B at 16, 510 and
// 280 619 B at 64; its GET-only successor 28 and 10 520 B, 60 and
// 19 464 B, 174 and 55 592 B.
func TestAllocBudgetCompileTemplate(t *testing.T) {
	opSize := int(unsafe.Sizeof(op{}))
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
			if budget := 1.25*float64(len(src)) + float64(len(p.ops)*opSize); b > budget {
				t.Errorf("cold=%v blocks=%d: Compile allocates %.0f B for a %d-byte template of %d ops, budget %.0f",
					cold, blocks, b, len(src), len(p.ops), budget)
			}
			if blocks == 4 {
				first = objs
			} else if objs > first {
				t.Errorf("cold=%v blocks=%d: Compile allocates %.1f objects, %.1f at 4 blocks: the count grows with the template",
					cold, blocks, objs, first)
			}
			t.Logf("cold=%v blocks=%d: %d-byte template, %d ops: %.1f objects, %.0f B", cold, blocks, len(src), len(p.ops), objs, b)
		}
	}
}
