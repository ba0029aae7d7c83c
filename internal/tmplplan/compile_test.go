package tmplplan

import (
	"bytes"
	"fmt"
	"testing"

	"dpcache/internal/tmpl"
)

// benchShaped encodes the template the benchmark's origin sends for a page
// of blocks 1 KiB blocks, three in four of them fragments: cold SETs every
// fragment (a page's first fetch), its GET-only successor names them.
func benchShaped(tb testing.TB, blocks int, cold bool) []byte {
	tb.Helper()
	block := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz012345"), 32)
	var ins []tmpl.Instruction
	for k := 0; k < blocks; k++ {
		in := tmpl.Instruction{Op: tmpl.OpGet, Key: uint32(70000 + k), Gen: uint32(1<<20 + k)}
		switch {
		case k%4 == 0:
			in = tmpl.Instruction{Op: tmpl.OpLiteral, Data: block}
		case cold:
			in.Op, in.Data = tmpl.OpSet, block
		}
		ins = append(ins, in)
	}
	return encode(tb, tmpl.Binary{}, ins)
}

// BenchmarkCompile is the plan cache's miss: one Compile of a bench-shaped
// template, cold and GET-only, in template bytes per second.
func BenchmarkCompile(b *testing.B) {
	for _, cold := range []bool{true, false} {
		shape := "get-only"
		if cold {
			shape = "cold"
		}
		for _, blocks := range []int{4, 16, 64} {
			src := benchShaped(b, blocks, cold)
			b.Run(fmt.Sprintf("%s/blocks=%d", shape, blocks), func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Compile(tmpl.Binary{}, src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
