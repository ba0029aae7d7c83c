//go:build !race

package tmpl

import (
	"bytes"
	"testing"

	"dpcache/internal/alloctest"
)

// The race detector changes what allocates, so the budget is checked in
// builds without it (CI runs this file's tests in a step of their own).

// A bench-shaped template — twelve GETs and four 1 KiB literals — encoded
// into a buffer that has held one before allocates nothing: tags are laid
// out in the encoder, literals are scanned where they lie, and both go
// straight into the buffer. A fresh encoder over such a buffer is one small
// object, where it used to bring a 4 KiB bufio.Writer and a compiled matcher.
func TestAllocBudgetEncodeIntoBuffer(t *testing.T) {
	lit := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz012345"), 32)
	var buf bytes.Buffer
	enc := Binary{}.NewEncoder(&buf)
	encode := func() {
		buf.Reset()
		for k := uint32(0); k < 16; k++ {
			var err error
			if k%4 == 0 {
				err = enc.Literal(lit)
			} else {
				err = enc.Get(70000+k, 1<<20+k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Errorf("encoding a template into a reused buffer allocates %v objects, want 0", n)
	}

	if per, _ := alloctest.PerCall(5, 200, func() { enc = Binary{}.NewEncoder(&buf) }); per > 128 {
		t.Errorf("an encoder over an in-memory writer costs %.0f B, budget 128", per)
	}
}
