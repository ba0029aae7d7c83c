package tmpl_test

import (
	"bytes"
	"fmt"
	"io"

	"dpcache/internal/tmpl"
)

// A template is literal page bytes interleaved with GET and SET
// instructions. The wire is compact binary; decoding it shows the
// structure.
func Example() {
	var wire bytes.Buffer
	enc := tmpl.Binary{}.NewEncoder(&wire)
	_ = enc.Literal([]byte("<html>"))
	_ = enc.Get(7, 1)                           // splice cached fragment from slot 7
	_ = enc.Set(8, 2, []byte("fresh fragment")) // store + splice new content
	_ = enc.Literal([]byte("</html>"))
	_ = enc.Flush()
	fmt.Printf("%d bytes on the wire\n", wire.Len())

	dec := tmpl.Binary{}.NewDecoder(&wire)
	for {
		in, err := dec.Next()
		if err == io.EOF {
			break
		}
		switch in.Op {
		case tmpl.OpLiteral:
			fmt.Printf("%s %q\n", in.Op, in.Data)
		case tmpl.OpSet:
			fmt.Printf("%s key=%d gen=%d %q\n", in.Op, in.Key, in.Gen, in.Data)
		default:
			fmt.Printf("%s key=%d gen=%d\n", in.Op, in.Key, in.Gen)
		}
	}
	// Output:
	// 47 bytes on the wire
	// LIT "<html>"
	// GET key=7 gen=1
	// SET key=8 gen=2 "fresh fragment"
	// LIT "</html>"
}
