package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// servedPage renders page as the site would, with every fragment at
// version 1 except those in versions.
func servedPage(page int, versions map[int]int64) []byte {
	n, size := siteConfig.FragmentsPerPage, siteConfig.FragmentBytes
	var b bytes.Buffer
	for k := 0; k < n; k++ {
		j := page*n + k
		v := int64(initialVersion)
		if ov, ok := versions[j]; ok {
			v = ov
		}
		head := fmt.Sprintf("<!--frag %d v%d-->", j, v)
		b.WriteString(head)
		b.WriteString(strings.Repeat("x", size-len(head)))
	}
	return b.Bytes()
}

func testOracle() *oracle { return newOracle(freshGrace) }

func TestOracleAcceptsWhatTheSiteServes(t *testing.T) {
	o := testOracle()
	if err := o.check(7, servedPage(7, nil), time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsShortBody(t *testing.T) {
	o := testOracle()
	body := servedPage(7, nil)
	if err := o.check(7, body[:len(body)-1], time.Now()); err == nil {
		t.Fatal("a body one byte short passed")
	}
}

func TestOracleRejectsSwappedFragment(t *testing.T) {
	o := testOracle()
	body := servedPage(7, nil)
	size := siteConfig.FragmentBytes
	first := append([]byte(nil), body[:size]...)
	copy(body[:size], body[size:2*size])
	copy(body[size:2*size], first)
	if err := o.check(7, body, time.Now()); err == nil {
		t.Fatal("a page with two fragments swapped passed")
	}
}

func TestOracleRejectsAnotherPagesBody(t *testing.T) {
	o := testOracle()
	if err := o.check(7, servedPage(8, nil), time.Now()); err == nil {
		t.Fatal("page 8's body passed as page 7")
	}
}

func TestOracleFreshness(t *testing.T) {
	const page = 7
	j := page*siteConfig.FragmentsPerPage + 3
	acked := time.Now()

	o := testOracle()
	o.issue(j, 2)
	// Issued but not yet acknowledged: old and new are both right.
	for _, v := range []int64{1, 2} {
		if err := o.check(page, servedPage(page, map[int]int64{j: v}), acked); err != nil {
			t.Fatalf("version %d while the write is in flight: %v", v, err)
		}
	}
	o.acknowledge(j, acked)

	// A request sent inside the grace may still see the old version; it
	// is counted, not failed.
	if err := o.check(page, servedPage(page, nil), acked.Add(freshGrace/2)); err != nil {
		t.Fatalf("old version inside the grace: %v", err)
	}
	if got := o.raced.Load(); got != 1 {
		t.Fatalf("raced reads = %d, want 1", got)
	}
	// Past the grace the old version is a failure, the new one is not.
	late := acked.Add(freshGrace + time.Millisecond)
	if err := o.check(page, servedPage(page, nil), late); err == nil {
		t.Fatal("a stale version past the grace passed")
	}
	if err := o.check(page, servedPage(page, map[int]int64{j: 2}), late); err != nil {
		t.Fatalf("fresh version: %v", err)
	}
	// A version nobody wrote is wrong whenever it is seen.
	if err := o.check(page, servedPage(page, map[int]int64{j: 9}), late); err == nil {
		t.Fatal("a version the fragment never had passed")
	}
}
