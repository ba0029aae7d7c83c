package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// oracle checks a response body against what the site must have served.
// A page is its fragments back to back, each exactly FragmentBytes long
// and opening with "<!--frag <j> v<version>-->", so fragment k of a page
// is checked at byte k×FragmentBytes without scanning the body.
type oracle struct {
	prefix [][]byte // per fragment: "<!--frag <j> v"
	// writes holds, per fragment, its writes in issue order; nil until
	// the fragment is first written. Swapped whole on each change, so
	// readers need no lock.
	writes []atomic.Pointer[[]write]
	grace  time.Duration
	// raced counts responses that carried a version older than one
	// acknowledged before the request was sent, but within the grace.
	raced atomic.Int64
}

// write is one update of a fragment's source row. acked is zero from the
// moment the write is issued until the invalidation it causes has been
// delivered to the proxy; a response may carry the version from the
// first moment and must carry it (or a later one) once acked is a grace
// period in the past.
type write struct {
	version int64
	acked   time.Time
}

// initialVersion is what BuildSynthetic seeds every source row with.
const initialVersion = 1

var markerEnd = []byte("-->")

func newOracle(grace time.Duration) *oracle {
	fragments := siteConfig.Pages * siteConfig.FragmentsPerPage
	o := &oracle{
		prefix: make([][]byte, fragments),
		writes: make([]atomic.Pointer[[]write], fragments),
		grace:  grace,
	}
	for j := range o.prefix {
		o.prefix[j] = []byte(fmt.Sprintf("<!--frag %d v", j))
	}
	return o
}

// issue records that fragment j is about to be written with version.
func (o *oracle) issue(j int, version int64) {
	var next []write
	if cur := o.writes[j].Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, write{version: version})
	o.writes[j].Store(&next)
}

// acknowledge records that fragment j's latest issued write had reached
// every cache tier by at.
func (o *oracle) acknowledge(j int, at time.Time) {
	next := append([]write(nil), *o.writes[j].Load()...)
	next[len(next)-1].acked = at
	o.writes[j].Store(&next)
}

// check verifies the body served for page to a request sent at sent.
func (o *oracle) check(page int, body []byte, sent time.Time) error {
	n, size := siteConfig.FragmentsPerPage, siteConfig.FragmentBytes
	if len(body) != n*size {
		return fmt.Errorf("page %d: body is %d bytes, want %d", page, len(body), n*size)
	}
	for k := 0; k < n; k++ {
		j := page*n + k
		frag := body[k*size : (k+1)*size]
		if !bytes.HasPrefix(frag, o.prefix[j]) {
			return fmt.Errorf("page %d: fragment %d does not open with %q", page, k, o.prefix[j])
		}
		rest := frag[len(o.prefix[j]):]
		end := bytes.Index(rest[:24], markerEnd)
		if end <= 0 {
			return fmt.Errorf("page %d: fragment %d has an unterminated marker", page, k)
		}
		version, err := strconv.ParseInt(string(rest[:end]), 10, 64)
		if err != nil {
			return fmt.Errorf("page %d: fragment %d has version %q", page, k, rest[:end])
		}
		if err := o.checkVersion(j, version, sent); err != nil {
			return fmt.Errorf("page %d: %w", page, err)
		}
	}
	return nil
}

// checkVersion fails a version the fragment never had, and one older than
// the newest write acknowledged more than the grace before sent; it
// counts one older than a write acknowledged inside the grace as a raced
// read.
func (o *oracle) checkVersion(j int, version int64, sent time.Time) error {
	var hist []write
	if p := o.writes[j].Load(); p != nil {
		hist = *p
	}
	known := version == initialVersion
	required, latest := int64(initialVersion), int64(initialVersion)
	for _, w := range hist {
		known = known || w.version == version
		if !w.acked.IsZero() && !w.acked.After(sent) {
			latest = w.version
			if !w.acked.After(sent.Add(-o.grace)) {
				required = w.version
			}
		}
	}
	if !known {
		return fmt.Errorf("fragment %d has version %d, which it was never given", j, version)
	}
	if version < required {
		return fmt.Errorf("fragment %d is stale: version %d, but %d was acknowledged over %v before the request",
			j, version, required, o.grace)
	}
	if version < latest {
		o.raced.Add(1)
	}
	return nil
}
