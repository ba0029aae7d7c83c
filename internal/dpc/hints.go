package dpc

import (
	"hash/maphash"
	"strings"
	"sync"

	"dpcache/internal/tmplplan"
)

// The hint table remembers the digest of the template the origin last sent,
// so the next fetch can offer the plan instead of reading the template
// again (see offerPlan). It is keyed first by what a template mostly
// depends on, the page: the fetch key's URI prefix up to its first NUL
// (PageKeyPrefix's convention). A fetch key — the identity, with X-User,
// Cookie and the other forwarded headers — keeps a hint of its own only
// while its template differs from the page's, as on a site whose layout is
// per user. So a site that shows every visitor the same template pays one
// full answer per page per template change, not one per visitor and page.
//
// A hint needs no coherency: the origin compares the offer with the
// template it has just generated for this very request, so a hint that is
// stale, belongs to another page or another visitor, or was overwritten
// costs one full-size answer and never a wrong page. That is what lets the
// table be this cheap — a fixed array that forgets by being written over,
// with nothing to evict, budget or flush. A lease (lease.go), a template the
// proxy reuses without asking, does need coherency: it lives in a table of
// its own, under the page's key when the origin says no visitor shapes the
// template and under the exact fetch key otherwise, and the fabric's events
// revoke it.

const (
	// hintBuckets × hintWays slots of 40 bytes: 320 KiB however many keys
	// pass through. Two ways because one is not enough at that size: a
	// thousand Zipf-popular keys in 8192 direct-mapped slots lose 2 % of
	// their offers to a neighbour, in 4096 buckets of two 0.2 %.
	hintBuckets = 1 << 12
	hintWays    = 2
)

// hintSlot is one remembered (key, digest) pair. The key is held as its
// 64-bit hash: two keys with one hash share a hint, which is one more way
// for a hint to be wrong, no worse than the others.
type hintSlot struct {
	tag    uint64
	digest tmplplan.Digest
}

// hintBucket holds the bucket's most recently inserted key first.
type hintBucket [hintWays]hintSlot

func (b *hintBucket) find(tag uint64) *hintSlot {
	for i := range b {
		if b[i].tag == tag {
			return &b[i]
		}
	}
	return nil
}

// set gives tag the digest d: over its own slot when it has one, else over
// the bucket's older slot.
func (b *hintBucket) set(tag uint64, d tmplplan.Digest) {
	if s := b.find(tag); s != nil {
		s.digest = d
		return
	}
	b[1] = b[0]
	b[0] = hintSlot{tag: tag, digest: d}
}

// clear empties tag's slot, leaving it the next to be written over.
func (b *hintBucket) clear(tag uint64) {
	switch tag {
	case b[0].tag:
		b[0], b[1] = b[1], hintSlot{}
	case b[1].tag:
		b[1] = hintSlot{}
	}
}

// hintTable is the fixed-size, lossy key → template-digest memory. One
// mutex covers it: an offer or a lesson holds it once, for two 40-byte
// slots.
type hintTable struct {
	seed    maphash.Seed
	mu      sync.Mutex
	buckets [hintBuckets]hintBucket
}

func newHintTable() *hintTable { return &hintTable{seed: maphash.MakeSeed()} }

// hintPage is the page a fetch key belongs to: its URI prefix up to and
// including the first NUL, a substring of the key.
func hintPage(key string) string { return key[:strings.IndexByte(key, 0)+1] }

// bucket returns key's tag and the bucket it lives in.
func (t *hintTable) bucket(key string) (tag uint64, b *hintBucket) {
	tag = maphash.String(t.seed, key)
	return tag, &t.buckets[tag%hintBuckets]
}

// offer returns the digest to offer on a fetch of key: the identity's own
// hint when it has one, else its page's. own reports the first.
func (t *hintTable) offer(key string) (d tmplplan.Digest, own, ok bool) {
	idTag, idb := t.bucket(key)
	pgTag, pgb := t.bucket(hintPage(key))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := idb.find(idTag); s != nil {
		return s.digest, true, true
	}
	if s := pgb.find(pgTag); s != nil {
		return s.digest, false, true
	}
	return d, false, false
}

// learn files d, the template a fetch of key ran, under key's page, every
// time. Under key itself it files d only while d differs from what the page
// last produced, and clears key's slot once the two agree again; a page
// with no hint yet has nothing to differ from.
func (t *hintTable) learn(key string, d tmplplan.Digest) {
	idTag, idb := t.bucket(key)
	pgTag, pgb := t.bucket(hintPage(key))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := pgb.find(pgTag); s != nil && s.digest != d {
		idb.set(idTag, d)
	} else {
		idb.clear(idTag)
	}
	pgb.set(pgTag, d)
}
