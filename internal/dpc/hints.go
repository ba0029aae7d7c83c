package dpc

import (
	"hash/maphash"
	"sync"

	"dpcache/internal/tmplplan"
)

// The hint table remembers, per fetch key, the digest of the template the
// origin last sent for it, so the next fetch of that key can offer the
// plan instead of reading the template again (see offerPlan). A hint needs
// no coherency: the origin compares the offer with the template it has
// just generated for this very request, so a hint that is stale, belongs
// to another key or was overwritten costs one full-size answer and never a
// wrong page. That is what lets the table be this cheap — a fixed array
// that forgets by being written over, with nothing to evict, budget or
// flush.

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

// hintTable is the fixed-size, lossy key → template-digest memory. One
// mutex covers it: a critical section is a 40-byte copy.
type hintTable struct {
	seed    maphash.Seed
	mu      sync.Mutex
	buckets [hintBuckets][hintWays]hintSlot
}

func newHintTable() *hintTable { return &hintTable{seed: maphash.MakeSeed()} }

// bucket returns key's tag and the index of the bucket it lives in.
func (t *hintTable) bucket(key string) (tag uint64, i int) {
	tag = maphash.String(t.seed, key)
	return tag, int(tag % hintBuckets)
}

// lookup returns the digest last recorded for key.
func (t *hintTable) lookup(key string) (d tmplplan.Digest, ok bool) {
	tag, i := t.bucket(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range &t.buckets[i] {
		if s.tag == tag {
			return s.digest, true
		}
	}
	return d, false
}

// record remembers d for key: over key's own slot when it has one, else
// over the bucket's older slot.
func (t *hintTable) record(key string, d tmplplan.Digest) {
	tag, i := t.bucket(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[i]
	switch tag {
	case b[0].tag:
		b[0].digest = d
	case b[1].tag:
		b[1].digest = d
	default:
		b[1] = b[0]
		b[0] = hintSlot{tag: tag, digest: d}
	}
}
