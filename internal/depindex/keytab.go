package depindex

import "sync"

// keytab interns dependent keys: one id ↔ string record per distinct key,
// counted by the edges that point at it and freed with the last one. Its
// lock nests inside a shard's, never the other way round.
type keytab struct {
	mu   sync.Mutex
	ids  map[string]uint32
	recs []keyRec // recs[id-1]
	free uint32   // recycled ids, threaded through keyRec.next
}

type keyRec struct {
	s    string
	refs uint32
	next uint32
}

// pin returns key's id holding one reference, interning the key (which
// the table retains) if it is new.
func (t *keytab) pin(ix *Index, key string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[key]; ok {
		t.recs[id-1].refs++
		return id
	}
	id := t.free
	if id != 0 {
		t.free = t.recs[id-1].next
	} else {
		t.recs = append(t.recs, keyRec{})
		id = uint32(len(t.recs))
	}
	t.recs[id-1] = keyRec{s: key, refs: 1}
	t.ids[key] = id
	ix.bytes.Add(int64(len(key)) + keyCost)
	return id
}

// ref adds a reference for a new edge; the caller holds a pin or an edge.
func (t *keytab) ref(id uint32) {
	t.mu.Lock()
	t.recs[id-1].refs++
	t.mu.Unlock()
}

// unpin drops the reference pin took.
func (t *keytab) unpin(ix *Index, id uint32) {
	t.mu.Lock()
	t.release(ix, id)
	t.mu.Unlock()
}

// release drops one reference; the caller holds t.mu.
func (t *keytab) release(ix *Index, id uint32) {
	r := &t.recs[id-1]
	if r.refs--; r.refs > 0 {
		return
	}
	delete(t.ids, r.s)
	ix.bytes.Add(-int64(len(r.s)) - keyCost)
	*r = keyRec{next: t.free}
	t.free = id
}
