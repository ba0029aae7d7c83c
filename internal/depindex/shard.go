package depindex

import "sync"

// slabChunk is the record count of one slab chunk: 2 KiB of entries. A
// slab grows by a chunk at a time, so a record never moves and a shard
// wastes at most one part-filled chunk.
const slabChunk = 64

// slab hands out records by 1-based index (0 is nil) from fixed-size
// chunks. Freed records are recycled by their owner through a list
// threaded over a link field; the slab itself only ever grows.
type slab[T any] struct {
	chunks []*[slabChunk]T
	used   uint32 // records handed out so far
}

func (s *slab[T]) at(i uint32) *T {
	i--
	return &s.chunks[i/slabChunk][i%slabChunk]
}

// grow hands out a never-used record.
func (s *slab[T]) grow() uint32 {
	if int(s.used) == len(s.chunks)*slabChunk {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	s.used++
	return s.used
}

// entry is one fragment: 32 bytes.
type entry struct {
	ref ID
	// prev and next link the shard's recency list by slab index, prev
	// toward the most recently recorded; next also threads the free list.
	prev, next uint32
	// key and until are the first edge, held in the record: the dependent
	// key's id (0 = no edge here) and its deadline second.
	key, until uint32
	// more heads the chain of overflow records holding the other edges.
	more uint32
	// dead marks a generation invalidated since its last edge was
	// recorded: the tombstone sweep drops the entry.
	dead bool
}

// overflow is one edge past a fragment's first: 12 bytes.
type overflow struct {
	key, until uint32
	next       uint32 // the fragment's next overflow record, or the free list
}

// shard is one lock's worth of the index.
type shard struct {
	mu    sync.Mutex
	frags slab[entry]
	more  slab[overflow]
	// freeFrag and freeMore head the recycled records of each slab.
	freeFrag, freeMore uint32
	// tab is the open-addressed lookup table: slab indexes by hashed ref,
	// linear probing, 0 = empty, kept at most 3/4 full.
	tab []uint32
	// head is the most recently recorded fragment, tail the least.
	head, tail  uint32
	live, edges int
	// tomb holds invalidated refs (MarkInvalid) and their deadline second.
	tomb        map[ID]uint32
	tombSweepAt uint32
	// inexactUntil: after an eviction that lost live edges, every answer
	// from this shard is qualified exact=false (a re-recorded fragment may
	// be missing its pre-eviction edges) until the second the last lost
	// edge would have expired.
	inexactUntil uint32
}

func (sh *shard) home(h uint64) uint32 { return uint32(h>>32) & uint32(len(sh.tab)-1) }

// find returns the fragment's slab index and table position, i == 0 when
// it has no entry.
func (sh *shard) find(id ID, h uint64) (i, pos uint32) {
	if len(sh.tab) == 0 {
		return 0, 0
	}
	mask := uint32(len(sh.tab) - 1)
	for pos = sh.home(h); ; pos = (pos + 1) & mask {
		i = sh.tab[pos]
		if i == 0 || sh.frags.at(i).ref == id {
			return i, pos
		}
	}
}

// index enters slab record i, whose ref hashes to h, into the table.
func (sh *shard) index(i uint32, h uint64) {
	if (sh.live+1)*4 > len(sh.tab)*3 {
		sh.tab = make([]uint32, max(8, 2*len(sh.tab)))
		for j := sh.head; j != 0; j = sh.frags.at(j).next {
			sh.place(j, mix(sh.frags.at(j).ref))
		}
	}
	sh.place(i, h)
}

func (sh *shard) place(i uint32, h uint64) {
	mask := uint32(len(sh.tab) - 1)
	pos := sh.home(h)
	for sh.tab[pos] != 0 {
		pos = (pos + 1) & mask
	}
	sh.tab[pos] = i
}

// unindex empties table position pos, shifting back the records probing
// had pushed past it so no lookup meets a hole before its record.
func (sh *shard) unindex(pos uint32) {
	mask := uint32(len(sh.tab) - 1)
	for q := pos; ; {
		q = (q + 1) & mask
		j := sh.tab[q]
		if j == 0 {
			break
		}
		// j may move back to pos only if pos is not before its home.
		if home := sh.home(mix(sh.frags.at(j).ref)); (q-home)&mask >= (q-pos)&mask {
			sh.tab[pos] = j
			pos = q
		}
	}
	sh.tab[pos] = 0
}

func (sh *shard) pushFront(i uint32) {
	e := sh.frags.at(i)
	e.prev, e.next = 0, sh.head
	if sh.head != 0 {
		sh.frags.at(sh.head).prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

func (sh *shard) unlink(i uint32) {
	e := sh.frags.at(i)
	if e.prev != 0 {
		sh.frags.at(e.prev).next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != 0 {
		sh.frags.at(e.next).prev = e.prev
	} else {
		sh.tail = e.prev
	}
}

// record adds or refreshes the edge id → kid; a new edge takes its own
// reference on the key (the caller holds a pin). Recording makes the
// fragment the shard's most recent and clears its dead mark.
func (sh *shard) record(ix *Index, id ID, h uint64, kid, until uint32) {
	i, _ := sh.find(id, h)
	if i == 0 {
		if i = sh.freeFrag; i != 0 {
			sh.freeFrag = sh.frags.at(i).next
		} else {
			i = sh.frags.grow()
		}
		*sh.frags.at(i) = entry{ref: id, key: kid, until: until}
		sh.index(i, h)
		sh.pushFront(i)
		sh.live++
		sh.edges++
		ix.bytes.Add(entryCost)
		ix.keys.ref(kid)
		return
	}
	e := sh.frags.at(i)
	if sh.head != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
	e.dead = false
	if e.key == kid {
		e.until = until
		return
	}
	for j := e.more; j != 0; {
		o := sh.more.at(j)
		if o.key == kid {
			o.until = until
			return
		}
		j = o.next
	}
	sh.edges++
	ix.keys.ref(kid)
	if e.key == 0 {
		e.key, e.until = kid, until
		return
	}
	j := sh.freeMore
	if j != 0 {
		sh.freeMore = sh.more.at(j).next
	} else {
		j = sh.more.grow()
	}
	*sh.more.at(j) = overflow{key: kid, until: until, next: e.more}
	e.more = j
	ix.bytes.Add(overflowCost)
}

// dependents returns id's unexpired keys, pruning the expired edges and,
// if none is left, the entry.
func (sh *shard) dependents(ix *Index, id ID, h uint64, now uint32) (keys []string) {
	i, _ := sh.find(id, h)
	if i == 0 {
		return nil
	}
	e := sh.frags.at(i)
	ix.keys.mu.Lock()
	if e.key != 0 {
		if now < e.until {
			keys = append(keys, ix.keys.recs[e.key-1].s)
		} else {
			ix.keys.release(ix, e.key)
			e.key = 0
			sh.edges--
		}
	}
	for link := &e.more; *link != 0; {
		j := *link
		o := sh.more.at(j)
		if now < o.until {
			keys = append(keys, ix.keys.recs[o.key-1].s)
			link = &o.next
			continue
		}
		ix.keys.release(ix, o.key)
		*link = o.next
		sh.freeOverflow(ix, j)
	}
	ix.keys.mu.Unlock()
	if e.key == 0 && e.more == 0 {
		sh.remove(ix, i)
	}
	return keys
}

func (sh *shard) freeOverflow(ix *Index, j uint32) {
	*sh.more.at(j) = overflow{next: sh.freeMore}
	sh.freeMore = j
	sh.edges--
	ix.bytes.Add(-overflowCost)
}

// remove drops fragment i with every edge it still has and returns the
// latest deadline among them (0 if it had none).
func (sh *shard) remove(ix *Index, i uint32) (last uint32) {
	e := sh.frags.at(i)
	ix.keys.mu.Lock()
	if e.key != 0 {
		ix.keys.release(ix, e.key)
		last = e.until
		sh.edges--
	}
	for j := e.more; j != 0; {
		o := sh.more.at(j)
		ix.keys.release(ix, o.key)
		last = max(last, o.until)
		next := o.next
		sh.freeOverflow(ix, j)
		j = next
	}
	ix.keys.mu.Unlock()
	_, pos := sh.find(e.ref, mix(e.ref))
	sh.unindex(pos)
	sh.unlink(i)
	*e = entry{next: sh.freeFrag}
	sh.freeFrag = i
	sh.live--
	ix.bytes.Add(-entryCost)
	return last
}

// evictTail drops the least recently recorded fragment and reports whether
// that lost anything: a live edge of a generation nobody has finished
// invalidating. Only then does the shard's conservative window open.
func (sh *shard) evictTail(ix *Index, now uint32) (lossy bool) {
	e := sh.frags.at(sh.tail)
	settled := false
	if e.dead {
		// Invalidated, and every subscriber has long asked: see the package
		// comment on tombstoneTTL.
		deadline, ok := sh.tomb[e.ref]
		settled = ok && deadline <= now
	}
	last := sh.remove(ix, sh.tail)
	if last <= now || settled {
		return false
	}
	sh.inexactUntil = max(sh.inexactUntil, last)
	return true
}

// sweepTombstones retires the tombstones that have run out and, with each,
// the dead generation's entry.
func (sh *shard) sweepTombstones(ix *Index, now uint32) {
	for id, deadline := range sh.tomb {
		if deadline > now {
			continue
		}
		delete(sh.tomb, id)
		if i, _ := sh.find(id, mix(id)); i != 0 && sh.frags.at(i).dead {
			sh.remove(ix, i)
		}
	}
	sh.tombSweepAt = now + secCeil(tombstoneTTL)/4
}

// reset empties the shard and returns its memory.
func (sh *shard) reset(ix *Index) {
	for sh.tail != 0 {
		sh.remove(ix, sh.tail)
	}
	sh.frags, sh.more = slab[entry]{}, slab[overflow]{}
	sh.freeFrag, sh.freeMore = 0, 0
	sh.tab = nil
	clear(sh.tomb)
	sh.tombSweepAt, sh.inexactUntil = 0, 0
}
