package diskstore

import (
	"container/list"
	"errors"
)

var (
	errClosed    = errors.New("diskstore: closed")
	errStalePage = errors.New("diskstore: page freed or reincarnated")
	errShortPage = errors.New("diskstore: short page read")
	errBadPage   = errors.New("diskstore: page failed checksum")
)

// The buffer pool. Frames live under the store latch (s.mu); every
// disk syscall happens with the latch released:
//
//   - loads publish through frame.loading: the loader inserts a frame
//     with an open channel, releases the latch, reads and verifies the
//     page, then closes the channel; waiters pin first and block on the
//     channel outside the latch.
//   - write-backs snapshot the frame under the latch and WriteAt the
//     private copy after releasing it, with at most one in-flight write
//     per page id so page images land on disk in staging order.
//   - slot kills replace the frame copy-on-write, so lock-free readers
//     still holding the old frame never race the edit.
//   - appends edit the tail frame in place, under the latch. A reader
//     shares that frame lock-free, so it may touch only what was complete
//     before its record was indexed — its own slot entry and record
//     bytes — never the slot count or dataLo an append moves. pin checks
//     the page incarnation instead, under the latch.
//
// Clock (second-chance) eviction only considers unpinned, clean,
// loaded frames — evicting one is a pure map delete, never I/O. No reader
// can hold such a frame (a reader copies out under the latch, or pins under
// the latch before it looks and copies out before it unpins), so its page
// buffer goes on a free list
// the next load, free or tail allocation takes from: the pool owns
// PoolPages buffers and hands them round instead of asking the allocator
// for a fresh one per miss. Frames orphaned by replaceFrameLocked may still
// be pinned and are left to the collector.

type frame struct {
	page int
	data []byte
	elem *list.Element // position in the clock ring

	pins    int  // eviction guard; guarded by s.mu
	ref     bool // clock reference bit
	loading chan struct{}
	loadErr error
}

// replaceFrameLocked installs f as the current frame for its page,
// orphaning any previous frame object (in-flight readers that pinned
// the old one keep reading its stable bytes).
func (s *Store) replaceFrameLocked(page int, f *frame) {
	if old := s.frames[page]; old != nil {
		s.removeClockLocked(old)
	}
	s.frames[page] = f
	s.addClockLocked(f)
}

func (s *Store) addClockLocked(f *frame) {
	f.elem = s.clock.PushBack(f)
}

func (s *Store) removeClockLocked(f *frame) {
	if f.elem == nil {
		return
	}
	if s.hand == f.elem {
		s.hand = f.elem.Next()
	}
	s.clock.Remove(f.elem)
	f.elem = nil
}

// evictFramesLocked runs the clock hand until the pool is within its
// frame budget or no frame is evictable. Dirty, pinned, loading, and
// flushing frames are skipped; a skipped clean frame loses its
// reference bit, so hot pages survive one extra sweep.
func (s *Store) evictFramesLocked() {
	budget := s.cfg.PoolPages
	if budget <= 0 || s.clock.Len() <= budget {
		return
	}
	scans := 2 * s.clock.Len()
	for s.clock.Len() > budget && scans > 0 {
		scans--
		if s.hand == nil {
			s.hand = s.clock.Front()
			if s.hand == nil {
				return
			}
		}
		e := s.hand
		s.hand = e.Next()
		f := e.Value.(*frame)
		if f.pins > 0 || f.loading != nil || s.dirty[f.page] == f || s.flushing[f.page] {
			f.ref = false
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		s.clock.Remove(e)
		f.elem = nil
		if s.frames[f.page] == f {
			delete(s.frames, f.page)
		}
		if len(s.freeBufs) < budget {
			s.freeBufs = append(s.freeBufs, f.data)
		}
		f.data = nil
		s.poolEvictions.Add(1)
	}
}

// pageBufLocked returns a page buffer of unspecified content, recycled
// from an evicted frame when one is waiting.
func (s *Store) pageBufLocked() []byte {
	if n := len(s.freeBufs); n > 0 {
		buf := s.freeBufs[n-1]
		s.freeBufs[n-1] = nil
		s.freeBufs = s.freeBufs[:n-1]
		return buf
	}
	return make([]byte, s.pageBytes)
}

// markDirtyLocked records that f's page needs a write-back.
func (s *Store) markDirtyLocked(f *frame) {
	s.dirty[f.page] = f
}

// pin returns the loaded frame for incarnation pgen of page with its pin
// count raised, loading it from disk (outside the latch) if absent; a
// page freed or reused since the location was read is errStalePage. A
// freed page's frame is replaced, not edited, so the incarnation cannot
// change under a pinned frame. The caller must unpin it.
func (s *Store) pin(page int, pgen uint64) (*frame, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	if pi := s.pages[page]; pi == nil || pi.free || pi.gen != pgen {
		s.mu.Unlock()
		return nil, errStalePage
	}
	if f := s.frames[page]; f != nil {
		f.pins++
		f.ref = true
		if ch := f.loading; ch != nil {
			s.mu.Unlock()
			<-ch
			if f.loadErr != nil {
				s.unpin(f)
				return nil, f.loadErr
			}
			s.poolHits.Add(1)
			return f, nil
		}
		s.mu.Unlock()
		s.poolHits.Add(1)
		return f, nil
	}
	f := &frame{page: page, data: s.pageBufLocked(), loading: make(chan struct{}), pins: 1}
	s.frames[page] = f
	s.addClockLocked(f)
	s.evictFramesLocked()
	s.mu.Unlock()

	n, err := s.file.ReadAt(f.data, int64(page)*int64(s.pageBytes))
	if err == nil && n < len(f.data) {
		err = errShortPage
	}
	if err == nil && !verifyPage(f.data) {
		err = errBadPage
	}
	s.poolLoads.Add(1)

	s.mu.Lock()
	f.loadErr = err
	ch := f.loading
	f.loading = nil
	if err != nil && s.frames[page] == f {
		if f.elem != nil {
			s.removeClockLocked(f)
		}
		delete(s.frames, page)
	}
	s.mu.Unlock()
	close(ch)
	if err != nil {
		s.unpin(f)
		return nil, err
	}
	return f, nil
}

func (s *Store) unpin(f *frame) {
	s.mu.Lock()
	f.pins--
	s.mu.Unlock()
}

// flushDirty writes back dirty pages until none remain (or a truncate
// is in flight, which will re-drive the flush when it completes). Safe
// to call from any goroutine; per-page in-flight flags serialize
// write-backs for the same page id.
func (s *Store) flushDirty() {
	// The snapshot page is the store's flushScratch, taken for the length
	// of the call; a flusher running beside its holder allocates its own.
	var scratch []byte
	for {
		s.mu.Lock()
		var f *frame
		if !s.truncating && !s.closed {
			for page, cand := range s.dirty {
				if !s.flushing[page] {
					f = cand
					break
				}
			}
		}
		if f == nil {
			if scratch != nil {
				s.flushScratch = scratch
			}
			s.mu.Unlock()
			return
		}
		page := f.page
		delete(s.dirty, page)
		s.flushing[page] = true
		if scratch == nil {
			scratch, s.flushScratch = s.flushScratch, nil
		}
		if scratch == nil {
			scratch = make([]byte, s.pageBytes)
		}
		copy(scratch, f.data)
		s.writes.Add(1)
		s.mu.Unlock()

		sealPage(scratch)
		_, err := s.file.WriteAt(scratch, int64(page)*int64(s.pageBytes))
		if err != nil {
			s.writeErrsCount.Add(1)
		}

		s.mu.Lock()
		delete(s.flushing, page)
		s.writes.Done()
		// The page just became clean, so the pool may shrink now.
		s.evictFramesLocked()
		s.mu.Unlock()
	}
}

// applyKills zeroes the slot directory entries of deleted records. For
// each affected page the current frame is loaded (if needed), cloned,
// edited, and swapped in under the latch — copy-on-write, so readers
// holding the old frame are never raced — then marked dirty for
// write-back. Must be called without s.mu held.
func (s *Store) applyKills(kills []segLoc) {
	if len(kills) == 0 {
		return
	}
	byPage := make(map[int][]segLoc)
	for _, loc := range kills {
		byPage[loc.page] = append(byPage[loc.page], loc)
	}
	for page, locs := range byPage {
		f, err := s.pin(page, locs[0].pgen)
		if err != nil {
			continue // stale or unreadable page: its records are unreachable anyway
		}
		s.mu.Lock()
		cur := s.frames[page]
		pi := s.pages[page]
		if cur == nil || pi == nil || pi.gen != locs[0].pgen || pi.free {
			// Page was freed or reincarnated since the kill was queued;
			// nothing on it belongs to the deleted record anymore.
			s.mu.Unlock()
			s.unpin(f)
			continue
		}
		nf := &frame{page: page, data: append([]byte(nil), cur.data...)}
		if page == s.tail {
			// The unsealed tail's standing pin (allocTailLocked) belongs to
			// the page, not the frame object: carry it onto the clone, or
			// the pool could evict the tail out from under the next append.
			cur.pins--
			nf.pins++
		}
		nSlots := pageSlotCount(nf.data)
		for _, loc := range locs {
			if loc.slot >= 0 && loc.slot < nSlots {
				setPageSlot(nf.data, loc.slot, 0, 0)
			}
		}
		s.replaceFrameLocked(page, nf)
		s.markDirtyLocked(nf)
		s.mu.Unlock()
		s.unpin(f)
	}
	s.flushDirty()
}
