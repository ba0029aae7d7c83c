package dpc

import (
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Every response that comes from the origin — an assembled template or a
// plain body passed through — reaches the client through one spoolWriter.
// What varies per response is only how much of its head the writer holds
// back before committing headers:
//
//   - an assembled page is held up to Config.StreamSpoolBytes, so that
//     staleness detected early (unset slots in any mode, generation
//     mismatches in strict mode) can still abort to a clean bypass fetch
//     with nothing committed to the client;
//   - it is held whole when the configuration asks for whole pages, and
//     when it is the stale-fallback stage's second assembly (a second
//     staleness must stay a clean error);
//   - a plain body is not held at all: there is no staleness to catch.
//
// A page that fits its spool is committed complete, with an exact
// Content-Length; one that outgrows it streams from there on.

// defaultSpoolBytes is the look-ahead window when Config.StreamSpoolBytes
// is zero.
const defaultSpoolBytes = 64 << 10

// wholePage is the spool bound that never overflows.
const wholePage = -1

// maxPooledSpool caps the capacity of buffers returned to pageBufPool so
// one giant page does not pin memory forever.
const maxPooledSpool = 1 << 20

// copyBufPool provides scratch buffers for body copies (plain passthrough
// and coalesced followers).
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// pageBufPool recycles the page-sized buffers a request on the fragment
// path fills once and is done with: the template read from the origin
// (Proxy.assemble), the look-ahead spool (spoolWriter) and a flight's
// broadcast buffer. A buffer is taken empty and only its filled part is
// ever read, so nothing one request wrote is visible to the next.
var pageBufPool = sync.Pool{New: func() any { return new([]byte) }}

// putPageBuf returns buf, which grew out of *ref, to the pool — unless it
// outgrew maxPooledSpool, which is left to the collector.
func putPageBuf(ref *[]byte, buf []byte) {
	if cap(buf) > maxPooledSpool {
		return
	}
	*ref = buf[:0]
	pageBufPool.Put(ref)
}

// spoolWriter carries one origin-path response to the client, holding back
// up to max bytes. Until the spool overflows nothing — not even response
// headers — has been committed, so the caller can still discard the page
// and fall back. Once committed, writes pass straight through to the client
// and, when the request leads a coalesced flight, are teed into its
// broadcast buffer so followers stream the page live. Bytes still in the
// spool are deliberately not broadcast: an abort-to-bypass must leave
// followers a clean slate.
type spoolWriter struct {
	p  *Proxy
	rs *reqState
	// max bounds the spool; wholePage (negative) holds everything until
	// flush.
	max int
	// clen is the body's length when the origin declared it (plain
	// passthrough), -1 when only a page complete in the spool knows its own.
	clen      int64
	spool     []byte
	spoolRef  *[]byte
	committed bool
	// clientGone flips when the client's write fails while followers are
	// parked on the leader's flight: from then on the source keeps being
	// read and every chunk is broadcast in full, so committed followers
	// receive the complete page instead of an aborted flight. The dead
	// client's writer is still fed (errors ignored) so the page-capture
	// tee stays complete and the fill can happen.
	clientGone bool
}

func (p *Proxy) newSpoolWriter(rs *reqState, max int, clen int64) *spoolWriter {
	s := &spoolWriter{p: p, rs: rs, max: max, clen: clen}
	if max != 0 {
		s.spoolRef = pageBufPool.Get().(*[]byte)
		s.spool = (*s.spoolRef)[:0]
	}
	return s
}

func (s *spoolWriter) Write(b []byte) (int, error) {
	if !s.committed {
		if s.max < 0 || len(s.spool)+len(b) <= s.max {
			s.spool = append(s.spool, b...)
			return len(b), nil
		}
		if err := s.commit(false); err != nil {
			return 0, err
		}
	}
	return s.send(b)
}

// send delivers committed bytes to the client and the flight broadcast.
func (s *spoolWriter) send(b []byte) (int, error) {
	f := s.rs.flight
	if s.clientGone {
		f.append(b)
		_, _ = s.rs.w.Write(b)
		return len(b), nil
	}
	n, err := s.rs.w.Write(b)
	if f == nil {
		return n, err
	}
	f.append(b[:n])
	if (err != nil || n < len(b)) && f.waiterCount() > 0 {
		// The leader's client disconnected mid-body with followers
		// attached: drain the source for them instead of aborting the
		// flight they committed to.
		s.clientGone = true
		s.p.reg.Counter("dpc.coalesce_leader_drains").Inc()
		f.append(b[n:]) // complete the chunk for followers
		return len(b), nil
	}
	return n, err
}

// commit sends response headers and any spooled bytes; from here on a
// failure can only abort the connection. final reports that the page is
// already complete in the spool, so its exact length is known.
func (s *spoolWriter) commit(final bool) error {
	s.committed = true
	s.rs.streamed = true
	h := s.rs.w.Header()
	ctype := s.rs.ctype
	if ctype == "" {
		ctype = "text/html; charset=utf-8"
	}
	// Canonical names, assigned directly: Set would canonicalize each.
	h["Content-Type"] = []string{ctype}
	switch {
	case s.clen >= 0:
		h["Content-Length"] = []string{strconv.FormatInt(s.clen, 10)}
	case final:
		h["Content-Length"] = []string{strconv.Itoa(len(s.spool))}
	}
	h["Via"] = []string{"dpcache-dpc/1.0"}
	h["X-Cache"] = []string{s.rs.cacheState}
	if f := s.rs.flight; f != nil {
		f.publishHeaders(ctype, s.clen)
	}
	s.rs.w.WriteHeader(http.StatusOK)
	if len(s.spool) > 0 {
		_, err := s.send(s.spool)
		s.spool = s.spool[:0]
		if err != nil {
			return err
		}
	}
	return nil
}

// flush finalizes a response whose source ended cleanly, committing the
// spool — or, for an empty body, just the headers — if nothing has been
// sent yet.
func (s *spoolWriter) flush() error {
	if s.committed {
		return nil
	}
	return s.commit(true)
}

// release returns the spool to the pool.
func (s *spoolWriter) release() {
	if s.spoolRef != nil {
		putPageBuf(s.spoolRef, s.spool)
	}
	s.spoolRef, s.spool = nil, nil
}

// relayPlain copies a passthrough body to the client with a pooled buffer
// and no spool, under the origin's own Content-Length. Headers are
// committed at the first body byte — or at clean EOF, so an empty-bodied
// response (HEAD, 0-length GET) still goes out with the origin's declared
// length. An error before any byte still yields a clean 502.
func (p *Proxy) relayPlain(rs *reqState, resp *http.Response) error {
	sw := p.newSpoolWriter(rs, 0, resp.ContentLength)
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	if _, err := io.CopyBuffer(sw, resp.Body, *bufp); err != nil {
		return err
	}
	return sw.flush()
}
