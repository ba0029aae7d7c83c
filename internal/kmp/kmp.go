// Package kmp implements Knuth–Morris–Pratt string matching.
//
// The paper (Section 5) models both the site firewall and the Dynamic Proxy
// Cache as linear-time byte scanners and cites KMP [18] as the canonical
// such algorithm. This package is the firewall's signature matcher. The
// DPC's template-tag scanner (internal/tmpl) meets the same linear bound
// without it: its one pattern, the tag magic, opens with a byte found
// nowhere else in it, so KMP's failure function is all zeros and the
// automaton only looks for that byte and then matches the rest, which
// bytes.IndexByte and a four-byte compare over the buffered window do
// faster than an automaton fed a byte at a time. The Stream
// matcher, for input that arrives in chunks with a match straddling a
// chunk boundary, was that automaton; the decoder's differential test
// keeps it as its reference.
package kmp

// Matcher is a compiled pattern.
type Matcher struct {
	pattern []byte
	fail    []int // classic KMP failure function
}

// Compile builds the failure function for pattern. It panics on an empty
// pattern: matching the empty string everywhere is never what a scanner
// wants and would hide caller bugs.
func Compile(pattern []byte) *Matcher {
	if len(pattern) == 0 {
		panic("kmp: empty pattern")
	}
	p := make([]byte, len(pattern))
	copy(p, pattern)
	fail := make([]int, len(p))
	k := 0
	for i := 1; i < len(p); i++ {
		for k > 0 && p[k] != p[i] {
			k = fail[k-1]
		}
		if p[k] == p[i] {
			k++
		}
		fail[i] = k
	}
	return &Matcher{pattern: p, fail: fail}
}

// Pattern returns a copy of the compiled pattern.
func (m *Matcher) Pattern() []byte {
	p := make([]byte, len(m.pattern))
	copy(p, m.pattern)
	return p
}

// Index returns the index of the first occurrence of the pattern in text,
// or -1 if absent.
func (m *Matcher) Index(text []byte) int {
	k := 0
	for i := 0; i < len(text); i++ {
		for k > 0 && m.pattern[k] != text[i] {
			k = m.fail[k-1]
		}
		if m.pattern[k] == text[i] {
			k++
		}
		if k == len(m.pattern) {
			return i - len(m.pattern) + 1
		}
	}
	return -1
}

// Count returns the number of (possibly overlapping) occurrences of the
// pattern in text.
func (m *Matcher) Count(text []byte) int {
	n, k := 0, 0
	for i := 0; i < len(text); i++ {
		for k > 0 && m.pattern[k] != text[i] {
			k = m.fail[k-1]
		}
		if m.pattern[k] == text[i] {
			k++
		}
		if k == len(m.pattern) {
			n++
			k = m.fail[k-1]
		}
	}
	return n
}

// Stream is an incremental matcher: feed it bytes in arbitrary chunks and it
// reports matches that may straddle chunk boundaries. The zero value is not
// usable; obtain one from Matcher.Stream.
type Stream struct {
	m *Matcher
	k int   // current automaton state
	n int64 // total bytes consumed
}

// Stream returns a fresh incremental matcher for the compiled pattern.
func (m *Matcher) Stream() *Stream { return &Stream{m: m} }

// Feed consumes chunk and returns the offsets (relative to the start of the
// chunk) at which a pattern occurrence *ends*. An ending offset e means the
// match occupies stream positions [pos+e-len(pattern)+1, pos+e] where pos is
// the stream position of the chunk start.
func (s *Stream) Feed(chunk []byte) []int {
	var ends []int
	p, fail := s.m.pattern, s.m.fail
	for i := 0; i < len(chunk); i++ {
		for s.k > 0 && p[s.k] != chunk[i] {
			s.k = fail[s.k-1]
		}
		if p[s.k] == chunk[i] {
			s.k++
		}
		if s.k == len(p) {
			ends = append(ends, i)
			s.k = fail[s.k-1]
		}
	}
	s.n += int64(len(chunk))
	return ends
}

// Consumed reports the total number of bytes fed so far — the scan-cost
// denominator used by the firewall and DPC cost accounting.
func (s *Stream) Consumed() int64 { return s.n }

// Reset returns the stream to its initial state, keeping the pattern.
func (s *Stream) Reset() { s.k, s.n = 0, 0 }

// State exposes the internal automaton state: how many pattern-prefix
// bytes are currently withheld pending more input (a scanner cannot emit
// them as unmatched output yet).
func (s *Stream) State() int { return s.k }
