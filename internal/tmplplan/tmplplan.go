// Package tmplplan is the template assembly engine: it executes template
// streams against a fragment store, as compiled, cached operator programs
// wherever it can.
//
// Decoding a template per request pays the paper's scan cost (z·B_C) every
// time: the byte stream is re-decoded even when the identical template was
// assembled microseconds ago. This package pays the scan once. Compile
// decodes a template into a flat []op program — literal-emit and
// fragment-set ops referencing the plan's own copy of the literal and SET
// bytes (one buffer, copied into as the decoder scans the template where it
// lies, emitted zero-copy at execution, so a plan outlives the buffer its
// template was read into), fragment-get and nested-include ops — and Cache
// keys compiled programs by a strong hash of the template bytes, so an
// origin redeploy that changes the layout naturally misses and recompiles.
//
// The literal/SET/GET/include semantics live in one operator loop
// (execState.run), driven two ways. Exec.Run hands it a cached plan's
// whole program. Exec.RunStream decodes a template it cannot hold — one
// too large to buffer, one whose origin stopped sending, a corrupt one —
// turns each instruction into an operator with the conversion Compile
// uses, and runs it at once, retaining nothing: memory stays O(largest
// instruction), and the SETs ahead of a read or decode error have landed
// when the error surfaces. Both walk in template order, so output bytes,
// Stats counters, Refs/Stale ordering, error text and the "consume all
// SETs even when doomed" invariant are the same whichever driver runs; the
// conformance suite in internal/dpc checks both against the reference
// interpreter in the plantest subpackage. Every fragment GET reads the store
// when the walk reaches it: a read takes about 60 ns from RAM and about a
// microsecond from a pooled disk page, less than starting workers to
// overlap it. A run lends a store that is a fragstore.Reader its scratch
// (fragstore.Scratch): a disk hit the store serves in place is copied into
// it rather than into a slice of its own, so a GET's bytes are valid only
// until the run's next read, and each is written to the page before that
// read. An include's body is read into a slice of its own, since the plan
// cache may keep it. Fragment refs ("key:gen") are interned package-wide so
// no run allocates per-request ref strings for trace events.
package tmplplan

import "errors"

// Ref identifies a fragment slot reference (key + generation). It is the
// element type of Stats.Stale and Stats.Refs; internal/dpc aliases it as
// StaleRef.
type Ref struct {
	Key uint32
	Gen uint32
}

// ErrStale reports that one or more GET (or include) instructions
// referenced slots that are empty or (in strict mode) carry a different
// generation than the template expected. The proxy recovers by
// re-fetching the page with the bypass header, reporting the stale
// references so the BEM invalidates them (see Stats.Stale).
var ErrStale = errors.New("dpc: template references stale or unset slot")

// MaxIncludeDepth bounds nested-include recursion: a template stored as a
// fragment may (transitively) include itself, and without a bound a cycle
// would recurse forever.
const MaxIncludeDepth = 8

// Stats reports what one assembly consumed and produced. internal/dpc
// aliases it as AssembleStats; both drivers fill it with identical values
// for identical inputs (the conformance suite asserts this).
type Stats struct {
	// TemplateBytes is the template stream size — the bytes that crossed
	// the origin↔DPC link and were scanned for tags (the z·B_C term of
	// the paper's scan-cost analysis). Nested-include bodies come from
	// the fragment store, not that link, so they are not counted.
	TemplateBytes int64
	// PageBytes is the assembled page size delivered to the client.
	PageBytes int64
	Gets      int
	Sets      int
	Literals  int
	// Includes counts nested-include instructions executed (at any
	// depth).
	Includes int
	// Stale lists GET references that could not be satisfied. When
	// non-empty the page output is unusable and execution returns
	// ErrStale — but the template was still consumed to the end, so
	// every SET it carried has been applied to the store. (Aborting at
	// the first bad GET would discard those SETs while the directory
	// already believes them cached, wedging the fragments into a
	// permanent fallback loop.)
	Stale []Ref
	// Refs lists the unique fragment references (SETs, satisfied GETs,
	// and satisfied includes) whose content flowed into the page — the
	// dependency edges the invalidation fabric records, so a later
	// invalidation of any of them can drop the cached page.
	Refs []Ref
}
