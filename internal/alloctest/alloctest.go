// Package alloctest measures what a piece of code allocates per call, for
// the allocation-budget tests whose budget counts bytes as well as objects
// (testing.AllocsPerRun counts objects only).
package alloctest

import (
	"math"
	"runtime"
)

// PerCall calls f calls times in each of windows windows and returns the
// fewest bytes and the fewest objects a window allocated, per call.
// runtime.MemStats counts the whole process, so a window can also catch an
// allocation of the runtime's or of another goroutine's; the least of the
// windows leaves such strays out, while an allocation f makes on every call
// is in every window. f must do the same work on every call.
func PerCall(windows, calls int, f func()) (bytes, objs float64) {
	bytes, objs = math.Inf(1), math.Inf(1)
	var before, after runtime.MemStats
	for range windows {
		runtime.ReadMemStats(&before)
		for range calls {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(calls))
		objs = min(objs, float64(after.Mallocs-before.Mallocs)/float64(calls))
	}
	return bytes, objs
}
