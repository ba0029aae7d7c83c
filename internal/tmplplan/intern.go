package tmplplan

import (
	"strconv"
	"sync"
)

// The ref interner maps packed (key, gen) pairs to their canonical
// "key:gen" strings. A traced assembly names each fragment it resolves in
// a span event, and building that string per event (fmt.Sprintf,
// originally) allocated twice per fragment. Interning makes the traced
// steady state allocation-free: a bounded, sharded map hands back the same
// string forever. An untraced run never asks, so a proxy with tracing off
// holds no ref strings at all.
//
// The table is an optimization, never a correctness surface: a shard that
// reaches its cap is simply cleared (the strings already handed out stay
// valid), so an adversarial key stream costs re-formatting, not memory.

const (
	internShards   = 16
	internShardCap = 4096
)

type internShard struct {
	mu sync.RWMutex
	m  map[uint64]string
}

var interner [internShards]internShard

// RefString returns the canonical "key:gen" string for a fragment ref,
// interned so repeated calls with the same pair return the same string
// without allocating.
func RefString(key, gen uint32) string {
	id := uint64(key)<<32 | uint64(gen)
	sh := &interner[(key^gen)&(internShards-1)]
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	buf := make([]byte, 0, 24)
	buf = strconv.AppendUint(buf, uint64(key), 10)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, uint64(gen), 10)
	s = string(buf)
	sh.mu.Lock()
	if sh.m == nil || len(sh.m) >= internShardCap {
		sh.m = make(map[uint64]string, 64)
	}
	sh.m[id] = s
	sh.mu.Unlock()
	return s
}
