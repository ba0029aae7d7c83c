package tmplplan

import (
	"strconv"
	"sync"
)

// The ref interner maps packed (key, gen) pairs to their canonical
// "key:gen" strings. The assembler's trace events and the page tier's
// dependency edges both need that string on the hot path, and building it
// per request (fmt.Sprintf, originally) allocated twice per
// fragment. Interning makes the steady state allocation-free: a bounded,
// sharded map hands back the same string forever.
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
// without allocating. The format matches depindex.Ref exactly.
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
