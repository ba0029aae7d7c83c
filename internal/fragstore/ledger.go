package fragstore

import "sync/atomic"

// ledger is a store-wide byte-budget account. Shards reserve bytes against
// it when content becomes resident and give them back when it leaves;
// eviction is triggered by *global* pressure (used > budget), never by any
// per-shard partition. This is what lets a pathologically skewed key
// distribution fill one shard with the entire budget without evicting
// while the store as a whole still has headroom.
//
// The account is a single atomic: reserve is wait-free and safe
// to call with or without shard locks held. overBudget is a snapshot —
// concurrent writers may both observe pressure and both evict, so the
// store can transiently dip slightly below budget, but it can never settle
// above it: every byte that became resident was reserved before the
// writer's pressure check.
type ledger struct {
	budget int64        // 0 = unbounded
	used   atomic.Int64 // bytes currently reserved
}

// reserve accounts n more resident bytes; n is negative when an entry
// leaves or an overwrite shrinks it.
func (l *ledger) reserve(n int64) { l.used.Add(n) }

// overBudget reports whether the store currently holds more bytes than the
// budget allows (always false when unbounded).
func (l *ledger) overBudget() bool {
	return l.budget > 0 && l.used.Load() > l.budget
}

// Used returns the bytes currently reserved.
func (l *ledger) Used() int64 { return l.used.Load() }
