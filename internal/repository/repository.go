// Package repository is the content-repository substrate: the stand-in for
// the Oracle 8.1.6 database behind the test site in the paper's Section 6
// and for the CMS/DBMS tier of Figure 1.
//
// It is an in-memory store of versioned rows organized into tables, with
//
//   - a configurable per-query latency model (content generation delay is
//     one of the server-side bottlenecks the paper catalogs in Section 2.2),
//   - an update bus: every write publishes an event, which is how the BEM's
//     invalidation manager learns that fragments depending on that row are
//     stale ("updates to the underlying data sources", Section 4.3.3).
package repository

import (
	"fmt"
	"sync"
	"time"

	"dpcache/internal/metrics"
)

// Key identifies a row: a (table, primary key) pair. Fragments declare
// their data dependencies as sets of Keys.
type Key struct {
	Table string
	Row   string
}

// String renders the key as table/row.
func (k Key) String() string { return k.Table + "/" + k.Row }

// Row is a versioned record. Fields maps column name to value.
type Row struct {
	Fields  map[string]string
	Version uint64
}

// UpdateEvent describes one committed write.
type UpdateEvent struct {
	Key     Key
	Version uint64
	Deleted bool
}

// LatencyModel simulates query processing delay. QueryDelay is charged per
// Get; UpdateDelay per write. Zero values disable sleeping, which is what
// the bandwidth experiments use (they measure bytes, not time); the
// response-time case study sets these to emulate the multi-tier workflow of
// Figure 1.
type LatencyModel struct {
	QueryDelay  time.Duration
	UpdateDelay time.Duration
}

// Repo is an in-memory versioned table store. It is safe for concurrent
// use.
type Repo struct {
	mu      sync.RWMutex
	tables  map[string]map[string]Row
	lat     LatencyModel
	version uint64 // global monotonically increasing commit counter

	subMu sync.RWMutex
	subs  []func(UpdateEvent)

	queries *metrics.Counter
	updates *metrics.Counter
}

// New returns an empty repository using the given latency model.
func New(lat LatencyModel) *Repo {
	return &Repo{
		tables:  make(map[string]map[string]Row),
		lat:     lat,
		queries: &metrics.Counter{},
		updates: &metrics.Counter{},
	}
}

// SetLatency replaces the latency model (used by experiments to switch a
// built site between bandwidth and response-time modes).
func (r *Repo) SetLatency(lat LatencyModel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat = lat
}

// Subscribe registers fn to be called synchronously with every committed
// update. Subscribers must be fast and must not call back into the Repo's
// write methods.
func (r *Repo) Subscribe(fn func(UpdateEvent)) {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	r.subs = append(r.subs, fn)
}

func (r *Repo) publish(ev UpdateEvent) {
	r.subMu.RLock()
	subs := r.subs
	r.subMu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Put upserts a row and returns its new version. The update bus fires
// after the write commits.
func (r *Repo) Put(k Key, fields map[string]string) uint64 {
	// Charge the simulated update latency before taking the table
	// lock, mirroring Get: the delay models query processing, and
	// sleeping under the lock would serialize every unrelated read and
	// write behind one slow update.
	if r.lat.UpdateDelay > 0 {
		time.Sleep(r.lat.UpdateDelay)
	}
	r.mu.Lock()
	t, ok := r.tables[k.Table]
	if !ok {
		t = make(map[string]Row)
		r.tables[k.Table] = t
	}
	r.version++
	v := r.version
	cp := make(map[string]string, len(fields))
	for fk, fv := range fields {
		cp[fk] = fv
	}
	t[k.Row] = Row{Fields: cp, Version: v}
	r.mu.Unlock()
	r.updates.Inc()
	r.publish(UpdateEvent{Key: k, Version: v})
	return v
}

// Delete removes a row if present; the update bus fires either way so that
// dependent fragments are conservatively invalidated.
func (r *Repo) Delete(k Key) {
	r.mu.Lock()
	if t, ok := r.tables[k.Table]; ok {
		delete(t, k.Row)
	}
	r.version++
	v := r.version
	r.mu.Unlock()
	r.updates.Inc()
	r.publish(UpdateEvent{Key: k, Version: v, Deleted: true})
}

// ErrNotFound reports a missing row.
type ErrNotFound struct{ Key Key }

func (e ErrNotFound) Error() string { return fmt.Sprintf("repository: %s not found", e.Key) }

// Get returns a copy of the row at k, charging the query latency.
func (r *Repo) Get(k Key) (Row, error) {
	r.mu.RLock()
	lat := r.lat.QueryDelay
	row, ok := r.tables[k.Table][k.Row]
	var cp Row
	if ok {
		cp = Row{Fields: make(map[string]string, len(row.Fields)), Version: row.Version}
		for fk, fv := range row.Fields {
			cp.Fields[fk] = fv
		}
	}
	r.mu.RUnlock()
	r.chargeQuery(lat)
	if !ok {
		return Row{}, ErrNotFound{Key: k}
	}
	return cp, nil
}

// chargeQuery accounts for one query: its simulated delay, taken outside
// the table lock, and the query counter.
func (r *Repo) chargeQuery(lat time.Duration) {
	if lat > 0 {
		time.Sleep(lat)
	}
	r.queries.Inc()
}

// Field returns a single column, or def when the row or column is missing.
// It is one query, as Get is, but reads the column in place under the read
// lock where Get copies the row for its caller to keep.
func (r *Repo) Field(k Key, column, def string) string {
	r.mu.RLock()
	lat := r.lat.QueryDelay
	v, ok := r.tables[k.Table][k.Row].Fields[column]
	r.mu.RUnlock()
	r.chargeQuery(lat)
	if !ok {
		return def
	}
	return v
}

// Version returns the current version of row k, or 0 when absent. It does
// not charge query latency (the BEM uses it for cheap staleness probes).
func (r *Repo) Version(k Key) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tables[k.Table][k.Row].Version
}

// Scan returns the row keys of a table in unspecified order.
func (r *Repo) Scan(table string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.tables[table]
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of rows in a table.
func (r *Repo) Len(table string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tables[table])
}

// QueryCount reports the total number of Get calls served.
func (r *Repo) QueryCount() int64 { return r.queries.Value() }

// UpdateCount reports the total number of committed writes.
func (r *Repo) UpdateCount() int64 { return r.updates.Value() }
