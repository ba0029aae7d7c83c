// Command dpcd runs the Dynamic Proxy Cache as a standalone reverse
// proxy in front of an origind instance.
//
//	dpcd -addr :9090 -origin http://127.0.0.1:8080
//
// The fragment store backend is selectable: the default "slot" backend is
// the paper's slot array under one lock. "-store sharded" partitions the
// locks (-shards, 16 by default). Without a byte budget it is the same
// array over that many lock stripes: it can never evict, so it keeps no
// eviction state:
//
//	dpcd -store sharded -shards 32
//
// With -store-budget it mounts the keyed storage engine the whole-response
// tier already uses (hashed shards, per-shard locks) and evicts by the
// policy -evict names (lru or gdsf; required with a budget, refused
// without one). The budget is one global ledger shared by all shards:
// eviction fires only when the store as a whole is over, so skewed key
// distributions do not evict early, and it takes the globally coldest
// entry first:
//
//	dpcd -store sharded -shards 32 -store-budget 67108864 -evict gdsf
//
// "-store tiered" mounts the same engine over a disk tier: the RAM tier
// is bounded by -store-budget, and instead of dropping its
// eviction victims it demotes them into a page-structured heap file
// (-disk-path, bounded by -disk-budget) behind a pinning buffer pool.
// Disk hits are copied into RAM and keep their disk copy, so evicting
// them again writes nothing, and a restart replays the heap
// file — discarding torn or checksum-bad pages — so a bounced proxy
// serves warm instead of cold. Disk-tier activity is published under
// dpc.store.disk_* (docs/METRICS.md):
//
//	dpcd -store tiered -store-budget 67108864 -evict lru \
//	     -disk-path /var/cache/dpcd.heap -disk-budget 1073741824
//
// The request path is a staged pipeline (admin, pagecache, admission,
// coalesce, origin-fetch, assemble, stale-fallback, respond) with
// per-stage latency histograms served from /_dpc/stats. Single-flight
// coalescing of identical in-flight origin fetches (-coalesce) is on by
// default. Coalesced followers attach to the leader's in-progress
// broadcast and stream it live; -coalesce-buffer caps the per-flight
// replay buffer, past which late joiners fetch for themselves.
//
// Every origin response reaches the client through one writer. An
// assembled page is held in a look-ahead spool (-spool, 64 KiB by
// default) so that staleness found in its head can still fall back to a
// clean bypass fetch; a page that fits is sent complete with its
// Content-Length, a longer one streams from there on. -spool -1 holds
// every page whole, as the paper's proxy did:
//
//	dpcd -coalesce=false -spool -1   # paper-faithful whole-page path
//
// The whole-response tier is always mounted: a plain response the origin
// marks Cache-Control: max-age (an asset; never an assembled page) is
// cached that long in 1024 entries, served with X-Cache: STATIC.
// -pagecache adds the page rule to it: complete responses to
// anonymous-session GETs (no Cookie, Authorization, or X-User header) are
// cached for -pagecache-ttl — keyed like a coalesced fetch: URI, method,
// forwarded variant headers — and served with X-Cache: PAGE, so a burst on
// a hot page costs one origin fetch. -pagecache-entries and
// -pagecache-budget bound the tier under both rules, and -pagecache-ttl
// also caps every template lease's term, so all three apply with or
// without -pagecache. Like -coalesce, the page key excludes the per-client
// X-Forwarded-For, so origins that vary responses on client IP must not
// enable it:
//
//	dpcd -pagecache -pagecache-ttl 2s -pagecache-entries 4096
//
// Tier entries are stamped with a strong ETag; revalidations with a
// matching If-None-Match are answered 304 with no body. Freshness beyond
// the TTL comes from the invalidation fabric. dpcd pulls it by default: at
// start it polls the origin's event stream (/_dpc/events, which origind
// serves in cached mode) and, on the first answer, sets its cursor to the
// hub's sequence before it listens, so it asks for template leases from its
// first request. Each event applies to every tier — a fragment invalidation
// drops the slot and raises its floor. Every whole-response entry carries
// the fragment generations it was built from, and a read that finds one
// below its floor drops the entry instead of serving it, so a write never
// costs more than its own pages. A write at the origin returns once dpcd
// has acked its event, or once the hub's bound (2s) has dropped a silent
// dpcd; dpcd stops leasing before that bound can pass without an answer,
// and a dropped dpcd's next poll is a gap, which flushes every tier. An
// origin that answers 404 there, or another client error, or a page that
// is not JSON (origind -mode plain, any origin that is not a DPC origin),
// leaves dpcd on the paper's protocol: every request asks the origin. An
// origin that cannot be reached at start is polled again, less and less
// often; once its stream has answered, a failed poll of any kind is
// retried. The start-up banner names which.
//
// -invalidate is the push alternative, and turns the pull off (two hubs
// number events independently, and one cursor cannot follow both): it
// mounts /_dpc/invalidate, where a hub-side coherency.RemoteSubscriber
// POSTs the BEM's events. The endpoint is an unauthenticated write surface
// on the serving listener (a forged event or sequence gap forces
// conservative tier flushes), so it is off by default: enable it only where
// the listener is reachable solely by the hub side.
//
// Each distinct template body that can recur (one carrying no SET) is
// compiled into a cached operator program keyed by content hash: repeat
// assemblies skip the per-request template decode. Fragment GETs resolve
// in template order. A template that cannot be a cached plan
// (larger than 8 MiB, cut short by the origin, or corrupt) runs through
// the same operators straight off the decoder. Origin redeploys change the
// template bytes and miss naturally; plan-cache activity is served under
// dpc.plancache_* and the plancache section of /_dpc/stats.
//
// Store occupancy, byte, and eviction metrics are served from
// /_dpc/stats, refreshed in the background every -publish interval and,
// with -status, logged periodically. The same metric surface is served
// in Prometheus text exposition format from /_dpc/metrics.
//
// -trace enables request-scoped tracing (docs/OBSERVABILITY.md): each
// request carries a span tree — one span per pipeline stage, one per
// fragment resolved — annotated with tier hit/miss decisions, coalesce
// roles, and stale-bypass causes. Traces are sampled (every
// -trace-sample'th request, plus everything at least -trace-slow, which
// also emits a one-line slow-request log) into a -trace-ring-bounded
// ring served newest-first from /_dpc/trace (?min_ms= filters). Trace
// ids propagate across proxy hops via the X-DPC-Trace header, and
// sampled responses are stamped with X-DPC-Trace-Id:
//
//	dpcd -trace -trace-sample 16 -trace-slow 100ms
//
// -admission mounts the overload valve between the cache tiers and the
// origin path: under pressure it serves an expired tier entry (X-Cache:
// STALE, refreshed by one background revalidation) or sheds with a fast
// 503 + Retry-After instead of queueing on the origin. Its signals are
// the origin in-flight bound (-admission-inflight), the bound per X-User
// tenant (-admission-tenant-inflight), the followers one coalesce flight
// may hold (-admission-queue), the origin-latency EWMA
// (-admission-shed-latency) and the negative cache of recent origin
// failures (-admission-neg-ttl). Each is there because an overload run
// shows that removing it changes an outcome (docs/ARCHITECTURE.md).
// -admission-stale-window and -admission-retry-after shape the answers:
//
//	dpcd -admission -admission-inflight 64 -admission-queue 256
//
// -pprof mounts net/http/pprof under /_dpc/pprof/ for CPU, heap, and
// contention profiles (an unauthenticated diagnostic surface on the
// serving listener, so off by default).
//
// Every flag but -addr, -invalidate and -status is bound to a field of
// dpc.Config or fragstore.Config (README's "Configuration knobs" lists
// which). A tuning flag of a stage that is not mounted — -admission-* or
// -trace-* without -admission or -trace — selects nothing, and dpcd exits
// naming it. The whole-response tier is always mounted, so -pagecache-*
// needs no -pagecache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
)

// options is what the command line sets: the proxy's and the store's own
// configs, each flag bound straight to its field, plus the three settings
// that belong to the daemon rather than to either library.
type options struct {
	proxy dpc.Config
	store fragstore.Config

	addr       string
	invalidate bool
	status     time.Duration
}

// bindFlags declares dpcd's flags on fs, each writing into the returned
// options. The proxy config starts from the daemon's defaults: strict
// assembly and coalescing on.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{proxy: dpc.Config{
		Stream: true, // dpc.Config.Stream: false would mean StreamSpoolBytes < 0
	}}
	p, s := &o.proxy, &o.store
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9090", "listen address")
	fs.StringVar(&p.OriginURL, "origin", "http://127.0.0.1:8080", "origin base URL")
	fs.IntVar(&s.Capacity, "capacity", 4096, "fragment slot capacity (match origin's BEM)")
	fs.BoolVar(&p.Strict, "strict", true, "generation-checked assembly with bypass recovery")
	fs.StringVar(&s.Backend, "store", fragstore.BackendSlot, "fragment store backend: slot (the slot array under one lock), sharded (the array over -shards lock stripes; with -store-budget, the evicting engine), or tiered (the engine over a disk tier)")
	fs.IntVar(&s.Shards, "shards", 0, "sharded and tiered stores: lock partitions, rounded to a power of two (0 = 16): the array's lock stripes, or the engine's shards")
	fs.Int64Var(&s.ByteBudget, "store-budget", 0, "sharded and tiered stores: resident fragment byte budget in RAM, one global ledger (0 = unbounded; sharded requires -evict with it)")
	fs.StringVar(&s.Eviction, "evict", "none", "sharded and tiered stores: eviction policy when over -store-budget, globally coldest first: none, lru, or gdsf (sharded refuses a policy without a budget)")
	fs.StringVar(&s.DiskPath, "disk-path", "", "tiered store: heap-file path, replayed on restart so the proxy serves warm (required with -store tiered)")
	fs.Int64Var(&s.DiskBudget, "disk-budget", 0, "tiered store: disk-resident byte budget; over it the disk tier drops LRU victims (0 = unbounded)")
	fs.IntVar(&s.DiskPageBytes, "disk-page-bytes", 0, "tiered store: heap-file page size in bytes (0 = 32KiB default; changing it invalidates the file)")
	fs.BoolVar(&p.Coalesce, "coalesce", true, "collapse concurrent identical origin fetches into one (single-flight)")
	fs.IntVar(&p.CoalesceBufferBytes, "coalesce-buffer", 0, "per-flight broadcast buffer cap in bytes before late joiners re-fetch (0 = 4MiB default)")
	fs.IntVar(&p.StreamSpoolBytes, "spool", 0, "look-ahead spool an assembled page is held in before its headers are committed, in bytes (0 = 64KiB default; negative = hold the whole page)")
	fs.BoolVar(&p.PageCache, "pagecache", false, "add the page rule to the whole-response tier: whole pages for anonymous-session GETs (X-Cache: PAGE)")
	fs.DurationVar(&p.PageCacheTTL, "pagecache-ttl", 0, "page-rule freshness window, and the cap on every template lease's term (0 = 2s default)")
	fs.IntVar(&p.PageCacheEntries, "pagecache-entries", 0, "whole-response tier resident entry bound, both rules (0 = 1024 default)")
	fs.Int64Var(&p.PageCacheBudget, "pagecache-budget", 0, "whole-response tier resident byte bound, both rules (0 = unbounded)")
	fs.BoolVar(&o.invalidate, "invalidate", false, "take the fabric's events by push instead of pulling the origin's stream: mount /_dpc/invalidate, where a hub-side subscriber POSTs them to every cache tier (unauthenticated write endpoint on the serving listener — enable only where the hub side is the sole client)")
	fs.DurationVar(&p.PublishInterval, "publish", 10*time.Second, "background dpc.store.* gauge refresh interval (0 = disabled)")
	fs.DurationVar(&o.status, "status", 0, "log store status at this interval (0 = disabled)")
	fs.BoolVar(&p.Trace, "trace", false, "request-scoped tracing: per-stage spans and decision events, captured to /_dpc/trace")
	fs.IntVar(&p.TraceSampleEvery, "trace-sample", 0, "capture every Nth trace into the ring (0 = 64 default; slow requests always captured)")
	fs.DurationVar(&p.TraceSlow, "trace-slow", 0, "always capture and log requests at least this slow (0 = 250ms default, negative = disabled)")
	fs.IntVar(&p.TraceRingSize, "trace-ring", 0, "captured-trace ring size served by /_dpc/trace (0 = 256 default)")
	fs.BoolVar(&p.Pprof, "pprof", false, "mount net/http/pprof under /_dpc/pprof/ (exposes runtime profiles on the serving listener)")
	fs.BoolVar(&p.Admission, "admission", false, "admission control: under origin pressure serve stale from the cache tiers or shed with 503 + Retry-After instead of queueing")
	fs.IntVar(&p.MaxOriginInFlight, "admission-inflight", 0, "admission: max concurrent origin-bound requests (0 = unbounded)")
	fs.IntVar(&p.MaxTenantInFlight, "admission-tenant-inflight", 0, "admission: max concurrent origin-bound requests per X-User tenant (0 = unbounded)")
	fs.IntVar(&p.MaxFlightWaiters, "admission-queue", 0, "admission: max followers parked on one coalesce flight before shedding (0 = unbounded)")
	fs.DurationVar(&p.ShedLatency, "admission-shed-latency", 0, "admission: origin latency EWMA past which stale serving is preferred (0 = signal off)")
	fs.DurationVar(&p.StaleWindow, "admission-stale-window", 0, "admission: how far past TTL a cache entry may be served under pressure (0 = 30s default)")
	fs.DurationVar(&p.NegTTL, "admission-neg-ttl", 0, "admission: negative-cache lifetime of origin failures (0 = 1s default)")
	fs.DurationVar(&p.RetryAfter, "admission-retry-after", 0, "admission: Retry-After hint on shed 503s (0 = 1s default)")
	return o
}

// parseFlags reads the command line into options. A flag named
// "-<stage>-*" tunes an optional stage (admission, trace) and selects
// nothing unless "-<stage>" mounts it ("-admission-inflight 64" alone would
// protect nothing and say nothing), so it is refused. The whole-response
// tier is always mounted: -pagecache adds a rule to it, and its tuning
// flags take effect without that rule.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	mounted := map[string]bool{"admission": o.proxy.Admission, "trace": o.proxy.Trace}
	var err error
	fs.Visit(func(f *flag.Flag) {
		stage, _, tunes := strings.Cut(f.Name, "-")
		if on, optional := mounted[stage]; tunes && optional && !on && err == nil {
			err = fmt.Errorf("-%s has no effect without -%s", f.Name, stage)
		}
	})
	if err != nil {
		return nil, err
	}
	o.proxy.Capacity = o.store.Capacity
	if o.proxy.PublishInterval <= 0 {
		o.proxy.PublishInterval = -1 // dpc: negative disables the background publisher
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("dpcd: %v", err)
	}
	store, err := fragstore.New(o.store)
	if err != nil {
		log.Fatal(err)
	}
	o.proxy.Store = store
	proxy, err := dpc.New(o.proxy)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	fabric := subscribe(ctx, proxy, o)
	st := store.Stats()
	fmt.Printf("dpcd: proxying %s on %s (capacity %d, strict=%v, coalesce=%v, spool=%d, pagecache=%v)\n",
		o.proxy.OriginURL, o.addr, o.store.Capacity, o.proxy.Strict, o.proxy.Coalesce, o.proxy.StreamSpoolBytes, o.proxy.PageCache)
	fmt.Printf("dpcd: %s store, %d shard(s), byte budget %d, eviction %s; status at http://%s/_dpc/stats\n",
		st.Backend, st.Shards, st.ByteBudget, o.store.Eviction, o.addr)
	fmt.Printf("dpcd: fabric: %s\n", fabric)
	if ts, ok := fragstore.DiskStats(store); ok {
		ds := ts.Disk
		fmt.Printf("dpcd: disk tier %s: %d entries (%d bytes) replayed warm, %d torn/bad pages discarded, byte budget %d\n",
			o.store.DiskPath, ds.RecoveredEntries, ds.Bytes, ds.ChecksumDiscards, ds.ByteBudget)
	}
	if o.status > 0 {
		go func() {
			for range time.Tick(o.status) {
				s := store.Stats()
				log.Printf("store: resident=%d/%d bytes=%d sets=%d hits=%d misses=%d drops=%d evictions=%d evicted_bytes=%d",
					s.Resident, s.Capacity, s.Bytes, s.Sets, s.Hits, s.Misses, s.Drops, s.Evictions, s.EvictedBytes)
			}
		}()
	}
	// SIGINT/SIGTERM shut down cleanly so a disk-backed store drains its
	// RAM tier to the heap file and the next start replays it warm; a
	// hard kill instead restarts with whatever had already demoted
	// (append-then-commit keeps the file itself consistent either way).
	srv := &http.Server{Addr: o.addr, Handler: proxy}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("dpcd: %v: shutting down", sig)
		stop()
		srv.SetKeepAlivesEnabled(false)
		_ = srv.Close()
		_ = proxy.Close()
		if c, ok := store.(io.Closer); ok {
			if err := c.Close(); err != nil {
				log.Fatalf("dpcd: store close: %v", err)
			}
		}
	}
}

// subscribe puts the proxy on the invalidation fabric and says how, for
// the start-up banner. With -invalidate a hub-side
// coherency.RemoteSubscriber POSTs events to /_dpc/invalidate. Otherwise
// the proxy joins its origin's event stream, before it serves a request,
// and follows it until ctx ends; an origin with no stream leaves it off the
// fabric.
func subscribe(ctx context.Context, proxy *dpc.Proxy, o *options) string {
	if o.invalidate {
		proxy.HandleAdmin("/_dpc/invalidate", coherency.Handler(proxy))
		return "push via -invalidate (/_dpc/invalidate); the origin's stream is not pulled"
	}
	err := proxy.Join(ctx)
	if errors.Is(err, coherency.ErrNoStream) {
		return "none: the origin has no stream; every request asks the origin"
	}
	go func() {
		if err := proxy.Follow(ctx); err != nil {
			log.Printf("dpcd: %s serves no event stream (%v): every request asks the origin", o.proxy.OriginURL, err)
		}
	}()
	how := "pull from " + o.proxy.OriginURL + coherency.EventsPath
	if err != nil {
		how += fmt.Sprintf(" (no answer yet: %v; retrying)", err)
	}
	return how
}
