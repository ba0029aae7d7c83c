// Package dpcache is a proxy-based accelerator for dynamically generated
// web content: a Go implementation of the Dynamic Proxy Cache / Back End
// Monitor architecture of Datta et al., "Proxy-Based Acceleration of
// Dynamically Generated Content on the World Wide Web" (SIGMOD 2002).
//
// The idea: cache dynamic *fragments* at a reverse proxy, but compute the
// page *layout* fresh at the origin on every request. Scripts at the
// origin mark cacheable code blocks with the tagging API; at run time the
// origin emits a small template — literal HTML plus GET("use cached slot
// k") and SET("store this content in slot k") instructions — and the proxy
// splices the page together from its in-memory fragment store. Layout and
// personalization stay fully dynamic while the origin link carries a
// fraction of the bytes.
//
// # Quick start
//
//	sys, _ := dpcache.NewSystem(dpcache.SystemConfig{Capacity: 1024}, dpcache.ModeCached)
//	page := dpcache.NewScript("hello", func(ctx *dpcache.Context) []dpcache.Block {
//		return []dpcache.Block{
//			dpcache.Static("head", "<html>"),
//			dpcache.Tagged("body", time.Minute, nil, renderBody),
//			dpcache.Static("tail", "</html>"),
//		}
//	})
//	sys.Register(page)
//	sys.Start()
//	defer sys.Close()
//	resp, _ := http.Get(sys.FrontURL() + "/page/hello")
//
// See examples/ for complete programs and EXPERIMENTS.md for the paper's
// evaluation regenerated against this implementation.
package dpcache

import (
	"time"

	"dpcache/internal/analytical"
	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/experiments"
	"dpcache/internal/fragstore"
	"dpcache/internal/repository"
	"dpcache/internal/routing"
	"dpcache/internal/script"
	"dpcache/internal/site"
	"dpcache/internal/tmpl"
	"dpcache/internal/workload"
)

// Core system types.
type (
	// System is a wired origin + BEM + DPC deployment.
	System = core.System
	// SystemConfig parameterizes NewSystem: the deployment's own settings
	// plus, by value, the ProxyConfig and StoreConfig every proxy in it
	// is built from (cfg.Proxy.PageCache, cfg.Store.Backend).
	SystemConfig = core.Config
	// ProxyConfig is the Dynamic Proxy Cache's own configuration.
	ProxyConfig = dpc.Config
	// Mode selects cached vs no-cache operation.
	Mode = core.Mode
	// Monitor is the Back End Monitor (cache directory + freeList).
	Monitor = bem.Monitor
	// MonitorStats summarizes BEM activity (hits, misses, evictions…).
	MonitorStats = bem.Stats
	// Proxy is the Dynamic Proxy Cache.
	Proxy = dpc.Proxy
)

// Fragment-store subsystem: the proxy's fragment memory is pluggable (see
// internal/fragstore). Select a backend per system via SystemConfig.Store
// (a StoreConfig), or build one directly with NewFragmentStore.
type (
	// FragmentStore is the fragment-memory contract shared by all
	// backends.
	FragmentStore = fragstore.FragmentStore
	// StoreConfig selects and parameterizes a store backend.
	StoreConfig = fragstore.Config
	// StoreStats is a point-in-time snapshot of store activity.
	StoreStats = fragstore.Stats
	// KeyedStore is the string-keyed, TTL-aware, globally byte-budgeted
	// sharded store backing the static and whole-page cache tiers.
	KeyedStore = fragstore.KeyedStore
	// KeyedStoreConfig parameterizes NewKeyedStore.
	KeyedStoreConfig = fragstore.KeyedConfig
)

// Store backend names for StoreConfig.Backend.
const (
	// StoreBackendSlot is the paper-faithful single-lock slot array.
	StoreBackendSlot = fragstore.BackendSlot
	// StoreBackendSharded is the KeyedStore engine seen through the
	// fragment-store contract: hashed shards, an optional global byte
	// budget, and pluggable eviction ("none", "lru", "gdsf").
	StoreBackendSharded = fragstore.BackendSharded
	// StoreBackendTiered is the same view over the disk-backed two-tier
	// engine: a RAM tier that demotes eviction victims into a heap file
	// (StoreConfig.DiskPath) replayed on restart, so a bounced proxy
	// serves warm. See SystemConfig.DiskDir.
	StoreBackendTiered = fragstore.BackendTiered
)

// NewFragmentStore builds a standalone fragment store (most callers
// instead set SystemConfig.Store.Backend and let the system wire it).
func NewFragmentStore(cfg StoreConfig) (FragmentStore, error) { return fragstore.New(cfg) }

// NewKeyedStore builds a standalone keyed store (the proxy wires its own
// for the static and page tiers; see ProxyConfig.PageCache*).
func NewKeyedStore(cfg KeyedStoreConfig) (*KeyedStore, error) { return fragstore.NewKeyed(cfg) }

// System modes.
const (
	// ModeCached runs the full DPC/BEM pipeline.
	ModeCached = core.ModeCached
	// ModeNoCache serves plain pages through a pass-through proxy (the
	// baseline configuration).
	ModeNoCache = core.ModeNoCache
)

// NewSystem builds a system; Register scripts, then Start it.
func NewSystem(cfg SystemConfig, mode Mode) (*System, error) {
	return core.NewSystem(cfg, mode)
}

// Scripting types: pages as run-time-composed blocks.
type (
	// Script generates one page with a per-request dynamic layout.
	Script = script.Script
	// Block is one code block of a script.
	Block = script.Block
	// Context carries per-request state (params, user, repository).
	Context = script.Context
	// RenderFunc writes a block's output.
	RenderFunc = script.RenderFunc
)

// NewScript builds a script from a name and a layout function.
func NewScript(name string, layout func(*Context) []Block) *Script {
	return &Script{Name: name, Layout: layout}
}

// Tagged marks a code block cacheable — the paper's tagging API. keyParams
// (optional) contributes the parameter list of the fragmentID; ttl zero
// means no time-based expiry.
func Tagged(name string, ttl time.Duration, keyParams func(*Context) string, render RenderFunc) Block {
	return script.Tagged(name, ttl, keyParams, render)
}

// Untagged wraps a non-cacheable code block.
func Untagged(name string, render RenderFunc) Block { return script.Untagged(name, render) }

// Static is an untagged block with fixed output.
func Static(name, html string) Block { return script.Static(name, html) }

// RenderPage runs a script to a full page without any caching — the
// reference output.
func RenderPage(s *Script, ctx *Context) ([]byte, error) { return script.RenderPage(s, ctx) }

// NewContext builds a request context (nil params allowed).
func NewContext(repo *Repo, userID string, params map[string]string) *Context {
	return script.NewContext(repo, userID, params)
}

// Content repository types.
type (
	// Repo is the versioned content repository backing scripts.
	Repo = repository.Repo
	// RepoKey identifies a row; fragments declare these as dependencies.
	RepoKey = repository.Key
	// LatencyModel simulates back-end query delay.
	LatencyModel = repository.LatencyModel
)

// Template codecs.
type (
	// Codec is a template wire format.
	Codec = tmpl.Codec
	// BinaryCodec is the compact production format (~10-byte tags).
	BinaryCodec = tmpl.Binary
	// TextCodec is the human-readable debug format.
	TextCodec = tmpl.Text
)

// Built-in sites (used by the examples and experiments).
var (
	// BuildBookstore seeds a repo and returns the dynamic-layout catalog
	// site of the paper's Section 4.3.2.
	BuildBookstore = site.BuildBookstore
	// BuildBrokerage seeds a repo and returns the stock-quote page of
	// Section 3.2.1 (three fragments, three lifetimes).
	BuildBrokerage = site.BuildBrokerage
	// BuildPortal seeds a repo and returns the case-study portal.
	BuildPortal = site.BuildPortal
	// BuildSynthetic seeds a repo and returns the Table 2-shaped
	// synthetic site plus its structural manifest.
	BuildSynthetic = site.BuildSynthetic
)

// Site configuration re-exports.
type (
	// SyntheticConfig parameterizes BuildSynthetic.
	SyntheticConfig = site.SyntheticConfig
	// PortalConfig parameterizes BuildPortal.
	PortalConfig = site.PortalConfig
)

// DefaultSynthetic mirrors Table 2; DefaultPortal mirrors the case study.
var (
	DefaultSynthetic = site.DefaultSynthetic
	DefaultPortal    = site.DefaultPortal
)

// Forward-proxy extension (paper Section 7).
type (
	// Router routes requests across edge DPCs with session affinity and
	// failover.
	Router = routing.Router
	// CoherencyHub broadcasts BEM invalidations to edge caches.
	CoherencyHub = coherency.Hub
	// Edge is a forward-deployed DPC created by System.StartEdge.
	Edge = core.Edge
	// StoreSubscriber applies hub invalidations to an edge's fragment
	// store.
	StoreSubscriber = coherency.StoreSubscriber
	// TierSubscriber keeps a keyed cache tier (page or static) coherent
	// with the hub via the proxy's dependency index.
	TierSubscriber = coherency.TierSubscriber
	// CoherencyEvent is one typed hub event (fragment, purge, or flush).
	CoherencyEvent = coherency.Event
)

// NewRouter returns an empty edge router.
func NewRouter() *Router { return routing.NewRouter(nil) }

// NewCoherencyHub wires a hub to a system's monitor.
func NewCoherencyHub(mon *Monitor) *CoherencyHub { return coherency.NewHub(mon) }

// NewStoreSubscriber wraps an edge proxy's store for hub subscription.
func NewStoreSubscriber(p *Proxy) *StoreSubscriber {
	return coherency.NewStoreSubscriber(p.Store())
}

// NewPageSubscriber wraps a proxy's whole-page tier (with its dependency
// index) for hub subscription, so fragment invalidations drop dependent
// pages the moment they happen. Returns nil when the proxy runs no page
// tier.
func NewPageSubscriber(p *Proxy) *TierSubscriber {
	pages := p.Pages()
	if pages == nil {
		return nil
	}
	sub := coherency.NewPageSubscriber(pages, p.DepIndex())
	sub.KeyPrefix = dpc.PageKeyPrefix
	return sub
}

// Analytical model (paper Section 5).
type (
	// AnalyticalParams mirrors Table 2.
	AnalyticalParams = analytical.Params
)

// BaselineParams returns Table 2's settings.
func BaselineParams() AnalyticalParams { return analytical.Baseline() }

// Experiments: regenerate the paper's tables and figures.
type (
	// Experiment is a runnable table/figure reproduction.
	ExperimentTable = experiments.Table
	// ExperimentOptions tunes live experiment runs.
	ExperimentOptions = experiments.Options
)

// RunExperiment regenerates one paper artifact by ID (table2, fig2a,
// fig2b, fig3a, result1, fig3b, fig5, fig6, casestudy).
func RunExperiment(id string, opts ExperimentOptions) (ExperimentTable, error) {
	run, err := experiments.ByID(id)
	if err != nil {
		return ExperimentTable{}, err
	}
	return run(opts)
}

// ExperimentIDs lists all regenerable artifacts in presentation order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Workload generation.
type (
	// ZipfSampler draws page ranks with Zipfian popularity.
	ZipfSampler = workload.Zipf
	// LoadDriver issues closed-loop HTTP load.
	LoadDriver = workload.Driver
	// UserPool models the registered/anonymous visitor mix.
	UserPool = workload.UserPool
)

// NewZipf builds a Zipf sampler over n ranks.
func NewZipf(n int, alpha float64) (*ZipfSampler, error) { return workload.NewZipf(n, alpha) }

// NewUserPool builds a visitor population.
func NewUserPool(n int, registeredFraction float64) (*UserPool, error) {
	return workload.NewUserPool(n, registeredFraction)
}
