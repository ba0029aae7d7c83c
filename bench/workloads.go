package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"dpcache/internal/fragstore"
	"dpcache/internal/site"
	"dpcache/internal/workload"
)

// The site every workload serves. A page is FragmentsPerPage×FragmentBytes
// = 16 KiB; three quarters of the fragments are tagged, so the tagged
// working set is 12 000 fragments ≈ 11.7 MiB.
var siteConfig = site.SyntheticConfig{
	Pages:            1000,
	FragmentsPerPage: 16,
	FragmentBytes:    1024,
	Cacheability:     0.75,
}

const (
	// slotCapacity is the BEM directory and proxy slot count: room for
	// every tagged fragment, so the BEM never reclaims a slot.
	slotCapacity = 16384
	// zipfAlpha shapes page popularity.
	zipfAlpha = 1.0
	// clients is the closed-loop client count: this box has two cores.
	clients = 2
	// spillBudget is frag_spill's RAM budget: an eighth of the tagged
	// working set.
	spillBudget = 12000 * 1024 / 8
	// userPool and userShare shape write_mix's identity-bearing half.
	userPool  = 50
	userShare = 0.5
	// writeRate is write_mix's fragment-update rate.
	writeRate = 20
	// freshGrace is how long after a write is acknowledged a response
	// may still carry the old version without counting as failed.
	freshGrace = 250 * time.Millisecond
)

// workloadSpec is one named traffic mix with the proxy set-up it runs on.
type workloadSpec struct {
	Name string
	Why  string
	// store is the fragment-store configuration, rendered to dpcd flags
	// for the measured run and passed to fragstore.New for the traced one.
	store fragstore.Config
	// pageCache mounts the whole-page tier (TTL pageTTL).
	pageCache bool
	// writes runs the seeded writer and gives half the GETs an X-User.
	writes bool
	// clientCPU and setupClientCPU are what the harness process — the
	// clients and the oracle, nothing of the repository's — spends per
	// request on an undisturbed host of this kind, in the measured window
	// and in the set-up. The ratio of the measured cost to these is the
	// host's slowdown (README.md, "Host speed").
	clientCPU, setupClientCPU time.Duration
}

const pageTTL = 10 * time.Minute

var workloads = []workloadSpec{
	{
		Name:      "frag_hot",
		Why:       "every request fetches a template and is assembled from RAM fragments: the paper's core case",
		store:     fragstore.Config{Backend: fragstore.BackendSharded, Capacity: slotCapacity},
		clientCPU: 75 * time.Microsecond, setupClientCPU: 75 * time.Microsecond,
	},
	{
		Name:      "page_hot",
		Why:       "every request is a page-tier hit: the proxy's bare per-request cost with origin, assembly and store idle",
		store:     fragstore.Config{Backend: fragstore.BackendSharded, Capacity: slotCapacity},
		pageCache: true,
		clientCPU: 50 * time.Microsecond, setupClientCPU: 65 * time.Microsecond,
	},
	{
		Name: "frag_spill",
		Why:  "frag_hot's requests with RAM for an eighth of the fragments: eviction, demotion, promotion and disk reads",
		store: fragstore.Config{
			Backend: fragstore.BackendTiered, Capacity: slotCapacity,
			ByteBudget: spillBudget, Eviction: "lru",
		},
		clientCPU: 100 * time.Microsecond, setupClientCPU: 105 * time.Microsecond,
	},
	{
		Name:      "write_mix",
		Why:       "half the GETs bypass the page tier while a writer invalidates fragments 20 times a second: fills, drops and coherency",
		store:     fragstore.Config{Backend: fragstore.BackendSharded, Capacity: slotCapacity},
		pageCache: true,
		writes:    true,
		clientCPU: 75 * time.Microsecond, setupClientCPU: 75 * time.Microsecond,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// storeConfig returns the fragment-store configuration with the heap
// file, when the backend has one, placed in dir.
func (w workloadSpec) storeConfig(dir string) fragstore.Config {
	c := w.store
	if c.Backend == fragstore.BackendTiered {
		c.DiskPath = filepath.Join(dir, "front.heap")
	}
	return c
}

// dpcdFlags renders the workload as dpcd command-line flags. Only what
// the workload needs is set; every other knob stays at dpcd's default, so
// a changed default shows in the ledger.
func (w workloadSpec) dpcdFlags(dir string) []string {
	c := w.storeConfig(dir)
	flags := []string{"-capacity", fmt.Sprint(c.Capacity), "-store", c.Backend}
	if c.Eviction != "" {
		flags = append(flags, "-evict", c.Eviction)
	}
	if c.ByteBudget != 0 {
		flags = append(flags, "-store-budget", fmt.Sprint(c.ByteBudget))
	}
	if c.DiskPath != "" {
		flags = append(flags, "-disk-path", c.DiskPath)
	}
	if w.pageCache {
		flags = append(flags, "-pagecache", "-pagecache-ttl", pageTTL.String())
	}
	if w.writes {
		flags = append(flags, "-invalidate")
	}
	return flags
}

// request is one generated GET: a page and, when non-empty, the X-User
// it carries.
type request struct {
	page int
	user string
}

// stream is one client's deterministic request sequence: every draw
// comes from the seed, and the proxy sees only the requests. Page i has
// popularity rank i under every seed. Pages differ in how many of their
// fragments are tagged (1 to 5 of 16 are not), so a seeded popularity
// order would move origin bytes per request by several percent from seed
// to seed and hide a 1 % regression.
type stream struct {
	rng   *rand.Rand
	zipf  *workload.Zipf
	users *workload.UserPool
}

// streamSeed derives an independent generator seed per consumer, so the
// client streams and the write schedule do not share draws.
func streamSeed(seed int64, consumer int) int64 {
	return seed*1000003 + int64(consumer)*7919 + 17
}

func newStream(w workloadSpec, seed int64, client int) *stream {
	zipf, err := workload.NewZipf(siteConfig.Pages, zipfAlpha)
	if err != nil {
		panic(err) // constants above are valid
	}
	share := 0.0
	if w.writes {
		share = userShare
	}
	users, err := workload.NewUserPool(userPool, share)
	if err != nil {
		panic(err)
	}
	return &stream{
		rng:   rand.New(rand.NewSource(streamSeed(seed, client))),
		zipf:  zipf,
		users: users,
	}
}

func (s *stream) next() request {
	return request{page: s.zipf.Sample(s.rng), user: s.users.Pick(s.rng)}
}

// writeSchedule is write_mix's deterministic sequence of fragments to
// update: a popular page, then one of its tagged fragments.
type writeSchedule struct {
	rng    *rand.Rand
	zipf   *workload.Zipf
	tagged []bool
}

func newWriteSchedule(seed int64, tagged []bool) *writeSchedule {
	zipf, err := workload.NewZipf(siteConfig.Pages, zipfAlpha)
	if err != nil {
		panic(err)
	}
	return &writeSchedule{
		rng:    rand.New(rand.NewSource(streamSeed(seed, clients))),
		zipf:   zipf,
		tagged: tagged,
	}
}

func (s *writeSchedule) next() int {
	page := s.zipf.Sample(s.rng)
	for {
		j := page*siteConfig.FragmentsPerPage + s.rng.Intn(siteConfig.FragmentsPerPage)
		if s.tagged[j] {
			return j
		}
	}
}

// streamSHA fingerprints what a seed generates: the first n requests of
// every client stream and the first n scheduled writes.
func streamSHA(w workloadSpec, seed int64, tagged []bool, n int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for c := 0; c < clients; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < n; i++ {
			r := s.next()
			put(r.page)
			h.Write([]byte(r.user))
			h.Write([]byte{0})
		}
	}
	if w.writes {
		ws := newWriteSchedule(seed, tagged)
		for i := 0; i < n; i++ {
			put(ws.next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
