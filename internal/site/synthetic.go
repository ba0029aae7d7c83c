// Package site provides the web applications the experiments and examples
// run: a parameterized synthetic site mirroring the analytical model's
// structure (Table 2), plus three realistic sites drawn from the paper's
// motivating scenarios — a bookstore catalog (Section 4.3.2), a brokerage
// quote page (Section 3.2.1), and a personalized portal (the
// financial-institution case study).
package site

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dpcache/internal/analytical"
	"dpcache/internal/repository"
	"dpcache/internal/script"
)

// SyntheticConfig parameterizes the synthetic site. The defaults mirror
// Table 2.
type SyntheticConfig struct {
	// Pages is the number of distinct pages (Table 2: 10).
	Pages int
	// FragmentsPerPage is the per-page fragment count (Table 2: 4).
	FragmentsPerPage int
	// FragmentBytes is the exact rendered size of each fragment
	// (Table 2: 1KB).
	FragmentBytes int
	// Cacheability is the fraction of fragments tagged cacheable
	// (Table 2: 0.6), realized with analytical.CacheableStripe so the
	// model and the site agree exactly.
	Cacheability float64
	// FragmentSizeFactors, when non-empty, makes rendered fragment sizes
	// heterogeneous: fragment j renders to exactly
	// FragmentBytes × FragmentSizeFactors[j mod len] bytes. Empty keeps
	// Table 2's uniform sizes. Size-aware eviction policies (GDSF) only
	// separate from LRU when sizes vary — the memory experiment uses a
	// heavy-tailed cycle here.
	FragmentSizeFactors []int
	// TTL applies to every cacheable fragment; zero disables time-based
	// expiry (the bandwidth experiments drive invalidation through the
	// BEM's forced-miss hook instead).
	TTL time.Duration
}

// FragmentSize returns fragment j's exact rendered byte size.
func (c SyntheticConfig) FragmentSize(j int) int {
	if len(c.FragmentSizeFactors) == 0 {
		return c.FragmentBytes
	}
	return c.FragmentBytes * c.FragmentSizeFactors[j%len(c.FragmentSizeFactors)]
}

// TotalFragmentBytes is the site's nominal working set: the sum of every
// fragment's rendered size (the budget sweeps are expressed against it).
func (c SyntheticConfig) TotalFragmentBytes() int64 {
	var total int64
	for j := 0; j < c.Pages*c.FragmentsPerPage; j++ {
		total += int64(c.FragmentSize(j))
	}
	return total
}

// maxFragmentSize is the largest FragmentSize of any fragment.
func (c SyntheticConfig) maxFragmentSize() int {
	largest := c.FragmentBytes
	for _, f := range c.FragmentSizeFactors {
		largest = max(largest, c.FragmentBytes*f)
	}
	return largest
}

// DefaultSynthetic returns Table 2's structural settings.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{Pages: 10, FragmentsPerPage: 4, FragmentBytes: 1024, Cacheability: 0.6}
}

// Validate reports nonsensical configurations.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Pages <= 0:
		return fmt.Errorf("site: pages must be positive")
	case c.FragmentsPerPage <= 0:
		return fmt.Errorf("site: fragments per page must be positive")
	case c.FragmentBytes < 16:
		return fmt.Errorf("site: fragment bytes must be >= 16 (room for the fragment header)")
	case c.Cacheability < 0 || c.Cacheability > 1:
		return fmt.Errorf("site: cacheability outside [0,1]")
	}
	for _, f := range c.FragmentSizeFactors {
		if f < 1 {
			return fmt.Errorf("site: fragment size factor %d must be >= 1", f)
		}
	}
	return nil
}

// Manifest records the structure a site builder produced, in the shape the
// analytical model consumes.
type Manifest struct {
	FragmentBytes []float64
	Cacheable     []bool
	Pages         [][]int
}

// Model converts the manifest into an analytical.Model with the given
// header size, tag size, hit ratio, and page-access distribution. This is
// the "Analytical" curve plotted beside measurements in Figures 3(b), 5,
// and 6: same structure, closed-form expectation.
func (m Manifest) Model(headerBytes, tagBytes, hitRatio float64, accessProb []float64) analytical.Model {
	return analytical.Model{
		FragmentBytes: m.FragmentBytes,
		Cacheable:     m.Cacheable,
		Pages:         m.Pages,
		AccessProb:    accessProb,
		HeaderBytes:   headerBytes,
		TagBytes:      tagBytes,
		HitRatio:      hitRatio,
	}
}

const syntheticTable = "synth"

// BuildSynthetic seeds repo with fragment source rows and returns the
// synthetic script plus its manifest. Pages are addressed as
// /page/synth?page=<i>. Every fragment renders to exactly
// cfg.FragmentBytes bytes, so measured byte counts line up with the model.
func BuildSynthetic(cfg SyntheticConfig, repo *repository.Repo) (*script.Script, Manifest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Manifest{}, err
	}
	total := cfg.Pages * cfg.FragmentsPerPage
	man := Manifest{
		FragmentBytes: make([]float64, total),
		Cacheable:     make([]bool, total),
		Pages:         make([][]int, cfg.Pages),
	}
	for j := 0; j < total; j++ {
		man.FragmentBytes[j] = float64(cfg.FragmentSize(j))
		man.Cacheable[j] = analytical.CacheableStripe(j, cfg.Cacheability)
		repo.Put(repository.Key{Table: syntheticTable, Row: fragRow(j)},
			map[string]string{"v": "1"})
	}
	for i := 0; i < cfg.Pages; i++ {
		for k := 0; k < cfg.FragmentsPerPage; k++ {
			man.Pages[i] = append(man.Pages[i], i*cfg.FragmentsPerPage+k)
		}
	}

	// The layout is a pure function of the page number, so each page's
	// block list — names, source rows, render closures — is built once,
	// here, and Layout hands it out for the run to read.
	filler := strings.Repeat(fillerUnit, cfg.maxFragmentSize()/len(fillerUnit)+1)
	layouts := make([][]script.Block, cfg.Pages)
	for i, frags := range man.Pages {
		layouts[i] = make([]script.Block, len(frags))
		for k, j := range frags {
			name := "synthfrag" + strconv.Itoa(j)
			render := syntheticFragment(j, cfg.FragmentSize(j), filler)
			if man.Cacheable[j] {
				layouts[i][k] = script.Tagged(name, cfg.TTL, nil, render)
			} else {
				layouts[i][k] = script.Untagged(name, render)
			}
		}
	}

	sc := &script.Script{
		Name: "synth",
		Layout: func(ctx *script.Context) []script.Block {
			page, err := strconv.Atoi(ctx.Param("page", "0"))
			if err != nil || page < 0 || page >= cfg.Pages {
				page = 0
			}
			return layouts[page]
		},
	}
	return sc, man, nil
}

func fragRow(j int) string { return "f" + strconv.Itoa(j) }

const fillerUnit = "abcdefghijklmnopqrstuvwxyz0123456789"

// syntheticFragment renders fragment j to exactly size bytes: a small
// header identifying the fragment and its source-row version, padded with
// deterministic filler — a prefix of filler, which is fillerUnit repeated
// past size. Everything but the version is fixed when the site is built.
func syntheticFragment(j, size int, filler string) script.RenderFunc {
	row := fragRow(j)
	open := "<!--frag " + strconv.Itoa(j) + " v"
	const end = "-->"
	return func(ctx *script.Context, w io.Writer) error {
		v := ctx.Field(syntheticTable, row, "v", "0")
		head := len(open) + len(v) + len(end)
		if head > size {
			_, err := io.WriteString(w, (open + v + end)[:size])
			return err
		}
		for _, part := range [...]string{open, v, end, filler[:size-head]} {
			if _, err := io.WriteString(w, part); err != nil {
				return err
			}
		}
		return nil
	}
}

// TouchFragment bumps the source row behind fragment j, driving
// data-dependency invalidation (used by freshness experiments).
func TouchFragment(repo *repository.Repo, j int, version string) {
	repo.Put(repository.Key{Table: syntheticTable, Row: fragRow(j)},
		map[string]string{"v": version})
}

// padTo pads s with '·'-free ASCII filler to exactly n bytes (helper for
// the realistic sites, which also want stable sizes).
func padTo(s string, n int) string {
	if len(s) >= n {
		return s[:n]
	}
	var b strings.Builder
	b.WriteString(s)
	const filler = " lorem ipsum dolor sit amet consectetur adipiscing elit"
	for b.Len() < n {
		remaining := n - b.Len()
		if remaining >= len(filler) {
			b.WriteString(filler)
		} else {
			b.WriteString(filler[:remaining])
		}
	}
	return b.String()
}
