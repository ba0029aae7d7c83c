package site

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dpcache/internal/repository"
	"dpcache/internal/script"
)

// PortalConfig shapes the case-study portal: a personalized home page like
// the one at the financial institution where the paper's system was
// deployed. Each registered user has a profile selecting which modules
// appear and in what order — the fully dynamic layout case.
type PortalConfig struct {
	// Users is the registered-user count; user IDs are "u0".."u<n-1>".
	Users int
	// Modules is the size of the content-module pool.
	Modules int
	// ModulesPerPage is how many modules a profile selects.
	ModulesPerPage int
	// ModuleBytes is the rendered size of each module.
	ModuleBytes int
}

// DefaultPortal returns the case-study shape: 50 users choosing 6 of 20
// modules of 2KB each.
func DefaultPortal() PortalConfig {
	return PortalConfig{Users: 50, Modules: 20, ModulesPerPage: 6, ModuleBytes: 2048}
}

// Validate reports nonsensical configurations.
func (c PortalConfig) Validate() error {
	switch {
	case c.Users <= 0 || c.Modules <= 0 || c.ModulesPerPage <= 0:
		return fmt.Errorf("site: portal counts must be positive")
	case c.ModulesPerPage > c.Modules:
		return fmt.Errorf("site: modules per page exceeds module pool")
	case c.ModuleBytes < 32:
		return fmt.Errorf("site: module bytes too small")
	}
	return nil
}

// BuildPortal seeds repo and returns the portal script. Module content is
// shared across users (so fragments are reusable — the portal's win), but
// the greeting is per-user and the layout order is profile-driven.
//
// Pages are addressed as /page/portal with the user on X-User.
func BuildPortal(cfg PortalConfig, repo *repository.Repo) (*script.Script, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	moduleNames := make([]string, cfg.Modules)
	for m := range moduleNames {
		moduleNames[m] = fmt.Sprintf("mod%d", m)
		repo.Put(repository.Key{Table: "modules", Row: moduleNames[m]},
			map[string]string{"title": fmt.Sprintf("Module %d", m), "body": fmt.Sprintf("content of module %d", m)})
	}
	for u := 0; u < cfg.Users; u++ {
		// Deterministic profile: user u takes modules u, u+1, … (mod
		// pool), in rotated order, so layouts differ user to user.
		picks := make([]string, cfg.ModulesPerPage)
		for k := range picks {
			picks[k] = moduleNames[(u+k*3)%cfg.Modules]
		}
		repo.Put(repository.Key{Table: "profiles", Row: fmt.Sprintf("u%d", u)},
			map[string]string{"name": fmt.Sprintf("User %d", u), "modules": strings.Join(picks, ",")})
	}

	moduleBlock := func(name string) script.Block {
		return script.Tagged("portal-"+name, time.Hour, nil,
			func(c *script.Context, w io.Writer) error {
				title := c.Field("modules", name, "title", name)
				body := c.Field("modules", name, "body", "")
				_, err := io.WriteString(w, padTo(
					fmt.Sprintf(`<section><h2>%s</h2><p>%s</p></section>`, title, body), cfg.ModuleBytes))
				return err
			})
	}

	greeting := script.Tagged("portal-greet", 0,
		func(c *script.Context) string { return c.User() },
		func(c *script.Context, w io.Writer) error {
			name := c.Field("profiles", c.User(), "name", c.User())
			_, err := fmt.Fprintf(w, `<header>Welcome back, %s</header>`, name)
			return err
		})

	return &script.Script{
		Name: "portal",
		Layout: func(ctx *script.Context) []script.Block {
			blocks := []script.Block{script.Static("head", "<html><body class=\"portal\">")}
			if ctx.Anonymous() {
				// Anonymous visitors get a default front page.
				blocks = append(blocks, moduleBlock(moduleNames[0]), moduleBlock(moduleNames[1]))
			} else {
				blocks = append(blocks, greeting)
				mods := ctx.Field("profiles", ctx.User(), "modules", moduleNames[0])
				for _, m := range strings.Split(mods, ",") {
					blocks = append(blocks, moduleBlock(m))
				}
			}
			blocks = append(blocks, script.Static("tail", "</body></html>"))
			return blocks
		},
	}, nil
}

// UpdateModule rewrites a module's body, invalidating it for every user
// whose layout includes it.
func UpdateModule(repo *repository.Repo, module int, body string) {
	name := fmt.Sprintf("mod%d", module)
	title := repo.Field(repository.Key{Table: "modules", Row: name}, "title", name)
	repo.Put(repository.Key{Table: "modules", Row: name},
		map[string]string{"title": title, "body": body})
}
