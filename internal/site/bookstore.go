package site

import (
	"fmt"
	"io"
	"time"

	"dpcache/internal/repository"
	"dpcache/internal/script"
)

// BuildBookstore seeds repo with the www.booksOnline.com content of
// Section 4.3.2 and returns the catalog script. The page layout is
// dynamic: registered users get a personal greeting and a recommendations
// rail that anonymous visitors do not — the Bob/Alice scenario of Section
// 3.2.1 that makes URL-keyed page caches serve wrong pages.
//
// Pages are addressed as /page/catalog?categoryID=<cat>.
func BuildBookstore(repo *repository.Repo) *script.Script {
	categories := map[string][]string{
		"Fiction":   {"The Dispossessed", "Snow Crash", "Middlemarch"},
		"Science":   {"Gödel Escher Bach", "The Selfish Gene"},
		"History":   {"The Guns of August", "SPQR"},
		"Computing": {"TAOCP", "The C Programming Language", "Transaction Processing"},
	}
	for cat, books := range categories {
		repo.Put(repository.Key{Table: "categories", Row: cat},
			map[string]string{"title": cat, "count": fmt.Sprint(len(books))})
		for i, b := range books {
			repo.Put(repository.Key{Table: "books", Row: fmt.Sprintf("%s/%d", cat, i)},
				map[string]string{"title": b, "category": cat})
		}
	}
	for _, u := range []struct{ id, name, likes string }{
		{"bob", "Bob", "Fiction"},
		{"carol", "Carol", "Computing"},
		{"dave", "Dave", "Science"},
	} {
		repo.Put(repository.Key{Table: "users", Row: u.id},
			map[string]string{"name": u.name, "likes": u.likes})
	}

	navBar := script.Tagged("navbar", time.Hour, nil,
		func(ctx *script.Context, w io.Writer) error {
			_, err := io.WriteString(w, padTo(`<nav><a href="/page/catalog?categoryID=Fiction">Fiction</a> | `+
				`<a href="/page/catalog?categoryID=Science">Science</a> | `+
				`<a href="/page/catalog?categoryID=History">History</a> | `+
				`<a href="/page/catalog?categoryID=Computing">Computing</a></nav>`, 512))
			return err
		})

	greeting := script.Tagged("greeting", 0,
		func(c *script.Context) string { return c.User() },
		func(c *script.Context, w io.Writer) error {
			name := c.Field("users", c.User(), "name", c.User())
			_, err := fmt.Fprintf(w, `<div class="greet">Hello, %s!</div>`, name)
			return err
		})

	category := script.Tagged("category", 30*time.Minute,
		func(c *script.Context) string { return c.Param("categoryID", "Fiction") },
		func(c *script.Context, w io.Writer) error {
			cat := c.Param("categoryID", "Fiction")
			row, err := c.Query("categories", cat)
			if err != nil {
				_, werr := fmt.Fprintf(w, `<div class="cat">Unknown category %q</div>`, cat)
				return werr
			}
			n := 0
			fmt.Sscanf(row.Fields["count"], "%d", &n)
			fmt.Fprintf(w, `<div class="cat"><h1>%s</h1><ul>`, row.Fields["title"])
			for i := 0; i < n; i++ {
				title := c.Field("books", fmt.Sprintf("%s/%d", cat, i), "title", "?")
				fmt.Fprintf(w, "<li>%s</li>", title)
			}
			_, err = io.WriteString(w, "</ul></div>")
			return err
		})

	recommendations := script.Tagged("recs", 0,
		func(c *script.Context) string { return c.User() },
		func(c *script.Context, w io.Writer) error {
			likes := c.Field("users", c.User(), "likes", "Fiction")
			top := c.Field("books", likes+"/0", "title", "our bestsellers")
			_, err := fmt.Fprintf(w, `<aside>Because you like %s: %s</aside>`, likes, top)
			return err
		})

	return &script.Script{
		Name: "catalog",
		Layout: func(ctx *script.Context) []script.Block {
			blocks := []script.Block{
				script.Static("head", "<html><head><title>booksOnline</title></head><body>"),
				navBar,
			}
			if !ctx.Anonymous() {
				blocks = append(blocks, greeting)
			}
			blocks = append(blocks, category)
			if !ctx.Anonymous() {
				blocks = append(blocks, recommendations)
			}
			blocks = append(blocks, script.Static("tail", "<footer>© booksOnline 2002</footer></body></html>"))
			return blocks
		},
	}
}
