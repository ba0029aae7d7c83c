package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"dpcache/internal/core"
	"dpcache/internal/dpc"
	"dpcache/internal/netsim"
	"dpcache/internal/pagecache"
	"dpcache/internal/site"
)

// Baselines quantifies Section 3's qualitative comparison on the bookstore
// site with a mixed registered/anonymous population:
//
//   - no cache: every page generated at the origin (correct, expensive);
//   - page-level cache: the paper's flawed baseline — saves bytes but
//     serves wrong pages because the URL does not identify the content;
//   - DPC: fragment caching with dynamic layouts — saves bytes *and*
//     stays correct.
//
// A "wrong page" is one whose greeting does not match the requesting
// user (including any greeting served to an anonymous visitor).
func Baselines(opts Options) (Table, error) {
	opts = opts.withDefaults()
	users := []string{"", "bob", "carol", "dave"}
	names := map[string]string{"bob": "Bob", "carol": "Carol", "dave": "Dave"}
	categories := []string{"Fiction", "Science", "History", "Computing"}

	type outcome struct {
		bytesPerReq int64
		wrongPages  int
		requests    int
	}

	runStrategy := func(strategy string) (outcome, error) {
		mode := core.ModeNoCache
		if strategy == "dpc" {
			mode = core.ModeCached
		}
		sys, err := core.NewSystem(core.Config{
			Capacity:         512,
			Seed:             opts.Seed,
			ExtraHeaderBytes: opts.ExtraHeaderBytes,
			Proxy:            dpc.Config{Strict: true, Transport: newPaperProtocol()},
		}, mode)
		if err != nil {
			return outcome{}, err
		}
		if err := sys.Register(site.BuildBookstore(sys.Repo)); err != nil {
			return outcome{}, err
		}
		if err := sys.Start(); err != nil {
			return outcome{}, err
		}
		defer sys.Close()

		frontURL := sys.FrontURL()
		if strategy == "pagecache" {
			pc, err := pagecache.New(pagecache.Config{
				OriginURL: sys.OriginURL(),
				TTL:       time.Minute,
			})
			if err != nil {
				return outcome{}, err
			}
			front := httptest.NewServer(pc)
			defer front.Close()
			frontURL = front.URL
		}

		rng := rand.New(rand.NewSource(opts.Seed))
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		fetch := func(user, cat string) (string, error) {
			req, err := http.NewRequest(http.MethodGet,
				fmt.Sprintf("%s/page/catalog?categoryID=%s", frontURL, cat), nil)
			if err != nil {
				return "", err
			}
			if user != "" {
				req.Header.Set("X-User", user)
			}
			resp, err := client.Do(req)
			if err != nil {
				return "", err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				return "", fmt.Errorf("status %d err %v", resp.StatusCode, err)
			}
			return string(b), nil
		}

		// Warmup, then measure.
		for i := 0; i < opts.Warmup; i++ {
			if _, err := fetch(users[rng.Intn(len(users))], categories[rng.Intn(len(categories))]); err != nil {
				return outcome{}, err
			}
		}
		sys.Meter.Reset()
		var out outcome
		for i := 0; i < opts.Requests; i++ {
			user := users[rng.Intn(len(users))]
			cat := categories[rng.Intn(len(categories))]
			page, err := fetch(user, cat)
			if err != nil {
				return outcome{}, err
			}
			out.requests++
			if wrongPage(page, user, names) {
				out.wrongPages++
			}
		}
		out.bytesPerReq = netsim.DefaultOverhead().WireBytesOut(sys.Meter) / int64(out.requests)
		return out, nil
	}

	t := Table{
		ID:      "baselines",
		Title:   "Baselines (Section 3): no cache vs page-level cache vs DPC, bookstore with mixed users",
		Columns: []string{"strategy", "origin wire bytes/req", "wrong pages", "requests"},
	}
	for _, strategy := range []string{"nocache", "pagecache", "dpc"} {
		out, err := runStrategy(strategy)
		if err != nil {
			return t, fmt.Errorf("baselines %s: %w", strategy, err)
		}
		t.Rows = append(t.Rows, []string{
			strategy,
			fmt.Sprint(out.bytesPerReq),
			fmt.Sprint(out.wrongPages),
			fmt.Sprint(out.requests),
		})
	}
	t.Notes = append(t.Notes,
		"page-level caching saves origin bytes but serves personalized pages to the wrong users (Section 3.2.1's Bob/Alice failure)",
		"the DPC saves bytes with zero wrong pages: layout is computed per request, only fragments are shared")
	return t, nil
}

// wrongPage checks the greeting against the requesting user.
func wrongPage(page, user string, names map[string]string) bool {
	hasGreeting := strings.Contains(page, "Hello,")
	if user == "" {
		return hasGreeting // anonymous must never see a greeting
	}
	want := fmt.Sprintf("Hello, %s!", names[user])
	if !strings.Contains(page, want) {
		return true // missing or different user's greeting
	}
	// Exactly one greeting, and it must be ours.
	return strings.Count(page, "Hello,") != 1
}
