package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcache/internal/bem"
	"dpcache/internal/coherency"
	"dpcache/internal/dpc"
	"dpcache/internal/fragstore"
	"dpcache/internal/origin"
	"dpcache/internal/repository"
	"dpcache/internal/tmpl"
)

func parse(t *testing.T, args ...string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("dpcd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("dpcd %v: %v", args, err)
	}
	return o, fs
}

// With no flags dpcd runs the library's zero config except for what the
// daemon has always turned on.
func TestNoFlagsIsTheDefaultConfig(t *testing.T) {
	o, _ := parse(t)
	wantProxy := dpc.Config{
		OriginURL:       "http://127.0.0.1:8080",
		Capacity:        4096,
		Codec:           tmpl.Binary{},
		Strict:          true,
		Coalesce:        true,
		Stream:          true,
		PublishInterval: 10 * time.Second,
	}
	wantStore := fragstore.Config{Backend: "slot", Capacity: 4096, Eviction: "none"}
	if !reflect.DeepEqual(o.proxy, wantProxy) {
		t.Errorf("proxy config:\n got %+v\nwant %+v", o.proxy, wantProxy)
	}
	if o.store != wantStore {
		t.Errorf("store config:\n got %+v\nwant %+v", o.store, wantStore)
	}
	if o.addr != "127.0.0.1:9090" || o.invalidate || o.status != 0 {
		t.Errorf("daemon settings: addr=%q invalidate=%v status=%v", o.addr, o.invalidate, o.status)
	}
	if off, _ := parse(t, "-publish", "0"); off.proxy.PublishInterval >= 0 {
		t.Errorf("-publish 0 left PublishInterval %v, want negative (disabled)", off.proxy.PublishInterval)
	}
}

// libraryOnly names every config field no flag reaches, with why. A field
// added to dpc.Config or fragstore.Config must get a flag or a line here.
var libraryOnly = map[string]string{
	"Proxy.Capacity":       "parseFlags copies -capacity from Store.Capacity",
	"Proxy.Store":          "dpcd builds it from the store flags",
	"Proxy.Stream":         "selects no code; always true (bench/ names it)",
	"Proxy.PlanCache":      "selects no code (bench/ names it)",
	"Proxy.PageCacheStore": "a prebuilt page-tier backend: programs and tests only",
	"Proxy.Transport":      "tests inject it",
	"Proxy.Registry":       "the proxy makes its own",
	"Proxy.Tracer":         "core shares one across proxies; dpcd runs one proxy",
	"Proxy.Clock":          "tests",
}

// daemonOnly names the flags that set the daemon's own behaviour and no
// config field.
var daemonOnly = map[string]bool{"addr": true, "invalidate": true, "status": true}

// configFields flattens both configs to "Proxy.Strict" → its value.
func configFields(o *options) map[string]string {
	out := map[string]string{}
	for prefix, v := range map[string]reflect.Value{"Proxy.": reflect.ValueOf(o.proxy), "Store.": reflect.ValueOf(o.store)} {
		for i := 0; i < v.NumField(); i++ {
			out[prefix+v.Type().Field(i).Name] = fmt.Sprintf("%#v", v.Field(i).Interface())
		}
	}
	return out
}

// otherValue is a value of the flag's type that is not its default.
func otherValue(t *testing.T, f *flag.Flag) string {
	if s, ok := map[string]string{
		"addr": "0.0.0.0:1", "origin": "http://origin:1", "codec": "text",
		"store": "sharded", "evict": "lru", "disk-path": "/var/cache/x.heap",
	}[f.Name]; ok {
		return s
	}
	switch f.Value.(flag.Getter).Get().(type) {
	case bool:
		return fmt.Sprint(f.DefValue != "true")
	case int, int64:
		return "7"
	case time.Duration:
		return "7s"
	}
	t.Fatalf("-%s: no non-default value known for a %T flag", f.Name, f.Value)
	return ""
}

// flagFields sets each flag alone (beside the switch that mounts its stage)
// and returns the one config field it moved.
func flagFields(t *testing.T) map[string]string {
	_, fs := parse(t)
	moved := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		var args []string
		if stage, _, tunes := strings.Cut(f.Name, "-"); tunes && (stage == "admission" || stage == "pagecache" || stage == "trace") {
			args = []string{"-" + stage}
		}
		base, _ := parse(t, args...)
		set, _ := parse(t, append(args, "-"+f.Name+"="+otherValue(t, f))...)
		before, after := configFields(base), configFields(set)
		var changed []string
		for name := range before {
			if before[name] != after[name] && name != "Proxy.Capacity" {
				changed = append(changed, name)
			}
		}
		sort.Strings(changed)
		switch {
		case daemonOnly[f.Name] && len(changed) == 0:
		case !daemonOnly[f.Name] && len(changed) == 1:
			moved[f.Name] = changed[0]
		default:
			t.Errorf("-%s moved config fields %v, want exactly one (none for a daemon-only flag)", f.Name, changed)
		}
	})
	return moved
}

// Every flag moves one field, no two flags the same one, and every field is
// reached by a flag or listed in libraryOnly: the check a knob table's lint
// analyzer would have made.
func TestEveryKnobHasAFlagOrAReason(t *testing.T) {
	owner := map[string]string{}
	for name, field := range flagFields(t) {
		if other, dup := owner[field]; dup {
			t.Errorf("-%s and -%s both set %s", name, other, field)
		}
		owner[field] = name
	}
	o, _ := parse(t)
	for field := range configFields(o) {
		_, flagged := owner[field]
		_, listed := libraryOnly[field]
		switch {
		case flagged && listed:
			t.Errorf("%s is in libraryOnly but -%s sets it", field, owner[field])
		case !flagged && !listed:
			t.Errorf("%s has no dpcd flag: add one, or name it in libraryOnly with the reason", field)
		}
	}
	for field := range libraryOnly {
		if _, ok := configFields(o)[field]; !ok {
			t.Errorf("libraryOnly names %s, which is not a config field", field)
		}
	}
}

// A tuning flag whose stage is not mounted is refused, by name.
func TestTuningFlagNeedsItsSwitch(t *testing.T) {
	for _, args := range [][]string{
		{"-admission-inflight", "64"},
		{"-trace-ring", "16"},
	} {
		fs := flag.NewFlagSet("dpcd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, args)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("dpcd %v: err = %v, want one naming the flag", args, err)
		}
	}
	parse(t, "-admission", "-admission-inflight", "64", "-pagecache", "-pagecache-ttl", "5s", "-trace", "-trace-ring", "16")
	// The whole-response tier is always mounted: its bounds and the lease
	// cap its TTL sets apply without the page rule.
	if o, _ := parse(t, "-pagecache-entries", "10"); o.proxy.PageCacheEntries != 10 {
		t.Errorf("-pagecache-entries 10 alone: PageCacheEntries = %d", o.proxy.PageCacheEntries)
	}
	if o, _ := parse(t, "-pagecache-ttl", "1m"); o.proxy.PageCacheTTL != time.Minute {
		t.Errorf("-pagecache-ttl 1m alone: PageCacheTTL = %v", o.proxy.PageCacheTTL)
	}
}

// README's "Configuration knobs" table has one row per flag, giving the
// flag's default and the field it sets.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ field, def string }
	rows := map[string]row{}
	rowRE := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| ([^|]*) \\| `([^`|]*)` \\|")
	tick := regexp.MustCompile("`([^`]*)`")
	for _, m := range rowRE.FindAllStringSubmatch(string(readme), -1) {
		r := row{def: m[3]}
		if !strings.HasPrefix(m[2], "—") {
			if f := tick.FindStringSubmatch(m[2]); f != nil {
				r.field = f[1]
			}
		}
		if r.def == `""` {
			r.def = ""
		}
		rows[m[1]] = r
	}
	moved := flagFields(t)
	_, fs := parse(t)
	fs.VisitAll(func(f *flag.Flag) {
		r, ok := rows[f.Name]
		switch {
		case !ok:
			t.Errorf("-%s has no row in README's knob table", f.Name)
		case r.def != f.DefValue:
			t.Errorf("-%s: README default %q, flag default %q", f.Name, r.def, f.DefValue)
		case r.field != moved[f.Name]:
			t.Errorf("-%s: README field %q, the flag sets %q", f.Name, r.field, moved[f.Name])
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("README documents -%s, which dpcd does not have", name)
	}
}

// The start-up banner names the fabric: a pull from an origin that serves
// the stream, push with -invalidate (which sends no poll at all), and none
// in front of an origin with no stream.
func TestFabricBanner(t *testing.T) {
	cached, err := origin.New(origin.Config{Repo: repository.New(repository.LatencyModel{}), Monitor: mustMonitor(t)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := origin.New(origin.Config{Repo: repository.New(repository.LatencyModel{})})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		origin http.Handler
		args   []string
		want   string
		polled bool
	}{
		{"cached", cached, nil, "pull from ", true},
		{"push", cached, []string{"-invalidate"}, "push via -invalidate", false},
		{"plain", plain, nil, "none: the origin has no stream", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var polls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == coherency.EventsPath {
					polls.Add(1)
				}
				tc.origin.ServeHTTP(w, r)
			}))
			defer ts.Close()
			o, _ := parse(t, append([]string{"-origin", ts.URL}, tc.args...)...)
			proxy, err := dpc.New(o.proxy)
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if got := subscribe(ctx, proxy, o); !strings.HasPrefix(got, tc.want) || strings.Contains(got, "no answer") {
				t.Fatalf("banner %q, want it to begin %q", got, tc.want)
			}
			if (polls.Load() > 0) != tc.polled {
				t.Fatalf("%d polls", polls.Load())
			}
		})
	}
}

func mustMonitor(t *testing.T) *bem.Monitor {
	t.Helper()
	mon, err := bem.New(bem.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}
