package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tab := Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

func TestCatalogueComplete(t *testing.T) {
	want := []string{"table2", "fig2a", "fig2b", "fig3a", "result1", "fig3b", "fig5", "fig6", "memory", "casestudy", "baselines",
		"ablation-strict", "ablation-latency"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("catalogue has %d entries, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.ID, want[i])
		}
		if _, err := ByID(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(tab.Rows))
	}
	if tab.Rows[0][1] != "0.80" {
		t.Fatalf("hit ratio cell = %q", tab.Rows[0][1])
	}
}

func TestFig2aTable(t *testing.T) {
	tab := Fig2a()
	if len(tab.Rows) < 15 {
		t.Fatalf("fig2a rows = %d", len(tab.Rows))
	}
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-1, 1)
	if first <= 1 {
		t.Fatalf("ratio at s→0 = %v, want > 1", first)
	}
	if last >= 0.6 {
		t.Fatalf("ratio at 5KB = %v, want < 0.6", last)
	}
}

func TestFig2bTable(t *testing.T) {
	tab := Fig2b()
	if cell(t, tab, 0, 1) >= 0 {
		t.Fatal("savings at h=0 should be negative")
	}
	last := cell(t, tab, len(tab.Rows)-1, 1)
	if last < 50 {
		t.Fatalf("savings at h=1 = %v, want > 50", last)
	}
}

func TestFig3aTable(t *testing.T) {
	tab := Fig3a()
	for i := range tab.Rows {
		if cell(t, tab, i, 1) <= 0 {
			t.Fatalf("network savings non-positive at row %d", i)
		}
	}
	if cell(t, tab, 0, 2) >= 0 {
		t.Fatal("firewall savings at 20% should be negative")
	}
	if cell(t, tab, len(tab.Rows)-1, 2) <= 0 {
		t.Fatal("firewall savings at 100% should be positive")
	}
}

func TestResult1Consistent(t *testing.T) {
	tab := Result1()
	for i, row := range tab.Rows {
		if row[4] != "consistent" {
			t.Fatalf("row %d: %v", i, row)
		}
	}
}

// The live experiments are exercised with quick options; shapes must match
// the paper even on a small request budget.
func TestFig3bLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := Fig3b(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		ana := cell(t, tab, i, 1)
		exp := cell(t, tab, i, 2)
		if exp < ana-0.02 {
			t.Fatalf("row %d: experimental %v below analytical %v (protocol overhead must push it up)", i, exp, ana)
		}
		if exp > ana+0.35 {
			t.Fatalf("row %d: experimental %v too far above analytical %v", i, exp, ana)
		}
	}
	// Ratio must fall as fragments grow (coarse: first vs last).
	if first, last := cell(t, tab, 0, 2), cell(t, tab, len(tab.Rows)-1, 2); last >= first {
		t.Fatalf("experimental ratio did not fall with fragment size: %v → %v", first, last)
	}
}

func TestFig5Live(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := Fig5(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Savings increase with h; experimental below analytical + noise.
	prevExp := -100.0
	for i := range tab.Rows {
		exp := cell(t, tab, i, 3)
		ana := cell(t, tab, i, 2)
		if exp > ana+8 {
			t.Fatalf("row %d: experimental %v well above analytical %v", i, exp, ana)
		}
		if exp < prevExp-8 {
			t.Fatalf("row %d: experimental savings fell sharply: %v after %v", i, exp, prevExp)
		}
		prevExp = exp
	}
	first, last := cell(t, tab, 0, 3), cell(t, tab, len(tab.Rows)-1, 3)
	if last <= first {
		t.Fatalf("experimental savings did not grow with h: %v → %v", first, last)
	}
}

func TestFig6Live(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := Fig6(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, last := cell(t, tab, 0, 2), cell(t, tab, len(tab.Rows)-1, 2)
	if last <= first {
		t.Fatalf("experimental savings did not grow with cacheability: %v → %v", first, last)
	}
	if last < 40 {
		t.Fatalf("experimental savings at full cacheability = %v, want substantial", last)
	}
}

func TestMemoryLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := Memory(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 1 unbounded reference + 4 budgets × 2 policies + 4 lru+disk budgets
	// + 3 restart phases.
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
	// The unbounded reference must not evict and must hit nearly always
	// once warm.
	if tab.Rows[0][4] != "0" {
		t.Fatalf("unbounded row evicted: %v", tab.Rows[0])
	}
	if ref := cell(t, tab, 0, 3); ref < 0.9 {
		t.Fatalf("unbounded store hit ratio = %v, want >= 0.9", ref)
	}
	// Within each policy, the hit ratio must not rise as the budget
	// shrinks (rows are ordered largest budget first), and the tightest
	// budget must actually evict.
	for _, rows := range [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}} {
		prev := 2.0
		for _, i := range rows {
			h := cell(t, tab, i, 3)
			if h > prev+0.05 {
				t.Fatalf("row %d: store hit ratio rose to %v as the budget shrank (prev %v)", i, h, prev)
			}
			prev = h
		}
		if ev := cell(t, tab, rows[len(rows)-1], 4); ev == 0 {
			t.Fatalf("tightest budget row %d evicted nothing", rows[len(rows)-1])
		}
	}
	// The disk-backed tier demotes instead of dropping, so its hit ratio
	// must hold near the unbounded reference at every RAM budget — the
	// whole point of the second tier.
	ref := cell(t, tab, 0, 3)
	for i := 9; i <= 12; i++ {
		if tab.Rows[i][0] != "lru+disk" {
			t.Fatalf("row %d policy = %q, want lru+disk", i, tab.Rows[i][0])
		}
		if h := cell(t, tab, i, 3); h < ref-0.1 {
			t.Fatalf("lru+disk row %d hit ratio %v fell below unbounded reference %v", i, h, ref)
		}
	}
	// A warm restart replays the heap file and must reach at least 80% of
	// the steady-state hit ratio on the very first pass; a cold edge's
	// first pass starts from nothing, in front of a BEM that knows only
	// what it was sent, so none of its pages is a stale bypass.
	steady := cell(t, tab, 13, 3)
	warm := cell(t, tab, 14, 3)
	cold := cell(t, tab, 15, 3)
	if steady < 0.5 {
		t.Fatalf("restart:steady hit ratio = %v, implausibly low", steady)
	}
	if warm < 0.8*steady {
		t.Fatalf("restart:warm hit ratio %v < 80%% of steady %v", warm, steady)
	}
	if cold > warm/2 {
		t.Fatalf("restart:cold hit ratio %v not clearly below warm %v", cold, warm)
	}
	if bypasses := cell(t, tab, 15, 5); bypasses != 0 {
		t.Fatalf("restart:cold took %v stale bypasses: the cold edge shares a BEM with proxies it is not", bypasses)
	}
}

func TestCaseStudyLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	opts := QuickOptions()
	tab, err := CaseStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	bw := cell(t, tab, 0, 3)
	rt := cell(t, tab, 1, 3)
	// The paper claims order-of-magnitude reductions; even the quick
	// configuration lands well above these floors.
	if bw < 5 {
		t.Fatalf("bandwidth reduction %vx, want >= 5x", bw)
	}
	if rt < 3 {
		t.Fatalf("response-time reduction %vx, want >= 3x", rt)
	}
}

func TestAblationStrictLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := AblationStrict(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestAblationLatencyLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := AblationLatencyModel(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Speedup must grow with back-end delay.
	first := cell(t, tab, 0, 3)
	last := cell(t, tab, len(tab.Rows)-1, 3)
	if last <= first {
		t.Fatalf("speedup did not grow with query delay: %v → %v", first, last)
	}
	if last < 3 {
		t.Fatalf("speedup at 4ms delay = %vx, want >= 3x", last)
	}
}

func TestBaselinesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment")
	}
	tab, err := Baselines(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if byName["nocache"][2] != "0" {
		t.Fatalf("no-cache served wrong pages: %v", byName["nocache"])
	}
	if byName["dpc"][2] != "0" {
		t.Fatalf("DPC served wrong pages: %v", byName["dpc"])
	}
	if byName["pagecache"][2] == "0" {
		t.Fatal("page cache served no wrong pages — the baseline flaw did not reproduce")
	}
	if cell(t, tab, 2, 1) >= cell(t, tab, 0, 1) {
		t.Fatalf("DPC bytes (%v) not below no-cache (%v)", cell(t, tab, 2, 1), cell(t, tab, 0, 1))
	}
}
