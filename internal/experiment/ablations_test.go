package experiment

import (
	"strconv"
	"testing"
)

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// rowByPrefix finds a row whose first cell starts with the prefix.
func rowByPrefix(t *testing.T, tab *Table, prefix string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if len(r) > 0 && len(r[0]) >= len(prefix) && r[0][:len(prefix)] == prefix {
			return i
		}
	}
	t.Fatalf("no row with prefix %q in %v", prefix, tab.Rows)
	return -1
}

func TestA1StrategyFrontier(t *testing.T) {
	tab, err := RunA1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	dyn := rowByPrefix(t, tab, "dynamic")
	single := rowByPrefix(t, tab, "single-best")
	all := rowByPrefix(t, tab, "all")

	// The frontier the paper positions itself on: dynamic uses fewer
	// replicas than all, more than single-best, and fails less than the
	// single-replica strategies.
	if !(cell(t, tab, single, 1) < cell(t, tab, dyn, 1) && cell(t, tab, dyn, 1) < cell(t, tab, all, 1)) {
		t.Errorf("redundancy ordering broken: single=%v dyn=%v all=%v",
			tab.Rows[single][1], tab.Rows[dyn][1], tab.Rows[all][1])
	}
	if cell(t, tab, dyn, 2) > cell(t, tab, single, 2) {
		t.Errorf("dynamic fails more than single-best: %v vs %v",
			tab.Rows[dyn][2], tab.Rows[single][2])
	}
	// Dynamic must hold its QoS: <= 0.1 at Pc=0.9.
	if got := cell(t, tab, dyn, 2); got > 0.1 {
		t.Errorf("dynamic failure probability %.3f > 0.1", got)
	}
}

func TestA2WindowSizes(t *testing.T) {
	tab, err := RunA2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every window size must keep the QoS on this stationary workload.
	for i := range tab.Rows {
		if got := cell(t, tab, i, 2); got > 0.1 {
			t.Errorf("l=%s: failure %.3f > 0.1", tab.Rows[i][0], got)
		}
	}
}

func TestA3OverheadCompensation(t *testing.T) {
	tab, err := RunA3()
	if err != nil {
		t.Fatal(err)
	}
	off := rowByPrefix(t, tab, "off")
	big := rowByPrefix(t, tab, "10ms")
	// A large δ tightens the effective deadline, so selection must be at
	// least as conservative (>= redundancy).
	if cell(t, tab, big, 1) < cell(t, tab, off, 1)-1e-9 {
		t.Errorf("δ=10ms selected fewer replicas (%v) than off (%v)",
			tab.Rows[big][1], tab.Rows[off][1])
	}
}

func TestA4CrashReserveBeatsNoReserve(t *testing.T) {
	tab, err := RunA4()
	if err != nil {
		t.Fatal(err)
	}
	reserve := rowByPrefix(t, tab, "dynamic (reserve)")
	single := rowByPrefix(t, tab, "single-best")
	if cell(t, tab, reserve, 2) > 0.1 {
		t.Errorf("dynamic with reserve broke QoS under crashes: %v", tab.Rows[reserve][2])
	}
	if cell(t, tab, single, 2) <= cell(t, tab, reserve, 2) {
		t.Errorf("single-best (%v) did not fail more than dynamic (%v) under crashes",
			tab.Rows[single][2], tab.Rows[reserve][2])
	}
}

func TestA5MultiFailure(t *testing.T) {
	tab, err := RunA5()
	if err != nil {
		t.Fatal(err)
	}
	f1 := rowByPrefix(t, tab, "dynamic f=1")
	f2 := rowByPrefix(t, tab, "dynamic f=2")
	// f=2 pays at least as much redundancy as f=1.
	if cell(t, tab, f2, 1) < cell(t, tab, f1, 1)-1e-9 {
		t.Errorf("f=2 redundancy %v < f=1 %v", tab.Rows[f2][1], tab.Rows[f1][1])
	}
	// And f=2 does not fail more.
	if cell(t, tab, f2, 2) > cell(t, tab, f1, 2)+0.02 {
		t.Errorf("f=2 failures %v > f=1 %v", tab.Rows[f2][2], tab.Rows[f1][2])
	}
}

func TestA6QueueAwareRuns(t *testing.T) {
	tab, err := RunA6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both models must complete the bursty run and produce metrics in
	// range; which wins is load-dependent, so only sanity is asserted.
	for i := range tab.Rows {
		sel, fail := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if sel < 1 || sel > 7 || fail < 0 || fail > 1 {
			t.Errorf("row %d out of range: sel=%v fail=%v", i, sel, fail)
		}
	}
}

func TestA7SigmaReading(t *testing.T) {
	tab, err := RunA7()
	if err != nil {
		t.Fatal(err)
	}
	wide := rowByPrefix(t, tab, "sigma=50ms")
	narrow := rowByPrefix(t, tab, "variance=50ms^2")
	// With near-deterministic service (sigma≈7ms), every replica meets the
	// 120ms deadline alone, so redundancy collapses to the floor and must
	// be below the sigma=50ms case.
	if !(cell(t, tab, narrow, 2) < cell(t, tab, wide, 2)) {
		t.Errorf("narrow-sigma redundancy %v not below wide-sigma %v",
			tab.Rows[narrow][2], tab.Rows[wide][2])
	}
}

func TestV1ModelCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := RunV1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("only %d populated bins", len(tab.Rows))
	}
	// The top bin carries most decisions; it must be populated and close
	// to calibrated: |observed - predicted| small, and never far below
	// (below-predicted means the model oversells timeliness).
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "[0.9,1.0)" {
		t.Fatalf("top bin missing: %v", tab.Rows)
	}
	pred := cell(t, tab, len(tab.Rows)-1, 2)
	obs := cell(t, tab, len(tab.Rows)-1, 3)
	if pred-obs > 0.1 {
		t.Errorf("top bin observed %.3f lags predicted %.3f by > 0.1", obs, pred)
	}
	// Across all bins with real volume, observed must not undershoot the
	// prediction grossly.
	for i := range tab.Rows {
		n := cell(t, tab, i, 1)
		if n < 50 {
			continue
		}
		p, o := cell(t, tab, i, 2), cell(t, tab, i, 3)
		if p-o > 0.15 {
			t.Errorf("bin %s: observed %.3f far below predicted %.3f", tab.Rows[i][0], o, p)
		}
	}
}

func TestA8GatewayWindowUnderSpikes(t *testing.T) {
	tab, err := RunA8()
	if err != nil {
		t.Fatal(err)
	}
	recent := rowByPrefix(t, tab, "most-recent")
	w5 := rowByPrefix(t, tab, "window-5")
	// The windowed estimate must not fail more than the whipsawing
	// most-recent estimate under spikes.
	if cell(t, tab, w5, 2) > cell(t, tab, recent, 2)+0.02 {
		t.Errorf("T window failed more (%v) than most-recent (%v) under spikes",
			tab.Rows[w5][2], tab.Rows[recent][2])
	}
}

func TestA9SaturationCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := RunA9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Below saturation (5 rps) dynamic must keep the paper's promise,
	// failure ≤ 1 − Pc(t); above (30+ rps) everything degrades and failure
	// probabilities must be high for both (the sweep documents the
	// crossover, not a winner). Single-best carries no promise, so below
	// saturation it is not compared.
	get := func(rate, strat string) float64 {
		for i, r := range tab.Rows {
			if r[0] == rate && r[1] == strat {
				return cell(t, tab, i, 3)
			}
		}
		t.Fatalf("row (%s,%s) missing", rate, strat)
		return 0
	}
	const pc = 0.9 // the sweep's Pc(t)
	if got := get("5", "dynamic"); got > 1-pc {
		t.Errorf("below saturation dynamic failed %.3f > 1 - Pc = %.3f", got, 1-pc)
	}
	if get("60", "dynamic") < 0.5 || get("60", "single-best") < 0.5 {
		t.Errorf("at 60 rps both should be degraded: dyn=%.3f single=%.3f",
			get("60", "dynamic"), get("60", "single-best"))
	}
}

func TestA10DistributionRobustness(t *testing.T) {
	tab, err := RunA10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The bound must hold for every family: the windowed pmf is
	// non-parametric.
	for i := range tab.Rows {
		if got := cell(t, tab, i, 2); got > 0.1 {
			t.Errorf("family %s: failure %.3f > 0.1", tab.Rows[i][0], got)
		}
		if tab.Rows[i][3] != "yes" {
			t.Errorf("family %s: bound_held = %q", tab.Rows[i][0], tab.Rows[i][3])
		}
	}
}

func TestA11WorkerRobustness(t *testing.T) {
	tab, err := RunA11()
	if err != nil {
		t.Fatal(err)
	}
	k1 := rowByPrefix(t, tab, "1")
	k2 := rowByPrefix(t, tab, "2")
	k4 := rowByPrefix(t, tab, "4")
	// Extra workers add real capacity: failures must not increase with k,
	// and with k >= 2 (offered load below capacity) the bound must hold.
	if cell(t, tab, k2, 2) > cell(t, tab, k1, 2) {
		t.Errorf("k=2 failures %v > k=1 %v", tab.Rows[k2][2], tab.Rows[k1][2])
	}
	if cell(t, tab, k2, 2) > 0.1 || cell(t, tab, k4, 2) > 0.1 {
		t.Errorf("bound broken despite capacity: k2=%v k4=%v", tab.Rows[k2][2], tab.Rows[k4][2])
	}
}

func TestA12ClientScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := RunA12()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(clients, strat string) float64 {
		for i, r := range tab.Rows {
			if r[0] == clients && r[1] == strat {
				return cell(t, tab, i, 3)
			}
		}
		t.Fatalf("row (%s,%s) missing", clients, strat)
		return 0
	}
	// Below capacity (1-4 clients) the bound must hold for both variants.
	for _, n := range []string{"1", "2", "4"} {
		for _, strat := range []string{"dynamic (paper)", "dynamic-cap3"} {
			if got := get(n, strat); got > 0.1 {
				t.Errorf("%s clients / %s: failure %.3f > 0.1 below capacity", n, strat, got)
			}
		}
	}
	// Past capacity the paper's fallback feedback loop must be visible and
	// the cap must mitigate it.
	if got := get("12", "dynamic (paper)"); got < 0.5 {
		t.Errorf("12 clients: failure %.3f implausibly low for a saturated pool", got)
	}
	if get("8", "dynamic-cap3") >= get("8", "dynamic (paper)") {
		t.Errorf("cap did not mitigate overload at 8 clients: cap=%.3f paper=%.3f",
			get("8", "dynamic-cap3"), get("8", "dynamic (paper)"))
	}
}
