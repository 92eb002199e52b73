package experiment

// Deterministic fences for the a16 deployment-ranking experiment, fast
// enough for `go test`: the placement enumeration is exactly the multisets
// of the region set, and the quick-mode run upholds the windowed-vs-point-
// mass fence end to end.

import (
	"testing"
	"time"

	"aqua/internal/sim"
)

func TestA16PlacementEnumeration(t *testing.T) {
	ps := a16Placements()
	// Multisets of size 3 over 3 regions: C(3+3-1, 3) = 10.
	if len(ps) != 10 {
		t.Fatalf("enumerated %d placements, want 10", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if len(p) != a16Budget {
			t.Errorf("placement %v has %d replicas, want %d", p, len(p), a16Budget)
		}
		for i := 1; i < len(p); i++ {
			if p[i] < p[i-1] {
				t.Errorf("placement %v not in canonical order", p)
			}
		}
		name := a16PlacementName(p)
		if seen[name] {
			t.Errorf("duplicate placement %s", name)
		}
		seen[name] = true
	}
	if !seen["0+0+0"] || !seen["2+2+2"] || !seen["0+1+2"] {
		t.Errorf("expected corner placements missing from %v", ps)
	}
}

// TestA16WindowedTBeatsPointMass pins the experiment's headline claim on a
// single deterministic cell: on bimodal links the all-local placement under
// a windowed T must meet the deadline at least as often as under the
// point-mass T, which alternately writes a congested or a clean sample over
// the only estimate it keeps.
func TestA16WindowedTBeatsPointMass(t *testing.T) {
	placement := []int{0, 0, 0}
	one := func(hist int) outcome {
		out, err := seeds{first: 1600, runs: 1}.average(func(seed int64) sim.Scenario {
			return a16Scenario(placement, hist, seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pm, win := one(1), one(a16TWindow)
	if win.TimelyFrac < pm.TimelyFrac {
		t.Errorf("windowed T timely %.3f < point-mass %.3f on the all-local placement",
			win.TimelyFrac, pm.TimelyFrac)
	}
	if win.P95 > a16Deadline+100*time.Millisecond {
		t.Errorf("windowed T p95 %v far beyond the %v deadline", win.P95, a16Deadline)
	}
}

// TestA16QuickFence runs the whole quick-mode experiment, checking the table
// shape and that the CI fence holds.
func TestA16QuickFence(t *testing.T) {
	tab, err := RunA16(true)
	if err != nil {
		t.Fatal(err)
	}
	// 10 placements x 2 T models.
	if len(tab.Rows) != 20 {
		t.Fatalf("table has %d rows, want 20", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
	}
}
