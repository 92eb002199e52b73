package experiment

// S4 regression suite: deterministic overload behavior. One seed, fixed
// rates, thresholds calibrated against the a13 sweep. Guards the three
// properties the budgeted/admission-controlled scheduler exists for:
// the paper-exact collapse is real (so the fix is fenced against a silently
// changed baseline), the budgeted variant degrades gracefully instead, and
// shedding is explicit accounting, never silent loss.

import (
	"testing"

	"aqua/internal/sim"
)

const s4Seed = 1300

// variantNamed picks one variant of a sweep by name.
func variantNamed(t *testing.T, variants []variant, name string) variant {
	t.Helper()
	for _, v := range variants {
		if v.name == name {
			return v
		}
	}
	t.Fatalf("no %q variant", name)
	return variant{}
}

// TestOverloadPaperExactCollapses: past saturation (~25 admitted req/s) the
// select-all fallback multiplies offered load by |M| and steady-state
// goodput goes to zero — the A12 cliff this PR fixes. If this test starts
// failing, the paper-exact path is no longer paper-exact.
func TestOverloadPaperExactCollapses(t *testing.T) {
	v := variantNamed(t, a13Variants(), "paper-exact")
	for _, rate := range []float64{20, 40} {
		out := sweepOnce(t, a13Sweep, rate, v, s4Seed)
		if out.Goodput > 1.0 || out.TimelyFrac > 0.05 {
			t.Errorf("rate=%.0f: paper-exact goodput=%.2f timely=%.3f — collapse not reproduced",
				rate, out.Goodput, out.TimelyFrac)
		}
		if out.Shed != 0 {
			t.Errorf("rate=%.0f: paper-exact shed %d requests; it has no admission control", rate, out.Shed)
		}
	}
}

// TestOverloadBudgetedDegradesGracefully: across the whole overload range
// the budgeted variant must hold goodput within 10% of its peak (the
// acceptance criterion), never exceed the per-decision redundancy budget,
// and account for every offered request — shed explicitly, not dropped.
func TestOverloadBudgetedDegradesGracefully(t *testing.T) {
	v := variantNamed(t, a13Variants(), "budgeted")
	rates := []float64{20, 40, 80}
	goodput := make([]float64, len(rates))
	for i, rate := range rates {
		out := sweepOnce(t, a13Sweep, rate, v, s4Seed)
		goodput[i] = out.Goodput

		if out.OverBudget != 0 {
			t.Errorf("rate=%.0f: %d decisions exceeded their redundancy budget", rate, out.OverBudget)
		}
		if out.MaxK > sweepReplicas {
			t.Errorf("rate=%.0f: max |K| = %d exceeds the pool", rate, out.MaxK)
		}
		// Admission control is active and explicit: past saturation some
		// requests are shed, and every offered request is accounted for in
		// the client's records (issued = admitted + shed, nothing vanishes).
		if out.Shed == 0 {
			t.Errorf("rate=%.0f: no requests shed past saturation", rate)
		}
		if want := int(rate * sweepHorizon.Seconds()); out.Issued != want {
			t.Errorf("rate=%.0f: %d records for %d offered requests — shed requests dropped from accounting",
				rate, out.Issued, want)
		}
	}

	peak := 0.0
	for _, g := range goodput {
		if g > peak {
			peak = g
		}
	}
	if peak < 5.0 {
		t.Fatalf("budgeted peak goodput = %.2f req/s, want a working steady state (>= 5)", peak)
	}
	for i, g := range goodput {
		if g < 0.9*peak {
			t.Errorf("rate=%.0f: goodput %.2f fell below 90%% of peak %.2f — not graceful degradation",
				rates[i], g, peak)
		}
	}
}

// sweepOnce measures one seed of a sweep point.
func sweepOnce(t *testing.T, s loadSweep, rate float64, v variant, seed int64) outcome {
	t.Helper()
	out, err := seeds{first: seed, runs: 1, warmup: sweepWarmup}.average(func(seed int64) sim.Scenario {
		return s.scenario(rate, v, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
