package experiment

// Deterministic single-seed fences for the a17 claims, fast enough for
// `go test`: cancellation lifts saturated goodput under the heavy tail, the
// controller is competitive with a pinned budget, and the reclaim counters
// account for real work.

import "testing"

const a17TestSeed = 1700

// TestCancellationLiftsSaturatedGoodput: at 2x and 3x past the saturation
// knee, reclaiming the losers' duplicates must buy a large goodput lift —
// under pareto(alpha=1.5) the occasional huge duplicate otherwise wedges a
// single-worker replica for seconds.
func TestCancellationLiftsSaturatedGoodput(t *testing.T) {
	base := variantNamed(t, a17Variants(), "budgeted")
	withCancel := variantNamed(t, a17Variants(), "budgeted+cancel")
	for _, rate := range []float64{40, 80} {
		b := sweepOnce(t, a17Sweep, rate, base, a17TestSeed)
		c := sweepOnce(t, a17Sweep, rate, withCancel, a17TestSeed)
		if c.Goodput < 1.5*b.Goodput {
			t.Errorf("rate=%.0f: goodput with cancel %.2f < 1.5x without %.2f — the lift is gone",
				rate, c.Goodput, b.Goodput)
		}
		if c.Cancels == 0 {
			t.Errorf("rate=%.0f: no cancels sent at redundancy >= 2", rate)
		}
		if c.Purged == 0 {
			t.Errorf("rate=%.0f: no queued copy purged under saturation", rate)
		}
		if c.Purged+c.Aborted > c.Cancels {
			t.Errorf("rate=%.0f: reclaimed %d copies from %d cancels", rate, c.Purged+c.Aborted, c.Cancels)
		}
	}
}

// TestAdaptiveControllerCompetitive: the controller must stay within 15% of
// a well-chosen static budget at a saturated load point, and its set point
// must respect its bounds.
func TestAdaptiveControllerCompetitive(t *testing.T) {
	adaptive := variantNamed(t, a17Variants(), "adaptive+cancel")
	static := variantNamed(t, a17Variants(), "static-k3+cancel")
	const rate = 40
	a := sweepOnce(t, a17Sweep, rate, adaptive, a17TestSeed)
	s := sweepOnce(t, a17Sweep, rate, static, a17TestSeed)
	if a.Goodput < 0.85*s.Goodput {
		t.Errorf("adaptive goodput %.2f < 85%% of static-k3 %.2f", a.Goodput, s.Goodput)
	}
	if a.Budget < 2 || a.Budget > sweepReplicas {
		t.Errorf("controller budget %d escaped [2, %d]", a.Budget, sweepReplicas)
	}
}
