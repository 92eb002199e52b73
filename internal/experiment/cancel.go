package experiment

import (
	"fmt"
	"time"

	"aqua/internal/core"
	"aqua/internal/selection"
	"aqua/internal/stats"
)

// A17 runs a13's load sweep, so the two tables read side by side, but the
// service times are Pareto (alpha = 1.5, xm tuned for the same 100 ms mean):
// a heavy tail is the regime where first-response-wins cancellation
// matters, because the duplicate a replica would burn is occasionally
// enormous.
const (
	a17Alpha = 1.5
	// a17Scale is xm such that alpha·xm/(alpha−1) = 100 ms: at alpha = 1.5
	// the mean is 3·xm, so xm is a third of the target mean.
	a17Scale = 100 * time.Millisecond / 3
)

// a17Sweep runs the sweep over the heavy-tailed service law.
var a17Sweep = loadSweep{
	id:        "a17",
	service:   stats.Pareto{Scale: a17Scale, Alpha: a17Alpha},
	seed:      1700,
	staleness: sweepStaleness,
}

// a17Variants contrasts the PR 6 budgeted baseline with cancellation on top,
// the cancellation-enabled static budgets the controller must match, and the
// online controller itself. Every variant runs behind a13's admission
// ceiling.
func a17Variants() []variant {
	ceiling := core.OverloadConfig{MaxInFlight: sweepCeiling}
	budgeted := func() selection.Strategy { return selection.NewBudgeted() }
	staticK := func(k int) func() selection.Strategy {
		return func() selection.Strategy { return &selection.Budgeted{MinK: k, MaxK: k} }
	}
	return []variant{
		{name: "budgeted", strategy: budgeted, overload: ceiling},
		{name: "budgeted+cancel", strategy: budgeted, overload: ceiling, cancel: true},
		{name: "static-k2+cancel", strategy: staticK(2), overload: ceiling, cancel: true},
		{name: "static-k3+cancel", strategy: staticK(3), overload: ceiling, cancel: true},
		{name: "static-k5+cancel", strategy: staticK(5), overload: ceiling, cancel: true},
		{
			name:       "adaptive+cancel",
			strategy:   budgeted,
			overload:   ceiling,
			cancel:     true,
			controller: &core.AdaptiveBudgetConfig{MaxK: sweepReplicas},
		},
	}
}

// RunA17 sweeps offered load over the heavy-tailed pool and fences the two
// claims this PR makes:
//
//  1. First-response-wins cancellation lifts the budgeted variant's
//     saturated goodput: cancelled duplicates stop consuming service
//     capacity, so the same budget serves more timely requests.
//  2. The online controller is competitive with the best static budget at
//     every load point — no single static |K| wins the whole sweep under a
//     heavy tail, and the controller tracks the winner without being told
//     the load.
//
// The run fails (non-nil error) when either claim regresses, or when
// cancellation stops reclaiming work (purged + aborted = 0 at redundancy
// >= 2), so `make a17` is a CI fence, not just a table.
func RunA17() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("A17: cancellation + adaptive redundancy under a heavy tail (%d replicas, pareto(xm=%v, alpha=%.1f) ~100ms mean, deadline=%v, Pc=0.9)",
			sweepReplicas, a17Scale, a17Alpha, sweepDeadline),
		Columns: []string{"offered_rps", "variant", "goodput_rps", "timely_frac", "mean_k", "shed", "cancels", "purged", "aborted", "budget"},
		Notes: []string{
			"goodput = steady-state timely completions/s (5s warmup excluded); arrivals are open-loop Poisson as in a13",
			"+cancel variants multicast wire.Cancel to the losers on the first reply; purged = dropped from a replica queue, aborted = stopped mid-service",
			"static-kN+cancel pins the redundancy budget at N; adaptive+cancel is the online controller (hill-climbing |K| in [2,5] on measured goodput)",
			"fences: budgeted+cancel >= budgeted at saturation; adaptive+cancel >= 0.85x the best static at every rate; purged+aborted > 0 whenever cancels were sent",
		},
	}
	type key struct {
		rate    float64
		variant string
	}
	cells := make(map[key]outcome)
	for _, rate := range sweepRates {
		for _, v := range a17Variants() {
			out, err := a17Sweep.cell(rate, v)
			if err != nil {
				return nil, err
			}
			cells[key{rate, v.name}] = out
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", rate),
				v.name,
				f2(out.Goodput),
				f3(out.TimelyFrac),
				f2(out.MeanK),
				fmt.Sprintf("%d", out.Shed/sweepRuns),
				fmt.Sprintf("%d", out.Cancels/sweepRuns),
				fmt.Sprintf("%d", out.Purged/sweepRuns),
				fmt.Sprintf("%d", out.Aborted/sweepRuns),
				fmt.Sprintf("%d", out.Budget),
			})
		}
	}

	// Fence 1: at and past saturation, cancellation must not cost goodput,
	// and must reclaim real work. (Below saturation the two are statistically
	// identical — duplicates are cheap when the pool is idle.)
	for _, rate := range []float64{40, 80} {
		base := cells[key{rate, "budgeted"}]
		withCancel := cells[key{rate, "budgeted+cancel"}]
		if withCancel.Goodput < 0.95*base.Goodput {
			return nil, fmt.Errorf("experiment: a17 fence: rate=%.0f budgeted+cancel goodput %.2f < 95%% of budgeted %.2f",
				rate, withCancel.Goodput, base.Goodput)
		}
	}
	// Fence 2: whenever a cancel variant sent cancels under redundancy >= 2,
	// some copies must actually have been reclaimed — and across the sweep
	// queue purges specifically must occur (at light load every reclaim is a
	// mid-service abort because the queues are empty; under saturation the
	// queued copies must be disappearing too).
	totalPurged := 0
	for k, out := range cells {
		totalPurged += out.Purged
		if out.Cancels > 0 && out.Purged+out.Aborted == 0 {
			return nil, fmt.Errorf("experiment: a17 fence: rate=%.0f %s sent %d cancels but reclaimed nothing",
				k.rate, k.variant, out.Cancels)
		}
	}
	if totalPurged == 0 {
		return nil, fmt.Errorf("experiment: a17 fence: no queued copy was ever purged across the sweep")
	}
	// Fence 3: the controller is competitive with the best static budget at
	// every load point.
	statics := []string{"static-k2+cancel", "static-k3+cancel", "static-k5+cancel"}
	for _, rate := range sweepRates {
		best := 0.0
		bestName := ""
		for _, s := range statics {
			if g := cells[key{rate, s}].Goodput; g > best {
				best, bestName = g, s
			}
		}
		adaptive := cells[key{rate, "adaptive+cancel"}]
		if adaptive.Goodput < 0.85*best {
			return nil, fmt.Errorf("experiment: a17 fence: rate=%.0f adaptive+cancel goodput %.2f < 85%% of best static %s (%.2f)",
				rate, adaptive.Goodput, bestName, best)
		}
	}
	return t, nil
}
