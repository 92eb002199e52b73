package experiment

import (
	"fmt"
	"time"

	"aqua/internal/core"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// A17 configuration. Same pool geometry and load sweep as a13 so the two
// tables read side by side, but the service times are Pareto (alpha = 1.5,
// xm tuned for the same 100 ms mean): a heavy tail is the regime where
// first-response-wins cancellation matters, because the duplicate a replica
// would burn is occasionally enormous.
const (
	a17Replicas = 5
	a17Horizon  = 20 * time.Second
	a17Warmup   = 5 * time.Second
	a17Deadline = 250 * time.Millisecond
	a17Alpha    = 1.5
	// a17Scale is xm such that alpha·xm/(alpha−1) = 100 ms: at alpha = 1.5
	// the mean is 3·xm, so xm is a third of the target mean.
	a17Scale     = 100 * time.Millisecond / 3
	a17Staleness = 2 * time.Second
	a17Ceiling   = 5 // admission ceiling, as in a13
	a17Runs      = 3
)

// a17Rates sweeps offered load in requests/second, as in a13.
var a17Rates = []float64{5, 10, 20, 40, 80}

// a17Variant is one scheduler configuration under the sweep.
type a17Variant struct {
	name       string
	strategy   func() selection.Strategy
	cancel     bool
	controller *core.AdaptiveBudgetConfig
}

// a17Variants contrasts the PR 6 budgeted baseline with cancellation on top,
// the cancellation-enabled static budgets the controller must match, and the
// online controller itself.
func a17Variants() []a17Variant {
	staticK := func(k int) func() selection.Strategy {
		return func() selection.Strategy { return &selection.Budgeted{MinK: k, MaxK: k} }
	}
	return []a17Variant{
		{name: "budgeted", strategy: func() selection.Strategy { return selection.NewBudgeted() }},
		{name: "budgeted+cancel", strategy: func() selection.Strategy { return selection.NewBudgeted() }, cancel: true},
		{name: "static-k2+cancel", strategy: staticK(2), cancel: true},
		{name: "static-k3+cancel", strategy: staticK(3), cancel: true},
		{name: "static-k5+cancel", strategy: staticK(5), cancel: true},
		{
			name:       "adaptive+cancel",
			strategy:   func() selection.Strategy { return selection.NewBudgeted() },
			cancel:     true,
			controller: &core.AdaptiveBudgetConfig{MaxK: a17Replicas},
		},
	}
}

// a17Outcome aggregates one (rate, variant) cell.
type a17Outcome struct {
	Goodput    float64 // steady-state timely completions per second
	TimelyFrac float64 // timely / issued, whole run
	MeanK      float64 // mean |K| over admitted requests
	Shed       int
	Cancels    int // Cancel messages sent
	Purged     int // cancelled copies removed from replica queues
	Aborted    int // cancelled copies aborted mid-service
	Budget     int // controller's final set point (0 when no controller)
	Issued     int
}

// runA17Cell executes one point of the sweep: open-loop Poisson arrivals, as
// in a13 (the closed loop self-throttles and hides saturation).
func runA17Cell(rate float64, v a17Variant, seed int64) (a17Outcome, error) {
	replicas := make([]sim.ReplicaSpec, a17Replicas)
	for i := range replicas {
		replicas[i] = sim.ReplicaSpec{Service: stats.Pareto{Scale: a17Scale, Alpha: a17Alpha}}
	}
	res, err := sim.Run(sim.Scenario{
		Replicas: replicas,
		Clients: []sim.ClientSpec{{
			QoS:      wire.QoS{Deadline: a17Deadline, MinProbability: 0.9},
			Requests: int(rate * a17Horizon.Seconds()),
			Strategy: v.strategy(),
			Arrival:  stats.Exponential{MeanDelay: time.Duration(float64(time.Second) / rate)},
		}},
		Network:        sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Overload:       core.OverloadConfig{MaxInFlight: a17Ceiling},
		StalenessBound: a17Staleness,
		Seed:           seed,
		MaxTime:        4 * time.Hour,
		Cancellation:   v.cancel,
		Controller:     v.controller,
	})
	if err != nil {
		return a17Outcome{}, err
	}
	c := res.Clients[0]
	out := a17Outcome{
		Issued:  len(c.Records),
		Shed:    c.ShedCount(),
		Cancels: res.CancelsSent,
		Purged:  res.CancelsPurged,
		Aborted: res.CancelsAborted,
		Budget:  c.Controller.Budget,
	}
	var makespan time.Duration
	timely, ssTimely, admitted, kSum := 0, 0, 0, 0
	for _, rec := range c.Records {
		if end := rec.IssuedAt + rec.ResponseTime; end > makespan {
			makespan = end
		}
		if rec.Shed {
			continue
		}
		admitted++
		kSum += rec.NumSelected
		if rec.GotReply && !rec.Failure {
			timely++
			if rec.IssuedAt >= a17Warmup {
				ssTimely++
			}
		}
	}
	if makespan <= a17Warmup {
		makespan = a17Horizon
	}
	out.Goodput = float64(ssTimely) / (makespan - a17Warmup).Seconds()
	if out.Issued > 0 {
		out.TimelyFrac = float64(timely) / float64(out.Issued)
	}
	if admitted > 0 {
		out.MeanK = float64(kSum) / float64(admitted)
	}
	return out, nil
}

// a17Cell averages a17Runs seeds for one (rate, variant) point.
func a17Cell(rate float64, v a17Variant) (a17Outcome, error) {
	var sum a17Outcome
	for run := 0; run < a17Runs; run++ {
		out, err := runA17Cell(rate, v, 1700+int64(run))
		if err != nil {
			return a17Outcome{}, fmt.Errorf("experiment: a17 rate=%.0f %s: %w", rate, v.name, err)
		}
		sum.Goodput += out.Goodput
		sum.TimelyFrac += out.TimelyFrac
		sum.MeanK += out.MeanK
		sum.Shed += out.Shed
		sum.Cancels += out.Cancels
		sum.Purged += out.Purged
		sum.Aborted += out.Aborted
		sum.Issued += out.Issued
		sum.Budget = out.Budget // last run's final set point, representative
	}
	sum.Goodput /= a17Runs
	sum.TimelyFrac /= a17Runs
	sum.MeanK /= a17Runs
	return sum, nil
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
			a17Replicas, a17Scale, a17Alpha, a17Deadline),
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
	cells := make(map[key]a17Outcome)
	for _, rate := range a17Rates {
		for _, v := range a17Variants() {
			out, err := a17Cell(rate, v)
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
				fmt.Sprintf("%d", out.Shed/a17Runs),
				fmt.Sprintf("%d", out.Cancels/a17Runs),
				fmt.Sprintf("%d", out.Purged/a17Runs),
				fmt.Sprintf("%d", out.Aborted/a17Runs),
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
	for _, rate := range a17Rates {
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
