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

// The open-loop Poisson load sweep a13 and a17 share. 5 replicas at ~100 ms
// mean service time serve ~50 copies/s; with the warm algorithm settling at
// |K| ≈ 2 the pool saturates near 25 offered req/s, so the sweep covers
// comfortable load, the saturation knee, and a 3×-past-capacity overload.
const (
	sweepReplicas  = 5
	sweepHorizon   = 20 * time.Second // virtual issue window per run
	sweepWarmup    = 5 * time.Second  // excluded from steady-state goodput
	sweepDeadline  = 250 * time.Millisecond
	sweepStaleness = 2 * time.Second // re-probe bound, every variant
	// sweepCeiling is the admission ceiling of the admission-controlled
	// variants. Under saturation the ceiling self-equilibrates admitted
	// response time at roughly ceiling / admitted-rate, so it is sized to
	// keep admitted requests inside the deadline: ~25 admitted/s × 0.25 s ≈ 6
	// in flight.
	sweepCeiling = 5
	sweepRuns    = 3 // seeds averaged per cell
)

// sweepRates is the offered load in requests/second.
var sweepRates = []float64{5, 10, 20, 40, 80}

// sweepVariant is one scheduler configuration under the load sweep.
type sweepVariant struct {
	name       string
	strategy   func() selection.Strategy
	overload   core.OverloadConfig
	cancel     bool
	controller *core.AdaptiveBudgetConfig
}

// sweepOutcome is one (rate, variant) cell of the sweep. Goodput is
// steady-state: timely completions issued after the warmup, per second of
// post-warmup makespan, so the unavoidable cold-start transient (every
// variant pays it) doesn't mask the regime the sweep measures. Over a cell's
// seeds the rates are means, the counts sums, MaxK the maximum and Budget
// the last run's.
type sweepOutcome struct {
	Goodput    float64 // steady-state timely completions per second
	TimelyFrac float64 // timely / issued, whole run
	MeanK      float64 // mean |K| over admitted requests
	MaxK       int     // largest |K| over admitted requests
	Shed       int
	OverBudget int // admitted requests with |K| above their budget
	Cancels    int // Cancel messages sent
	Purged     int // cancelled copies removed from replica queues
	Aborted    int // cancelled copies aborted mid-service
	Budget     int // controller's final set point (0 when no controller)
	Issued     int
}

// loadSweep is one experiment's run of the sweep: its replicas' service law
// and the first of its sweepRuns consecutive seeds.
type loadSweep struct {
	id      string
	service stats.DelayDist
	seed    int64
}

// run executes one point of the sweep on one seed. Offered load is an
// open-loop Poisson arrival process (the closed loop self-throttles and can
// never push the pool past saturation, hiding exactly the regime the sweep
// measures).
func (s loadSweep) run(rate float64, v sweepVariant, seed int64) (sweepOutcome, error) {
	res, err := sim.Run(sim.Scenario{
		Replicas: pool(sweepReplicas, sim.ReplicaSpec{Service: s.service}),
		Clients: []sim.ClientSpec{{
			QoS:      wire.QoS{Deadline: sweepDeadline, MinProbability: 0.9},
			Requests: int(rate * sweepHorizon.Seconds()),
			Strategy: v.strategy(),
			Arrival:  stats.Exponential{MeanDelay: time.Duration(float64(time.Second) / rate)},
		}},
		Network:        sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Overload:       v.overload,
		StalenessBound: sweepStaleness,
		Seed:           seed,
		MaxTime:        4 * time.Hour,
		Cancellation:   v.cancel,
		Controller:     v.controller,
	})
	if err != nil {
		return sweepOutcome{}, err
	}
	c := res.Clients[0]
	out := sweepOutcome{
		Issued:  len(c.Records),
		Shed:    c.ShedCount(),
		MaxK:    c.MaxSelected(),
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
		if rec.Budget > 0 && rec.NumSelected > rec.Budget {
			out.OverBudget++
		}
		if rec.Timely() {
			timely++
			if rec.IssuedAt >= sweepWarmup {
				ssTimely++
			}
		}
	}
	if makespan <= sweepWarmup {
		makespan = sweepHorizon
	}
	out.Goodput = float64(ssTimely) / (makespan - sweepWarmup).Seconds()
	if out.Issued > 0 {
		out.TimelyFrac = float64(timely) / float64(out.Issued)
	}
	if admitted > 0 {
		out.MeanK = float64(kSum) / float64(admitted)
	}
	return out, nil
}

// cell averages one (rate, variant) point over sweepRuns seeds.
func (s loadSweep) cell(rate float64, v sweepVariant) (sweepOutcome, error) {
	var sum sweepOutcome
	for run := 0; run < sweepRuns; run++ {
		out, err := s.run(rate, v, s.seed+int64(run))
		if err != nil {
			return sweepOutcome{}, fmt.Errorf("experiment: %s rate=%.0f %s: %w", s.id, rate, v.name, err)
		}
		sum.Goodput += out.Goodput
		sum.TimelyFrac += out.TimelyFrac
		sum.MeanK += out.MeanK
		sum.MaxK = max(sum.MaxK, out.MaxK)
		sum.Shed += out.Shed
		sum.OverBudget += out.OverBudget
		sum.Cancels += out.Cancels
		sum.Purged += out.Purged
		sum.Aborted += out.Aborted
		sum.Budget = out.Budget // last run's final set point, representative
		sum.Issued += out.Issued
	}
	sum.Goodput /= sweepRuns
	sum.TimelyFrac /= sweepRuns
	sum.MeanK /= sweepRuns
	return sum, nil
}

// a13Sweep runs the sweep over normal(100 ms, 30 ms) service times.
var a13Sweep = loadSweep{
	id:      "a13",
	service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: 30 * time.Millisecond},
	seed:    1300,
}

// a13Variants contrasts the paper-exact scheduler (select-all fallback, no
// admission control — the A12 amplification) with the budgeted one
// (load-conditioned |K| budget + in-flight ceiling + degradation ladder).
func a13Variants() []sweepVariant {
	return []sweepVariant{
		{
			name:     "paper-exact",
			strategy: func() selection.Strategy { return selection.NewDynamic() },
		},
		{
			name:     "budgeted",
			strategy: func() selection.Strategy { return selection.NewBudgeted() },
			overload: core.OverloadConfig{MaxInFlight: sweepCeiling},
		},
	}
}

// RunA13 sweeps offered load through saturation and contrasts the
// paper-exact scheduler with the budgeted/admission-controlled one. The
// paper-exact variant reproduces the A12 collapse: past capacity every
// F_Ri(t) degrades, the line-15 fallback selects all M replicas, and the
// extra copies keep the pool saturated forever — steady-state goodput goes
// to zero. The budgeted variant bounds |K| under the load-conditioned
// budget, sheds excess demand explicitly at the admission ceiling, keeps
// one probe slot so drained replicas are rediscovered, and holds goodput
// within 10% of its peak across the whole overload range.
func RunA13() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("A13: overload sweep (%d replicas @ ~100ms, deadline=%v, Pc=0.9, open-loop Poisson arrivals)",
			sweepReplicas, sweepDeadline),
		Columns: []string{"offered_rps", "variant", "goodput_rps", "timely_frac", "mean_k", "max_k", "shed", "over_budget"},
		Notes: []string{
			"goodput = steady-state timely completions/s (5s warmup excluded); pool capacity ~25 admitted req/s at |K|=2",
			"paper-exact reproduces the A12 select-all collapse past saturation (~20 req/s offered)",
			"budgeted = selection.NewBudgeted() + MaxInFlight admission ceiling; shed requests are counted, never silently dropped",
			"over_budget counts admitted requests whose |K| exceeded the decision's budget (must stay 0)",
		},
	}
	for _, rate := range sweepRates {
		for _, v := range a13Variants() {
			out, err := a13Sweep.cell(rate, v)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", rate),
				v.name,
				f2(out.Goodput),
				f3(out.TimelyFrac),
				f2(out.MeanK),
				fmt.Sprintf("%d", out.MaxK),
				fmt.Sprintf("%d", out.Shed/sweepRuns),
				fmt.Sprintf("%d", out.OverBudget),
			})
		}
	}
	return t, nil
}
