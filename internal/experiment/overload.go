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

// The open-loop Poisson load sweep a9, a13 and a17 share. 5 replicas at ~100 ms
// mean service time serve ~50 copies/s; with the warm algorithm settling at
// |K| ≈ 2 the pool saturates near 25 offered req/s, so the sweep covers
// comfortable load, the saturation knee, and a 3×-past-capacity overload.
const (
	sweepReplicas  = 5
	sweepHorizon   = 20 * time.Second // virtual issue window per run
	sweepWarmup    = 5 * time.Second  // excluded from steady-state goodput
	sweepDeadline  = 250 * time.Millisecond
	sweepStaleness = 2 * time.Second // re-probe bound of a13's and a17's variants
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

// variant is one scheduler configuration a table row runs: a fresh strategy
// per run (some are stateful) and, for the load sweeps, admission control,
// cancellation and the budget controller.
type variant struct {
	name       string
	strategy   func() selection.Strategy
	overload   core.OverloadConfig
	cancel     bool
	controller *core.AdaptiveBudgetConfig
}

// dynamic and singleBest are the strategies most tables compare.
func dynamic() selection.Strategy    { return selection.NewDynamic() }
func singleBest() selection.Strategy { return selection.SingleBest{} }

// loadSweep is one experiment's run of the sweep: its replicas' service law,
// its seeds and what each run issues.
type loadSweep struct {
	id      string
	service stats.DelayDist
	seed    int64 // first seed of a cell
	// rateSeed moves a cell's first seed by this much per request/s offered.
	rateSeed int64
	// requests is what each run issues; 0 means sweepHorizon's worth.
	requests int
	// staleness is every variant's re-probe bound; 0 means none.
	staleness time.Duration
}

// scenario is one point of the sweep on one seed. Offered load is an
// open-loop Poisson arrival process (the closed loop self-throttles and can
// never push the pool past saturation, hiding exactly the regime the sweep
// measures).
func (s loadSweep) scenario(rate float64, v variant, seed int64) sim.Scenario {
	requests := s.requests
	if requests == 0 {
		requests = int(rate * sweepHorizon.Seconds())
	}
	return sim.Scenario{
		Replicas: pool(sweepReplicas, sim.ReplicaSpec{Service: s.service}),
		Clients: []sim.ClientSpec{{
			QoS:      wire.QoS{Deadline: sweepDeadline, MinProbability: 0.9},
			Requests: requests,
			Strategy: v.strategy(),
			Arrival:  stats.Exponential{MeanDelay: time.Duration(float64(time.Second) / rate)},
		}},
		Network:        sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Overload:       v.overload,
		StalenessBound: s.staleness,
		Seed:           seed,
		MaxTime:        4 * time.Hour,
		Cancellation:   v.cancel,
		Controller:     v.controller,
	}
}

// cell averages one (rate, variant) point over sweepRuns seeds.
func (s loadSweep) cell(rate float64, v variant) (outcome, error) {
	first := s.seed + s.rateSeed*int64(rate)
	out, err := seeds{first: first, runs: sweepRuns, warmup: sweepWarmup}.average(func(seed int64) sim.Scenario {
		return s.scenario(rate, v, seed)
	})
	if err != nil {
		return outcome{}, fmt.Errorf("experiment: %s rate=%.0f %s: %w", s.id, rate, v.name, err)
	}
	return out, nil
}

// a13Sweep runs the sweep over normal(100 ms, 30 ms) service times.
var a13Sweep = loadSweep{
	id:        "a13",
	service:   stats.Normal{Mu: 100 * time.Millisecond, Sigma: 30 * time.Millisecond},
	seed:      1300,
	staleness: sweepStaleness,
}

// a13Variants contrasts the paper-exact scheduler (select-all fallback, no
// admission control — the A12 amplification) with the budgeted one
// (load-conditioned |K| budget + in-flight ceiling + degradation ladder).
func a13Variants() []variant {
	return []variant{
		{name: "paper-exact", strategy: dynamic},
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
