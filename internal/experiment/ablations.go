package experiment

import (
	"fmt"
	"math"
	"time"

	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// ablationRuns is how many seeds an ablation point averages.
const ablationRuns = 5

// ablate averages one ablation variant over runs seeds: client 2 of the §6
// setup (DefaultFig45Config) at the mid-sweep point (120 ms, Pc 0.9), where
// the algorithm has real work to do. strategy and mutate are as in
// Fig45Config.point.
func ablate(runs int, strategy func() selection.Strategy, mutate func(*sim.Scenario)) (outcome, error) {
	cfg := DefaultFig45Config()
	cfg.Runs = runs
	return cfg.point(120*time.Millisecond, 0.9, strategy, mutate)
}

// ablationRow is one row of an ablation table: its label and what it changes
// in the §6 setup (either may be nil).
type ablationRow struct {
	label    string
	strategy func() selection.Strategy
	mutate   func(*sim.Scenario)
}

// ablationRows appends one (label, mean_selected, failure_prob) row to t per
// entry of rows, each averaged over runs seeds; id names the ablation in
// errors.
func ablationRows(t *Table, id string, runs int, rows []ablationRow) (*Table, error) {
	for _, r := range rows {
		out, err := ablate(runs, r.strategy, r.mutate)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s %s: %w", id, r.label, err)
		}
		t.Rows = append(t.Rows, []string{r.label, f2(out.MeanK), f3(out.FailProb)})
	}
	return t, nil
}

// RunA1 compares Algorithm 1 against the single-replica and static
// strategies on the failure-vs-cost frontier.
func RunA1() (*Table, error) {
	t := &Table{
		Title:   "A1: strategy comparison (deadline=120ms, Pc=0.9, 7 replicas)",
		Columns: []string{"strategy", "mean_selected", "failure_prob", "server_work"},
		Notes: []string{
			"dynamic should sit between single-replica strategies (cheap, many failures) and all (expensive, few failures)",
		},
	}
	for _, s := range []variant{
		{name: "dynamic (paper)", strategy: dynamic},
		{name: "single-best", strategy: singleBest},
		{name: "random-1", strategy: func() selection.Strategy { return selection.NewRandom(1, 7) }},
		{name: "roundrobin-1", strategy: func() selection.Strategy { return selection.NewRoundRobin(1) }},
		{name: "fixed-2", strategy: func() selection.Strategy { return selection.FixedK{K: 2} }},
		{name: "fixed-3", strategy: func() selection.Strategy { return selection.FixedK{K: 3} }},
		{name: "all (active)", strategy: func() selection.Strategy { return selection.All{} }},
	} {
		out, err := ablate(ablationRuns, s.strategy, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: a1 %s: %w", s.name, err)
		}
		t.Rows = append(t.Rows, []string{s.name, f2(out.MeanK), f3(out.FailProb), fmt.Sprintf("%.0f", out.Served)})
	}
	return t, nil
}

// RunA2 sweeps the sliding-window size l.
func RunA2() (*Table, error) {
	t := &Table{
		Title:   "A2: sliding-window size sensitivity (deadline=120ms, Pc=0.9)",
		Columns: []string{"window_l", "mean_selected", "failure_prob"},
		Notes: []string{
			"the paper picks l=5; larger windows smooth the estimate but react slower to load shifts",
		},
	}
	var rows []ablationRow
	for _, l := range []int{3, 5, 10, 20, 50} {
		rows = append(rows, ablationRow{label: fmt.Sprintf("%d", l), mutate: func(sc *sim.Scenario) { sc.WindowSize = l }})
	}
	return ablationRows(t, "a2", ablationRuns, rows)
}

// RunA3 toggles the §5.3.3 overhead compensation with an exaggerated δ to
// make its mechanism visible (the real δ is microseconds — invisible at
// millisecond bins).
func RunA3() (*Table, error) {
	t := &Table{
		Title:   "A3: overhead compensation F(t-δ) on/off",
		Columns: []string{"delta", "mean_selected", "failure_prob"},
		Notes: []string{
			"compensation tightens the effective deadline, so selection becomes more conservative (more replicas, fewer failures)",
		},
	}
	rows := []ablationRow{{label: "off"}}
	for _, d := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		rows = append(rows, ablationRow{label: d.String(), mutate: func(sc *sim.Scenario) {
			sc.CompensateOverhead = true
			sc.FixedOverhead = d
		}})
	}
	return ablationRows(t, "a3", ablationRuns, rows)
}

// RunA4 crashes replicas mid-run and compares the paper's algorithm (with
// its m0 crash reserve) against the no-reserve variant and single-best.
func RunA4() (*Table, error) {
	// Crash two staggered replicas while both clients are active.
	crash := func(sc *sim.Scenario) {
		sc.Replicas[0].CrashAt = 5 * time.Second
		sc.Replicas[1].CrashAt = 20 * time.Second
	}
	t := &Table{
		Title:   "A4: crash tolerance (2 staggered crashes, deadline=120ms, Pc=0.9)",
		Columns: []string{"strategy", "mean_selected", "failure_prob"},
		Notes: []string{
			"the m0 reserve keeps the QoS intact across single crashes; no-reserve and single-best lose whole requests to crashed replicas",
		},
	}
	return ablationRows(t, "a4", ablationRuns, []ablationRow{
		{"dynamic (reserve)", dynamic, crash},
		{"dynamic-noreserve", func() selection.Strategy { return selection.NewDynamicNoReserve() }, crash},
		{"single-best", singleBest, crash},
	})
}

// RunA5 crashes two replicas simultaneously and compares f=1 vs f=2
// reserves (the paper's multi-failure extension).
func RunA5() (*Table, error) {
	crash := func(sc *sim.Scenario) {
		// Both crash in the same instant, mid-run.
		sc.Replicas[0].CrashAt = 10 * time.Second
		sc.Replicas[1].CrashAt = 10 * time.Second
	}
	t := &Table{
		Title:   "A5: simultaneous double crash, f=1 vs f=2 reserve",
		Columns: []string{"strategy", "mean_selected", "failure_prob"},
		Notes: []string{
			"f=2 pays more redundancy to keep the guarantee through a double crash",
		},
	}
	return ablationRows(t, "a5", ablationRuns, []ablationRow{
		{"dynamic f=1 (paper)", dynamic, crash},
		{"dynamic f=2", func() selection.Strategy { return selection.NewDynamicMulti(2) }, crash},
	})
}

// RunA6 compares the paper's windowed-W model with the queue-length-aware
// variant under bursty load (eight clients hammering the pool).
func RunA6() (*Table, error) {
	burst := func(queueAware bool) func(*sim.Scenario) {
		return func(sc *sim.Scenario) {
			sc.QueueAware = queueAware
			// Six extra aggressive clients create real queueing.
			for i := 0; i < 6; i++ {
				sc.Clients = append(sc.Clients, sim.ClientSpec{
					QoS:      wire.QoS{Deadline: 300 * time.Millisecond, MinProbability: 0},
					Requests: 50,
					Think:    120 * time.Millisecond,
				})
			}
		}
	}
	t := &Table{
		Title:   "A6: windowed W (paper) vs queue-length-aware W under bursty load",
		Columns: []string{"model", "mean_selected", "failure_prob"},
		Notes: []string{
			"queue-aware W reacts to the instantaneous queue length instead of the trailing window",
		},
	}
	return ablationRows(t, "a6", 3, []ablationRow{
		{label: "windowed W (paper)", mutate: burst(false)},
		{label: "queue-aware W", mutate: burst(true)},
	})
}

// RunA7 contrasts the two readings of the paper's "variance of 50
// milliseconds": sigma = 50 ms (heavy spread) vs variance = 50 ms²
// (sigma ≈ 7.07 ms, nearly deterministic service).
func RunA7() (*Table, error) {
	t := &Table{
		Title:   "A7: sigma-reading sensitivity for the simulated load",
		Columns: []string{"reading", "sigma", "mean_selected", "failure_prob"},
		Notes: []string{
			"with sigma=7.07ms nearly every replica meets deadlines >= 110ms alone, so redundancy collapses to the floor; sigma=50ms reproduces the paper's figure shapes",
		},
	}
	readings := []struct {
		name  string
		sigma time.Duration
	}{
		{"sigma=50ms (default)", 50 * time.Millisecond},
		{"variance=50ms^2", time.Duration(math.Sqrt(50) * float64(time.Millisecond))},
	}
	for _, r := range readings {
		out, err := ablate(ablationRuns, nil, func(sc *sim.Scenario) {
			sc.Replicas = pool(len(sc.Replicas), sim.ReplicaSpec{Service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: r.sigma}})
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: a7 %s: %w", r.name, err)
		}
		t.Rows = append(t.Rows, []string{r.name, r.sigma.String(), f2(out.MeanK), f3(out.FailProb)})
	}
	return t, nil
}
