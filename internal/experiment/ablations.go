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

// ablationBase is the shared workload for the ablation studies: the Fig-4/5
// setup at a mid-sweep point (deadline 120 ms, Pc 0.9) where the algorithm
// has real work to do.
type ablationBase struct {
	deadline time.Duration
	pc       float64
	replicas int
	requests int
	think    time.Duration
	mean     time.Duration
	sigma    time.Duration
	seed     int64
	runs     int
}

func defaultAblationBase() ablationBase {
	return ablationBase{
		deadline: 120 * time.Millisecond,
		pc:       0.9,
		replicas: 7,
		requests: 50,
		think:    time.Second,
		mean:     100 * time.Millisecond,
		sigma:    50 * time.Millisecond,
		seed:     42,
		runs:     5,
	}
}

// point aggregates the client-2 metrics across runs of one scenario
// variant. mutate edits the scenario before each run (e.g. crash plans);
// strategy may be nil for the paper default.
func (b ablationBase) point(strategy func() selection.Strategy, mutate func(*sim.Scenario)) (meanSel, failProb, served float64, err error) {
	for run := 0; run < b.runs; run++ {
		sc := sim.Scenario{
			Replicas: pool(b.replicas, sim.ReplicaSpec{Service: stats.Normal{Mu: b.mean, Sigma: b.sigma}}),
			Clients: []sim.ClientSpec{
				{QoS: wire.QoS{Deadline: 200 * time.Millisecond, MinProbability: 0}, Requests: b.requests, Think: b.think},
				{QoS: wire.QoS{Deadline: b.deadline, MinProbability: b.pc}, Requests: b.requests, Think: b.think},
			},
			Network: sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
			Seed:    b.seed + int64(run),
		}
		if strategy != nil {
			// Fresh strategy instance per run: some strategies are stateful.
			sc.Clients[1].Strategy = strategy()
		}
		if mutate != nil {
			mutate(&sc)
		}
		res, rerr := sim.Run(sc)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		c2 := res.Clients[1]
		meanSel += c2.MeanSelected()
		failProb += c2.FailureProbability()
		served += float64(res.TotalServed())
	}
	n := float64(b.runs)
	return meanSel / n, failProb / n, served / n, nil
}

// RunA1 compares Algorithm 1 against the single-replica and static
// strategies on the failure-vs-cost frontier.
func RunA1() (*Table, error) {
	b := defaultAblationBase()
	t := &Table{
		Title:   "A1: strategy comparison (deadline=120ms, Pc=0.9, 7 replicas)",
		Columns: []string{"strategy", "mean_selected", "failure_prob", "server_work"},
		Notes: []string{
			"dynamic should sit between single-replica strategies (cheap, many failures) and all (expensive, few failures)",
		},
	}
	strategies := []struct {
		name string
		mk   func() selection.Strategy
	}{
		{"dynamic (paper)", func() selection.Strategy { return selection.NewDynamic() }},
		{"single-best", func() selection.Strategy { return selection.SingleBest{} }},
		{"random-1", func() selection.Strategy { return selection.NewRandom(1, 7) }},
		{"roundrobin-1", func() selection.Strategy { return selection.NewRoundRobin(1) }},
		{"fixed-2", func() selection.Strategy { return selection.FixedK{K: 2} }},
		{"fixed-3", func() selection.Strategy { return selection.FixedK{K: 3} }},
		{"all (active)", func() selection.Strategy { return selection.All{} }},
	}
	for _, s := range strategies {
		sel, fail, served, err := b.point(s.mk, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: a1 %s: %w", s.name, err)
		}
		t.Rows = append(t.Rows, []string{s.name, f2(sel), f3(fail), fmt.Sprintf("%.0f", served)})
	}
	return t, nil
}

// RunA2 sweeps the sliding-window size l.
func RunA2() (*Table, error) {
	b := defaultAblationBase()
	t := &Table{
		Title:   "A2: sliding-window size sensitivity (deadline=120ms, Pc=0.9)",
		Columns: []string{"window_l", "mean_selected", "failure_prob"},
		Notes: []string{
			"the paper picks l=5; larger windows smooth the estimate but react slower to load shifts",
		},
	}
	for _, l := range []int{3, 5, 10, 20, 50} {
		window := l
		sel, fail, _, err := b.point(nil, func(sc *sim.Scenario) { sc.WindowSize = window })
		if err != nil {
			return nil, fmt.Errorf("experiment: a2 l=%d: %w", l, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", l), f2(sel), f3(fail)})
	}
	return t, nil
}

// RunA3 toggles the §5.3.3 overhead compensation with an exaggerated δ to
// make its mechanism visible (the real δ is microseconds — invisible at
// millisecond bins).
func RunA3() (*Table, error) {
	b := defaultAblationBase()
	t := &Table{
		Title:   "A3: overhead compensation F(t-δ) on/off",
		Columns: []string{"delta", "mean_selected", "failure_prob"},
		Notes: []string{
			"compensation tightens the effective deadline, so selection becomes more conservative (more replicas, fewer failures)",
		},
	}
	for _, d := range []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond} {
		delta := d
		sel, fail, _, err := b.point(nil, func(sc *sim.Scenario) {
			if delta > 0 {
				sc.CompensateOverhead = true
				sc.FixedOverhead = delta
			}
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: a3 δ=%v: %w", d, err)
		}
		label := "off"
		if delta > 0 {
			label = delta.String()
		}
		t.Rows = append(t.Rows, []string{label, f2(sel), f3(fail)})
	}
	return t, nil
}

// RunA4 crashes replicas mid-run and compares the paper's algorithm (with
// its m0 crash reserve) against the no-reserve variant and single-best.
func RunA4() (*Table, error) {
	b := defaultAblationBase()
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
	strategies := []struct {
		name string
		mk   func() selection.Strategy
	}{
		{"dynamic (reserve)", func() selection.Strategy { return selection.NewDynamic() }},
		{"dynamic-noreserve", func() selection.Strategy { return selection.NewDynamicNoReserve() }},
		{"single-best", func() selection.Strategy { return selection.SingleBest{} }},
	}
	for _, s := range strategies {
		sel, fail, _, err := b.point(s.mk, crash)
		if err != nil {
			return nil, fmt.Errorf("experiment: a4 %s: %w", s.name, err)
		}
		t.Rows = append(t.Rows, []string{s.name, f2(sel), f3(fail)})
	}
	return t, nil
}

// RunA5 crashes two replicas simultaneously and compares f=1 vs f=2
// reserves (the paper's multi-failure extension).
func RunA5() (*Table, error) {
	b := defaultAblationBase()
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
	strategies := []struct {
		name string
		mk   func() selection.Strategy
	}{
		{"dynamic f=1 (paper)", func() selection.Strategy { return selection.NewDynamic() }},
		{"dynamic f=2", func() selection.Strategy { return selection.NewDynamicMulti(2) }},
	}
	for _, s := range strategies {
		sel, fail, _, err := b.point(s.mk, crash)
		if err != nil {
			return nil, fmt.Errorf("experiment: a5 %s: %w", s.name, err)
		}
		t.Rows = append(t.Rows, []string{s.name, f2(sel), f3(fail)})
	}
	return t, nil
}

// RunA6 compares the paper's windowed-W model with the queue-length-aware
// variant under bursty load (eight clients hammering the pool).
func RunA6() (*Table, error) {
	b := defaultAblationBase()
	b.runs = 3
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
	for _, v := range []struct {
		name string
		qa   bool
	}{{"windowed W (paper)", false}, {"queue-aware W", true}} {
		sel, fail, _, err := b.point(nil, burst(v.qa))
		if err != nil {
			return nil, fmt.Errorf("experiment: a6 %s: %w", v.name, err)
		}
		t.Rows = append(t.Rows, []string{v.name, f2(sel), f3(fail)})
	}
	return t, nil
}

// RunA7 contrasts the two readings of the paper's "variance of 50
// milliseconds": sigma = 50 ms (heavy spread) vs variance = 50 ms²
// (sigma ≈ 7.07 ms, nearly deterministic service).
func RunA7() (*Table, error) {
	b := defaultAblationBase()
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
		bb := b
		bb.sigma = r.sigma
		sel, fail, _, err := bb.point(nil, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: a7 %s: %w", r.name, err)
		}
		t.Rows = append(t.Rows, []string{r.name, r.sigma.String(), f2(sel), f3(fail)})
	}
	return t, nil
}
