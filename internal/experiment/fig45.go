package experiment

import (
	"fmt"
	"time"

	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// Fig45Config parameterizes the paper's main experiment (Figures 4 and 5):
// seven replicas with normally distributed simulated load, two clients with
// 50 requests each and one second of think time; client 1 is fixed at
// (t=200 ms, Pc≥0) and client 2 sweeps deadlines and probabilities.
type Fig45Config struct {
	// Deadlines are client 2's x-axis points (paper: 100..200 ms).
	Deadlines []time.Duration
	// Probabilities are client 2's series (paper: 0.9, 0.5, 0.0).
	Probabilities []float64
	// Replicas is the pool size (paper: 7).
	Replicas int
	// RequestsPerClient (paper: 50).
	RequestsPerClient int
	// Think is the inter-request delay (paper: 1 s).
	Think time.Duration
	// ServiceMean and ServiceSigma shape the simulated load (paper:
	// normal, mean 100 ms, "variance" 50 ms — read as sigma; see A7).
	ServiceMean  time.Duration
	ServiceSigma time.Duration
	// WindowSize is the repository window l (paper experiments: 5).
	WindowSize int
	// Runs averages each point over this many seeds to smooth the
	// 50-request sampling noise (1 reproduces a single paper run).
	Runs int
	// Seed is the base seed; run k uses Seed+k.
	Seed int64
}

// DefaultFig45Config reproduces the paper's setup.
func DefaultFig45Config() Fig45Config {
	deadlines := make([]time.Duration, 0, 11)
	for d := 100; d <= 200; d += 10 {
		deadlines = append(deadlines, time.Duration(d)*time.Millisecond)
	}
	return Fig45Config{
		Deadlines:         deadlines,
		Probabilities:     []float64{0.9, 0.5, 0.0},
		Replicas:          7,
		RequestsPerClient: 50,
		Think:             time.Second,
		ServiceMean:       100 * time.Millisecond,
		ServiceSigma:      50 * time.Millisecond,
		WindowSize:        5,
		Runs:              3,
		Seed:              42,
	}
}

// Fig45Row is one sweep point: both figures come from the same runs, so a
// row carries the Figure 4 metric (mean selected) and the Figure 5 metric
// (failure probability) together.
type Fig45Row struct {
	Deadline     time.Duration
	Probability  float64
	MeanSelected float64 // Figure 4 y-axis
	FailureProb  float64 // Figure 5 y-axis
	MeanResponse time.Duration
	P95Response  time.Duration
	TotalServed  float64 // server-side work units per run (cost)
}

// RunFig45 executes the sweep on the discrete-event simulator.
func RunFig45(cfg Fig45Config) ([]Fig45Row, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	var rows []Fig45Row
	for _, pc := range cfg.Probabilities {
		for _, deadline := range cfg.Deadlines {
			out, err := cfg.point(deadline, pc, nil, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig45Row{
				Deadline:     deadline,
				Probability:  pc,
				MeanSelected: out.MeanK,
				FailureProb:  out.FailProb,
				MeanResponse: out.MeanRT,
				P95Response:  out.P95,
				TotalServed:  out.Served,
			})
		}
	}
	return rows, nil
}

// point averages client 2 of the §6 setup at (deadline, pc) over cfg.Runs
// seeds from cfg.Seed; client 1 is fixed at (200 ms, Pc 0) in every run.
// strategy, when set, gives client 2 a fresh strategy each run (some are
// stateful); mutate, when set, edits each run's scenario.
func (cfg Fig45Config) point(deadline time.Duration, pc float64, strategy func() selection.Strategy, mutate func(*sim.Scenario)) (outcome, error) {
	return seeds{first: cfg.Seed, runs: cfg.Runs, client: 1}.average(func(seed int64) sim.Scenario {
		sc := sim.Scenario{
			Replicas: pool(cfg.Replicas, sim.ReplicaSpec{Service: stats.Normal{Mu: cfg.ServiceMean, Sigma: cfg.ServiceSigma}}),
			Clients: []sim.ClientSpec{
				{QoS: wire.QoS{Deadline: 200 * time.Millisecond, MinProbability: 0}, Requests: cfg.RequestsPerClient, Think: cfg.Think},
				{QoS: wire.QoS{Deadline: deadline, MinProbability: pc}, Requests: cfg.RequestsPerClient, Think: cfg.Think},
			},
			Network:    sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
			WindowSize: cfg.WindowSize,
			Seed:       seed,
		}
		if strategy != nil {
			sc.Clients[1].Strategy = strategy()
		}
		if mutate != nil {
			mutate(&sc)
		}
		return sc
	})
}

// Fig4Table formats the Figure 4 view of the rows.
func Fig4Table(rows []Fig45Row) *Table {
	t := &Table{
		Title:   "Figure 4: average number of replicas selected vs client deadline",
		Columns: []string{"deadline_ms", "Pc", "mean_selected", "server_work", "mean_tr_ms", "p95_tr_ms"},
		Notes: []string{
			"paper: fewer replicas at longer deadlines and laxer Pc; floor = 2; up to ~6 at (100ms, 0.9)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Deadline/time.Millisecond),
			f2(r.Probability),
			f2(r.MeanSelected),
			fmt.Sprintf("%.0f", r.TotalServed),
			fmt.Sprintf("%.1f", float64(r.MeanResponse)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.P95Response)/float64(time.Millisecond)),
		})
	}
	return t
}

// Fig5Table formats the Figure 5 view of the rows.
func Fig5Table(rows []Fig45Row) *Table {
	t := &Table{
		Title:   "Figure 5: observed probability of timing failures vs client deadline",
		Columns: []string{"deadline_ms", "Pc", "failure_prob", "allowed(1-Pc)", "ok"},
		Notes: []string{
			"paper: observed failure probability stays below the tolerated 1-Pc (max 0.08 vs 0.1; 0.32 vs 0.5; 0.36 vs 1.0)",
		},
	}
	for _, r := range rows {
		allowed := 1 - r.Probability
		ok := "yes"
		if r.FailureProb > allowed {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Deadline/time.Millisecond),
			f2(r.Probability),
			f3(r.FailureProb),
			f2(allowed),
			ok,
		})
	}
	return t
}
