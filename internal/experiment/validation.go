package experiment

import (
	"fmt"
	"slices"
	"time"

	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// RunV1 validates the probabilistic model's calibration: for every request
// the scheduler predicts P_K(t) (Equation 1 over the selected subset); if
// the model is well calibrated, requests predicted to succeed with
// probability ~p should succeed ~p of the time. The paper claims this
// indirectly ("the model ... was able to accurately predict the set of
// replicas that would be able to meet the client's deadline"); this
// experiment measures it directly by binning predictions against outcomes.
func RunV1() (*Table, error) {
	type bin struct {
		total, timely int
		predSum       float64
	}
	bins := make([]bin, 10) // [0,0.1), [0.1,0.2), ..., [0.9,1.0]

	// Sweep deadlines and Pc values so predictions cover the whole range,
	// over several seeds for volume.
	for seed := int64(0); seed < 10; seed++ {
		for _, deadline := range []time.Duration{90, 110, 130, 160} {
			for _, pc := range []float64{0.95, 0.7, 0.4, 0.1} {
				res, err := sim.Run(sim.Scenario{
					Replicas: pool(7, sim.ReplicaSpec{Service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: 50 * time.Millisecond}}),
					Clients: []sim.ClientSpec{{
						QoS:      wire.QoS{Deadline: deadline * time.Millisecond, MinProbability: pc},
						Requests: 50,
						Think:    200 * time.Millisecond,
					}},
					Network: sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
					Seed:    seed*1000 + int64(deadline) + int64(pc*100),
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: v1: %w", err)
				}
				for _, rec := range res.Clients[0].Records {
					if rec.ColdStart {
						continue // no prediction on bootstrap
					}
					idx := int(rec.Predicted * 10)
					if idx > 9 {
						idx = 9
					}
					if idx < 0 {
						idx = 0
					}
					bins[idx].total++
					bins[idx].predSum += rec.Predicted
					if !rec.Failure {
						bins[idx].timely++
					}
				}
			}
		}
	}

	t := &Table{
		Title:   "V1: model calibration — predicted P_K(t) vs observed timely fraction",
		Columns: []string{"predicted_bin", "requests", "mean_predicted", "observed_timely", "gap"},
		Notes: []string{
			"a calibrated model has observed ≈ predicted in every populated bin (§5.3: the model 'was able to accurately predict')",
			"Equation 1 ignores the crash reserve's contribution, so observed may exceed predicted (conservative), never lag far below",
		},
	}
	for i, b := range bins {
		if b.total == 0 {
			continue
		}
		pred := b.predSum / float64(b.total)
		obs := float64(b.timely) / float64(b.total)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%.1f,%.1f)", float64(i)/10, float64(i+1)/10),
			fmt.Sprintf("%d", b.total),
			f3(pred),
			f3(obs),
			fmt.Sprintf("%+.3f", obs-pred),
		})
	}
	return t, nil
}

// RunA8 evaluates the paper's gateway-delay-window extension ("for
// environments in which [stable LAN traffic] is not true, it would be
// simple to extend our approach to record the value of the gateway-to-
// gateway delay over a sliding window", §5.3.1) under a spiky network.
func RunA8() (*Table, error) {
	spiky := func(history int) func(*sim.Scenario) {
		return func(sc *sim.Scenario) {
			sc.Network.SpikeProb = 0.15
			sc.Network.Spike = stats.Constant{Delay: 60 * time.Millisecond}
			sc.GatewayHistory = history
		}
	}
	t := &Table{
		Title:   "A8: gateway-delay estimation under a spiky LAN (15% of messages +60ms)",
		Columns: []string{"T_estimate", "mean_selected", "failure_prob"},
		Notes: []string{
			"most-recent T (paper default) whipsaws after each spike; a windowed T pmf convolved as a third factor absorbs it",
		},
	}
	return ablationRows(t, "a8", ablationRuns, []ablationRow{
		{label: "most-recent (paper)", mutate: spiky(1)},
		{label: "window-5 pmf", mutate: spiky(5)},
		{label: "window-20 pmf", mutate: spiky(20)},
	})
}

// a9Sweep is the load sweep as the paper's protocol would run it: no
// staleness bound, 150 requests per run at every rate, and each rate's seeds
// 100 apart.
var a9Sweep = loadSweep{
	id:       "a9",
	service:  stats.Normal{Mu: 100 * time.Millisecond, Sigma: 30 * time.Millisecond},
	rateSeed: 100,
	requests: 150,
}

// RunA9 sweeps offered load with an open-loop Poisson workload — the regime
// the paper's closed-loop protocol (think time 1 s) never enters. It shows
// where the dynamic algorithm's redundancy turns counterproductive: extra
// copies consume the very capacity that queueing needs.
func RunA9() (*Table, error) {
	t := &Table{
		Title:   "A9: open-loop saturation sweep (Poisson arrivals, 5 replicas @ ~100ms, deadline 250ms, Pc 0.9)",
		Columns: []string{"arrival_rate_rps", "strategy", "mean_selected", "failure_prob", "p95_tr_ms"},
		Notes: []string{
			"capacity = 5 replicas / 0.1s = 50 rps of single-copy work; redundancy divides it",
			"under overload the single-best baseline keeps queues shorter than redundant dispatch",
		},
	}
	for _, rate := range []float64{5, 15, 30, 60} {
		for _, v := range []variant{{name: "dynamic", strategy: dynamic}, {name: "single-best", strategy: singleBest}} {
			out, err := a9Sweep.cell(rate, v)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", rate),
				v.name,
				f2(out.MeanK),
				f3(out.FailProb),
				fmt.Sprintf("%.1f", float64(out.P95)/float64(time.Millisecond)),
			})
		}
	}
	return t, nil
}

// RunA10 checks the model's distribution robustness: the windowed empirical
// pmf makes no parametric assumption, so the Figure-5 bound should hold for
// service-time families far from the paper's normal — exponential,
// heavy-tailed lognormal, and bimodal (stall-prone) — with matched ~100 ms
// means.
func RunA10() (*Table, error) {
	families := []struct {
		name string
		dist stats.DelayDist
	}{
		{"normal(100,50) [paper]", stats.Normal{Mu: 100 * time.Millisecond, Sigma: 50 * time.Millisecond}},
		{"exponential(100)", stats.Exponential{MeanDelay: 100 * time.Millisecond}},
		// Lognormal with mean 100ms and sigma(log) = 0.8: mu = ln(0.1) - 0.32.
		{"lognormal heavy tail", stats.LogNormal{Mu: -2.6226, Sigma: 0.8}},
		{"bimodal 12% stalls", stats.Bimodal{
			Light:     stats.Normal{Mu: 78 * time.Millisecond, Sigma: 20 * time.Millisecond},
			Heavy:     stats.Normal{Mu: 260 * time.Millisecond, Sigma: 40 * time.Millisecond},
			HeavyProb: 0.12,
		}},
	}
	t := &Table{
		Title:   "A10: service-distribution robustness (deadline=150ms, Pc=0.9, 7 replicas)",
		Columns: []string{"family", "mean_selected", "failure_prob", "bound_held"},
		Notes: []string{
			"the windowed pmf is non-parametric; the Pc bound should hold for every family, at family-dependent redundancy",
		},
	}
	cfg := DefaultFig45Config()
	cfg.Runs, cfg.Seed = 5, 300
	for _, fam := range families {
		out, err := cfg.point(150*time.Millisecond, 0.9, nil, func(sc *sim.Scenario) {
			sc.Replicas = pool(len(sc.Replicas), sim.ReplicaSpec{Service: fam.dist})
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: a10 %s: %w", fam.name, err)
		}
		held := "yes"
		if out.FailProb > 0.1 {
			held = "NO"
		}
		t.Rows = append(t.Rows, []string{fam.name, f2(out.MeanK), f3(out.FailProb), held})
	}
	return t, nil
}

// RunA11 breaks the model's single-server FIFO assumption: replicas run k
// parallel workers, so the windowed queuing-delay history misestimates the
// wait. The question is whether the bound degrades gracefully.
func RunA11() (*Table, error) {
	t := &Table{
		Title:   "A11: FIFO-assumption robustness — k workers per replica (3 replicas, 6 aggressive clients, deadline=250ms, Pc=0.9)",
		Columns: []string{"workers_k", "mean_selected", "failure_prob"},
		Notes: []string{
			"more workers per replica shrink real waits below the windowed estimate; the model errs conservative, not optimistic",
		},
	}
	for _, k := range []int{1, 2, 4} {
		out, err := seeds{first: 400, runs: 3}.average(func(seed int64) sim.Scenario {
			client := sim.ClientSpec{
				QoS:      wire.QoS{Deadline: 250 * time.Millisecond, MinProbability: 0.9},
				Requests: 50,
				Think:    150 * time.Millisecond,
			}
			return sim.Scenario{
				Replicas: pool(3, sim.ReplicaSpec{Service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: 30 * time.Millisecond}, Workers: k}),
				Clients:  slices.Repeat([]sim.ClientSpec{client}, 6),
				Network:  sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
				Seed:     seed,
			}
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: a11 k=%d: %w", k, err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), f2(out.MeanK), f3(out.FailProb)})
	}
	return t, nil
}

// RunA12 measures client scalability — the paper's §1 motivation: "the
// response time of a service does not significantly degrade with an
// increase in the number of clients accessing the service". The client
// count sweeps upward at fixed QoS. Below capacity the bound holds at the
// redundancy floor; past capacity the sweep exposes a positive feedback
// loop in Algorithm 1: degraded histories push every F_Ri(t) down, the
// line-15 fallback selects ALL replicas, and the extra copies deepen the
// overload. The paper's evaluation (1 req/s clients) never enters this
// regime. The amplification is fixed by the budgeted strategy plus
// admission control (BudgetedSelection + OverloadConfig) and fenced by the
// a13 overload sweep. Each run's rates are averaged over every client.
func RunA12() (*Table, error) {
	t := &Table{
		Title:   "A12: client scalability (7 replicas @ ~100ms, deadline=200ms, Pc=0.9, think 400ms)",
		Columns: []string{"clients", "strategy", "mean_selected", "failure_prob", "mean_tr_ms", "server_work"},
		Notes: []string{
			"below capacity the bound holds at floor redundancy; past capacity the paper's select-all fallback amplifies overload",
			"the cap-3 variant trades the unreachable Pc guarantee for graceful degradation under overload",
			"the amplification is fixed by budgeted selection + admission control; a13 fences the fix across a load sweep",
		},
	}
	for _, nClients := range []int{1, 2, 4, 8, 12} {
		for _, v := range []variant{
			{name: "dynamic (paper)", strategy: dynamic},
			{name: "dynamic-cap3", strategy: func() selection.Strategy { return selection.NewDynamicCapped(3) }},
		} {
			out, err := seeds{first: 500, runs: 3, client: everyClient}.average(func(seed int64) sim.Scenario {
				clients := make([]sim.ClientSpec, nClients)
				for i := range clients {
					clients[i] = sim.ClientSpec{
						QoS:      wire.QoS{Deadline: 200 * time.Millisecond, MinProbability: 0.9},
						Requests: 50,
						Think:    400 * time.Millisecond,
						Strategy: v.strategy(),
						// Stagger starts so cold-start floods don't collide.
						StartAt: time.Duration(i) * 50 * time.Millisecond,
					}
				}
				return sim.Scenario{
					Replicas: pool(7, sim.ReplicaSpec{Service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: 50 * time.Millisecond}}),
					Clients:  clients,
					Network:  sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
					Seed:     seed,
				}
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: a12 n=%d: %w", nClients, err)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nClients),
				v.name,
				f2(out.MeanK),
				f3(out.FailProb),
				fmt.Sprintf("%.1f", float64(out.MeanRT)/float64(time.Millisecond)),
				fmt.Sprintf("%.0f", out.Served),
			})
		}
	}
	return t, nil
}
