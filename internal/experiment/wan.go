package experiment

import (
	"fmt"
	"sort"
	"time"

	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// A16 configuration: the deployment-ranking experiment over the WAN scenario
// family. A client in region 0 has a replica budget of m = 3 to spread over
// 3 regions; every placement (multiset of regions) is simulated twice — once
// with the paper's point-mass T (gateway history 1) and once with the
// distributional per-link T (gateway history a16TWindow) — and ranked by the
// fraction of requests that met the deadline.
//
// The links are bimodal by construction: epoched congestion (WANJitter) adds
// a16CongestExtra of one-way delay to a replica's link for whole epochs at a
// time, so consecutive measurements of T alternate between a low and a high
// mode. That is exactly the regime where remembering only the most recent
// sample misleads the predictor — one congested probe makes a replica look
// dead for the rest of the epoch's aftermath, one clean probe makes a
// congested replica look healthy — while the windowed T pmf converges on the
// true mixture.
const (
	a16Regions = 3
	a16Budget  = 3 // replicas to place
	a16Rate    = 8.0
	a16Horizon = 15 * time.Second

	a16Deadline  = 200 * time.Millisecond
	a16MinProb   = 0.9
	a16Staleness = 2 * time.Second

	a16ServiceMu    = 60 * time.Millisecond
	a16ServiceSigma = 10 * time.Millisecond

	// Congestion epochs: with the deadline at 200ms a congested link's
	// round trip (2 x 90ms) pushes even a local-quality replica past the
	// deadline, so during congested epochs a replica contributes ~zero
	// timeliness and the true F_Ri is the clean-epoch fraction.
	a16CongestPeriod = 400 * time.Millisecond
	a16CongestProb   = 0.25
	a16CongestExtra  = 90 * time.Millisecond

	// a16TWindow is the gateway-history window for the distributional mode;
	// large enough to hold both modes of a bimodal link at Prob 0.25.
	a16TWindow = 12

	a16Runs      = 3
	a16QuickRuns = 1
)

// a16Latency is the one-way inter-region latency matrix (region 0 hosts the
// client): a nearby region at 12ms and a far region at 40ms.
func a16Latency() [][]stats.DelayDist {
	ms := func(d time.Duration) stats.DelayDist { return stats.Constant{Delay: d} }
	return [][]stats.DelayDist{
		{nil, ms(12 * time.Millisecond), ms(40 * time.Millisecond)},
		{ms(12 * time.Millisecond), nil, ms(45 * time.Millisecond)},
		{ms(40 * time.Millisecond), ms(45 * time.Millisecond), nil},
	}
}

// a16Placements enumerates every multiset of a16Budget regions — the
// candidate deployments. For 3 replicas over 3 regions that is C(5,2) = 10
// placements, from all-local (0,0,0) to all-far (2,2,2).
func a16Placements() [][]int {
	var out [][]int
	var walk func(prefix []int, min int)
	walk = func(prefix []int, min int) {
		if len(prefix) == a16Budget {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for r := min; r < a16Regions; r++ {
			walk(append(prefix, r), r)
		}
	}
	walk(nil, 0)
	return out
}

func a16PlacementName(p []int) string {
	s := ""
	for i, r := range p {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d", r)
	}
	return s
}

// a16Outcome aggregates one (placement, T-mode) cell across seeds.
type a16Outcome struct {
	TimelyFrac float64
	MeanK      float64
	P95        time.Duration
}

// runA16Cell simulates one placement under one gateway-history setting.
func runA16Cell(placement []int, gatewayHist int, seed int64) (a16Outcome, error) {
	res, err := sim.Run(sim.Scenario{
		Replicas: pool(len(placement), sim.ReplicaSpec{Service: stats.Normal{Mu: a16ServiceMu, Sigma: a16ServiceSigma}}),
		Clients: []sim.ClientSpec{{
			QoS:      wire.QoS{Deadline: a16Deadline, MinProbability: a16MinProb},
			Requests: int(a16Rate * a16Horizon.Seconds()),
			Arrival:  stats.Exponential{MeanDelay: time.Duration(float64(time.Second) / a16Rate)},
			Region:   0,
		}},
		WAN: &sim.WANModel{
			Regions:       a16Regions,
			ReplicaRegion: append([]int(nil), placement...),
			Latency:       a16Latency(),
			Jitter: &sim.WANJitter{
				Period: a16CongestPeriod,
				Prob:   a16CongestProb,
				Extra:  stats.Constant{Delay: a16CongestExtra},
			},
		},
		GatewayHistory: gatewayHist,
		StalenessBound: a16Staleness,
		Seed:           seed,
		MaxTime:        4 * time.Hour,
	})
	if err != nil {
		return a16Outcome{}, err
	}
	c := res.Clients[0]
	out := a16Outcome{P95: c.ResponseTimePercentile(95)}
	timely, kSum := 0, 0
	for _, rec := range c.Records {
		kSum += rec.NumSelected
		if rec.Timely() {
			timely++
		}
	}
	if n := len(c.Records); n > 0 {
		out.TimelyFrac = float64(timely) / float64(n)
		out.MeanK = float64(kSum) / float64(n)
	}
	return out, nil
}

// a16Cell averages a cell over seeds.
func a16Cell(placement []int, gatewayHist, runs int) (a16Outcome, error) {
	var sum a16Outcome
	for run := 0; run < runs; run++ {
		out, err := runA16Cell(placement, gatewayHist, 1600+int64(run))
		if err != nil {
			return a16Outcome{}, fmt.Errorf("experiment: a16 placement=%s hist=%d: %w",
				a16PlacementName(placement), gatewayHist, err)
		}
		sum.TimelyFrac += out.TimelyFrac
		sum.MeanK += out.MeanK
		sum.P95 += out.P95
	}
	sum.TimelyFrac /= float64(runs)
	sum.MeanK /= float64(runs)
	sum.P95 /= time.Duration(runs)
	return sum, nil
}

// RunA16 ranks every placement of a16Budget replicas over a16Regions regions
// by timely fraction, under the point-mass T (paper default, gateway history
// 1) and under the distributional per-link T (gateway history a16TWindow),
// on links made bimodal by epoched congestion.
//
// The run fails (non-nil error) when the fence regresses: the distributional
// T's best placement must meet the deadline at least as often as the
// point-mass T's best placement. On bimodal links the point-mass predictor
// alternately over- and under-estimates every link, so a windowed T that
// sees the mixture must not lose — `make a16` is a CI fence, not just a
// table.
func RunA16(quick bool) (*Table, error) {
	runs := a16Runs
	if quick {
		runs = a16QuickRuns
	}
	t := &Table{
		Title: fmt.Sprintf("A16: WAN deployment ranking, %d replicas over %d regions (service ~N(%v,%v), deadline=%v, Pc=%.1f, congestion %v @ p=%.2f +%v one-way)",
			a16Budget, a16Regions, a16ServiceMu, a16ServiceSigma, a16Deadline, a16MinProb, a16CongestPeriod, a16CongestProb, a16CongestExtra),
		Columns: []string{"rank", "placement", "t_model", "timely_frac", "mean_k", "p95_ms"},
		Notes: []string{
			"placement lists the region of each of the 3 replicas; the client is in region 0 (region 1 at 12ms, region 2 at 40ms one-way)",
			"t_model point-mass = paper's most-recent T (gateway history 1); windowed = empirical per-link T pmf (gateway history 12)",
			fmt.Sprintf("timely_frac averages %d seeds; rank orders placements per t_model by timely_frac", runs),
			"fence: the windowed T's best placement must be >= the point-mass T's best placement in timely fraction",
		},
	}

	type ranked struct {
		placement []int
		out       a16Outcome
	}
	modes := []struct {
		name string
		hist int
	}{
		{"point-mass", 1},
		{"windowed", a16TWindow},
	}
	best := make(map[string]ranked)
	for _, mode := range modes {
		var rows []ranked
		for _, p := range a16Placements() {
			out, err := a16Cell(p, mode.hist, runs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ranked{placement: p, out: out})
		}
		sort.SliceStable(rows, func(i, j int) bool {
			return rows[i].out.TimelyFrac > rows[j].out.TimelyFrac
		})
		best[mode.name] = rows[0]
		for i, r := range rows {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", i+1),
				a16PlacementName(r.placement),
				mode.name,
				f3(r.out.TimelyFrac),
				f2(r.out.MeanK),
				fmt.Sprintf("%d", r.out.P95.Milliseconds()),
			})
		}
	}

	// Fence: on bimodal links the windowed T's best deployment meets the
	// deadline at least as often as the point-mass T's best deployment.
	pm, win := best["point-mass"], best["windowed"]
	if win.out.TimelyFrac < pm.out.TimelyFrac {
		return nil, fmt.Errorf("experiment: a16 fence: windowed T best placement %s timely %.3f < point-mass best %s timely %.3f",
			a16PlacementName(win.placement), win.out.TimelyFrac,
			a16PlacementName(pm.placement), pm.out.TimelyFrac)
	}
	return t, nil
}
