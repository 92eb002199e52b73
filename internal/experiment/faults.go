package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aqua"
	"aqua/internal/stats"
)

// FaultsConfig parameterizes the fault-injection experiment: a real cluster
// (replicas, clients, and handlers are live goroutines exchanging messages)
// whose transport is wrapped in the fault injector. After a clean warm-up,
// faults are armed mid-run — background message loss on every client→replica
// link plus a delay spike on half the pool — and each handler's timely-
// response rate is measured against the same QoS contract.
type FaultsConfig struct {
	// Replicas is the pool size.
	Replicas int
	// Deadline and Pc form the QoS contract (t, Pc) every handler is held to.
	Deadline time.Duration
	Pc       float64
	// ServiceMean and ServiceSigma shape the replicas' simulated load.
	ServiceMean  time.Duration
	ServiceSigma time.Duration
	// Loss is the drop probability injected on every client→replica link.
	Loss float64
	// SlowReplicas is how many replicas (lowest IDs first — which includes
	// the passive handler's primary) receive the delay spike.
	SlowReplicas int
	// SlowDelay is the extra one-way latency injected on each direction of a
	// slow replica's links, so a spiked replica's response time grows by
	// ~2×SlowDelay.
	SlowDelay time.Duration
	// Warmup is how many clean (fault-free) calls each handler makes first,
	// so the predictors start from an honest model of the healthy system.
	Warmup int
	// Requests is how many calls each handler makes after the faults arm.
	Requests int
	// Seed drives the injector's fault coins and the replicas' load draws.
	Seed int64
}

// DefaultFaultsConfig matches the ISSUE acceptance environment: 20% message
// loss plus a delay spike (2×SlowDelay ≈ 2× the healthy response time) on
// half the replicas, against a (60ms, 0.9) contract.
func DefaultFaultsConfig() FaultsConfig {
	return FaultsConfig{
		Replicas:     6,
		Deadline:     60 * time.Millisecond,
		Pc:           0.9,
		ServiceMean:  15 * time.Millisecond,
		ServiceSigma: 4 * time.Millisecond,
		Loss:         0.2,
		SlowReplicas: 3,
		SlowDelay:    30 * time.Millisecond,
		Warmup:       30,
		Requests:     120,
		Seed:         11,
	}
}

// FaultsRow is one handler's measured behaviour under injected faults.
type FaultsRow struct {
	Handler      string
	Requests     int
	Timely       float64       // fraction of calls answered within Deadline
	Errors       int           // calls that returned no usable reply at all
	MeanSelected float64       // mean replicas selected per call (0 = n/a)
	MeanRT       time.Duration // mean elapsed time over completed calls
}

// FaultsResult is the completed experiment.
type FaultsResult struct {
	Cfg     FaultsConfig
	Rows    []FaultsRow
	Dropped uint64 // messages the injector discarded
	Delayed uint64 // messages the injector deferred
}

// caller abstracts the three handler types behind one measured call.
type caller interface {
	Call(ctx context.Context, method string, payload []byte) ([]byte, error)
}

// RunFaults builds the cluster, warms each handler up on a clean network,
// arms the faults through the shared injector handle (nothing restarts — the
// flip is the runtime-adjustability the injector exists for), and measures
// every handler against the same contract.
func RunFaults(cfg FaultsConfig) (*FaultsResult, error) {
	if cfg.Replicas < 2 || cfg.SlowReplicas < 0 || cfg.SlowReplicas >= cfg.Replicas {
		return nil, fmt.Errorf("experiment: faults needs >= 2 replicas and 0 <= slow < replicas")
	}
	if cfg.Requests <= 0 || cfg.Deadline <= 0 {
		return nil, fmt.Errorf("experiment: faults needs requests and a deadline")
	}
	inj := aqua.NewFaultInjector(cfg.Seed)
	cluster, err := aqua.NewCluster("faults", cfg.Replicas,
		func(method string, payload []byte) ([]byte, error) { return payload, nil },
		aqua.WithFaultInjection(inj),
		aqua.WithSimulatedLoad(cfg.ServiceMean, cfg.ServiceSigma),
		aqua.WithSeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiment: faults cluster: %w", err)
	}
	defer cluster.Close()

	// Slow set: lowest replica IDs first, so the passive handler's primary
	// (the lowest sorted ID) is among the delay-spiked replicas.
	replicas := cluster.Replicas()
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].ID() < replicas[j].ID() })

	qos := aqua.QoS{Deadline: cfg.Deadline, MinProbability: cfg.Pc}
	// MaxWait well past the deadline: a late reply must count as a timing
	// failure, not turn into a transport error.
	maxWait := 5 * cfg.Deadline

	dynamic, err := cluster.NewClient(aqua.ClientConfig{
		Name: "faults-dynamic", QoS: qos, MaxWait: maxWait,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: faults dynamic client: %w", err)
	}
	defer dynamic.Close()
	single, err := cluster.NewClient(aqua.ClientConfig{
		Name: "faults-single-best", QoS: qos,
		Strategy: aqua.SingleBestSelection(), MaxWait: maxWait,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: faults single-best client: %w", err)
	}
	defer single.Close()
	passive, err := cluster.NewPassiveClient("faults-passive", cfg.Deadline)
	if err != nil {
		return nil, fmt.Errorf("experiment: faults passive client: %w", err)
	}
	defer passive.Close()

	ctx := context.Background()
	for _, c := range []caller{dynamic, single, passive} {
		for i := 0; i < cfg.Warmup; i++ {
			if _, err := c.Call(ctx, "", nil); err != nil {
				return nil, fmt.Errorf("experiment: faults warmup: %w", err)
			}
		}
	}

	// Arm the faults mid-run. Request direction: Loss on every link into a
	// replica, plus SlowDelay into the slow set. Response direction: SlowDelay
	// out of the slow set.
	for i, r := range replicas {
		addr := aqua.Addr(r.Addr())
		in := aqua.FaultPolicy{DropProb: cfg.Loss}
		if i < cfg.SlowReplicas {
			in.Delay = stats.Constant{Delay: cfg.SlowDelay}
			inj.SetLink(addr, aqua.AnyAddr, aqua.FaultPolicy{
				Delay: stats.Constant{Delay: cfg.SlowDelay},
			})
		}
		inj.SetLink(aqua.AnyAddr, addr, in)
	}

	res := &FaultsResult{Cfg: cfg}
	for _, h := range []struct {
		name    string
		c       caller
		statsOf func() aqua.Stats // nil: the passive handler keeps none
	}{{"dynamic", dynamic, dynamic.Stats}, {"single-best", single, single.Stats}, {"passive", passive, nil}} {
		row := measureCalls(cfg.Requests, cfg.Deadline, 0, h.statsOf, func(int) error {
			_, err := h.c.Call(ctx, "", nil)
			return err
		})
		row.Handler = h.name
		res.Rows = append(res.Rows, row)
	}

	fs := inj.Stats()
	res.Dropped, res.Delayed = fs.Dropped, fs.Delayed
	return res, nil
}

// measureCalls makes n calls, the i-th through call(i), and tallies them
// against deadline: the timely share of all n, the errors, the mean elapsed
// time of the calls that completed and, when statsOf is set, mean |K| from
// how far its Stats moved. A positive pace holds each call to at least that
// long, sleeping off the rest.
func measureCalls(n int, deadline, pace time.Duration, statsOf func() aqua.Stats, call func(i int) error) FaultsRow {
	var before aqua.Stats
	if statsOf != nil {
		before = statsOf()
	}
	row := FaultsRow{Requests: n}
	timely, completed := 0, 0
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		err := call(i)
		elapsed := time.Since(start)
		if gap := pace - elapsed; gap > 0 {
			time.Sleep(gap)
		}
		if err != nil {
			row.Errors++
			continue
		}
		completed++
		total += elapsed
		if elapsed <= deadline {
			timely++
		}
	}
	row.Timely = float64(timely) / float64(n)
	if completed > 0 {
		row.MeanRT = total / time.Duration(completed)
	}
	if statsOf != nil {
		after := statsOf()
		if dr := after.Requests - before.Requests; dr > 0 {
			row.MeanSelected = float64(after.SelectedTotal-before.SelectedTotal) / float64(dr)
		}
	}
	return row
}

// FaultsTable formats the result against the contract.
func FaultsTable(r *FaultsResult) *Table {
	bar := r.Cfg.Pc - 0.05
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		verdict := "violates Pc"
		switch {
		case row.Timely >= r.Cfg.Pc:
			verdict = "meets Pc"
		case row.Timely >= bar:
			verdict = "within Pc-0.05"
		}
		sel := "-"
		if row.MeanSelected > 0 {
			sel = f2(row.MeanSelected)
		}
		rows = append(rows, []string{
			row.Handler,
			fmt.Sprintf("%d", row.Requests),
			f3(row.Timely),
			f2(r.Cfg.Pc),
			verdict,
			fmt.Sprintf("%.1f", float64(row.MeanRT)/float64(time.Millisecond)),
			sel,
			fmt.Sprintf("%d", row.Errors),
		})
	}
	return &Table{
		Title:   "Faults: timely-response rate under injected loss + delay spikes",
		Columns: []string{"handler", "requests", "timely", "Pc", "verdict", "mean_rt_ms", "mean_selected", "errors"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("contract (t=%v, Pc=%.2f); faults armed mid-run after %d clean calls per handler",
				r.Cfg.Deadline, r.Cfg.Pc, r.Cfg.Warmup),
			fmt.Sprintf("injected: %.0f%% loss on every request link, +%v/direction on the %d lowest-ID replicas (incl. the passive primary); injector dropped %d and delayed %d messages",
				r.Cfg.Loss*100, r.Cfg.SlowDelay, r.Cfg.SlowReplicas, r.Dropped, r.Delayed),
			"dynamic reroutes around the spiked replicas and over-provisions against loss; single-best has no redundancy and passive pays a failover timeout per slow attempt",
		},
	}
}
