package experiment

import (
	"context"
	"fmt"
	"slices"
	"time"

	"aqua"
)

// E0Config parameterizes the minimum-response-time measurement (§6: "For a
// minimum-sized request having negligible service time, the minimum value we
// achieved for the response time ... was about 3.5 milliseconds" — the floor
// of the CORBA/Ensemble stack on the paper's testbed).
type E0Config struct {
	// Requests is how many round trips to measure, after e0Warmup untimed
	// ones.
	Requests int
	// UseTCP measures over a real TCP loopback socket; false uses the
	// in-memory transport (the pure software-stack floor).
	UseTCP bool
}

// DefaultE0Config matches the paper's minimal setup, with enough round trips
// that the min resolves a change of about a microsecond between runs.
func DefaultE0Config() E0Config { return E0Config{Requests: 5000, UseTCP: true} }

// e0Warmup is how many round trips run untimed first: the connection dial,
// the repository's first windows and the pools' growth stay out of the
// measurement.
const e0Warmup = 200

// E0Result is the measured response-time floor.
type E0Result struct {
	Min, Median, Mean, Max time.Duration
	Requests               int
	Transport              string
}

// RunE0 starts one replica with a zero-work handler and measures tr over
// repeated minimum-size requests through the full timing-fault-handler
// path: selection, dispatch, queueing, perf piggybacking, reply delivery.
func RunE0(cfg E0Config) (*E0Result, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiment: e0 requires at least one request")
	}
	name := "inmem"
	var opts []aqua.ClusterOption
	if cfg.UseTCP {
		name = "tcp-loopback"
		opts = append(opts, aqua.WithTCP())
	}
	cluster, err := aqua.NewCluster("e0", 1,
		func(string, []byte) ([]byte, error) { return []byte{1}, nil }, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: e0 cluster: %w", err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(aqua.ClientConfig{
		Name: "e0-client",
		QoS:  aqua.QoS{Deadline: time.Second, MinProbability: 0},
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: e0 client: %w", err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for i := 0; i < e0Warmup; i++ {
		if _, err := client.Call(ctx, "", []byte{0}); err != nil {
			return nil, fmt.Errorf("experiment: e0 warm-up request %d: %w", i, err)
		}
	}
	trs := make([]time.Duration, cfg.Requests)
	var total time.Duration
	for i := range trs {
		start := time.Now()
		if _, err := client.Call(ctx, "", []byte{0}); err != nil {
			return nil, fmt.Errorf("experiment: e0 request %d: %w", i, err)
		}
		trs[i] = time.Since(start)
		total += trs[i]
	}
	slices.Sort(trs)
	return &E0Result{
		Min:       trs[0],
		Median:    trs[len(trs)/2],
		Mean:      total / time.Duration(len(trs)),
		Max:       trs[len(trs)-1],
		Requests:  cfg.Requests,
		Transport: name,
	}, nil
}

// E0Table formats the result next to the paper's reported floor.
func E0Table(r *E0Result) *Table {
	return &Table{
		Title:   "E0: minimum response time, minimum-size request, negligible service time",
		Columns: []string{"transport", "requests", "min", "median", "mean", "max"},
		Rows: [][]string{{
			r.Transport,
			fmt.Sprintf("%d", r.Requests),
			r.Min.String(),
			r.Median.String(),
			r.Mean.String(),
			r.Max.String(),
		}},
		Notes: []string{
			fmt.Sprintf("%d untimed warm-up requests first (dial, first windows, pool growth)", e0Warmup),
			"paper: ~3.5 ms over CORBA/IIOP + Maestro/Ensemble on 2001 hardware; a Go/TCP stack on modern hardware sits far lower — the experiment verifies the floor exists and is stable, not the absolute value",
		},
	}
}
