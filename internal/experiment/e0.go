package experiment

import (
	"context"
	"fmt"
	"time"

	"aqua"
)

// E0Config parameterizes the minimum-response-time measurement (§6: "For a
// minimum-sized request having negligible service time, the minimum value we
// achieved for the response time ... was about 3.5 milliseconds" — the floor
// of the CORBA/Ensemble stack on the paper's testbed).
type E0Config struct {
	// Requests is how many round trips to measure.
	Requests int
	// UseTCP measures over a real TCP loopback socket; false uses the
	// in-memory transport (the pure software-stack floor).
	UseTCP bool
}

// DefaultE0Config matches the paper's minimal setup.
func DefaultE0Config() E0Config { return E0Config{Requests: 200, UseTCP: true} }

// E0Result is the measured response-time floor.
type E0Result struct {
	Min, Mean, Max time.Duration
	Requests       int
	Transport      string
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

	res := &E0Result{Min: time.Hour, Requests: cfg.Requests, Transport: name}
	var total time.Duration
	for i := 0; i < cfg.Requests; i++ {
		start := time.Now()
		if _, err := client.Call(ctx, "", []byte{0}); err != nil {
			return nil, fmt.Errorf("experiment: e0 request %d: %w", i, err)
		}
		tr := time.Since(start)
		total += tr
		if tr < res.Min {
			res.Min = tr
		}
		if tr > res.Max {
			res.Max = tr
		}
	}
	res.Mean = total / time.Duration(cfg.Requests)
	return res, nil
}

// E0Table formats the result next to the paper's reported floor.
func E0Table(r *E0Result) *Table {
	return &Table{
		Title:   "E0: minimum response time, minimum-size request, negligible service time",
		Columns: []string{"transport", "requests", "min", "mean", "max"},
		Rows: [][]string{{
			r.Transport,
			fmt.Sprintf("%d", r.Requests),
			r.Min.String(),
			r.Mean.String(),
			r.Max.String(),
		}},
		Notes: []string{
			"paper: ~3.5 ms over CORBA/IIOP + Maestro/Ensemble on 2001 hardware; a Go/TCP stack on modern hardware sits far lower — the experiment verifies the floor exists and is stable, not the absolute value",
		},
	}
}
