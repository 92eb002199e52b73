// Benchmarks regenerating the paper's evaluation, one per reported result
// (see DESIGN.md's experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// The Fig3 benches time exactly what the paper's Figure 3 plots — one
// selection-algorithm invocation (distribution computation + Algorithm 1) —
// across the same replica-count × window-size grid. The Fig4/Fig5 benches
// execute a full simulated two-client run per iteration and report the
// figure metric through b.ReportMetric. E0 measures the end-to-end
// request floor through the real handler/server path.
package aqua_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aqua"
	"aqua/internal/experiment"
	"aqua/internal/model"
	"aqua/internal/selection"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// BenchmarkE0MinResponseTime measures the minimum-request response-time
// floor (§6 text: ~3.5 ms on the paper's CORBA testbed).
func BenchmarkE0MinResponseTime(b *testing.B) {
	cluster, err := aqua.NewCluster("bench-e0", 1,
		func(string, []byte) ([]byte, error) { return []byte{1}, nil })
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient(aqua.ClientConfig{
		Name: "bench-client",
		QoS:  aqua.QoS{Deadline: time.Second, MinProbability: 0},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	payload := []byte{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, "", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3SelectionOverhead times one scheduler decision — the
// distribution computation plus Algorithm 1 — on the paper's grid of
// replica counts (2..8) and window sizes (5, 10, 20).
func BenchmarkFig3SelectionOverhead(b *testing.B) {
	for _, l := range []int{5, 10, 20} {
		for _, n := range []int{2, 4, 6, 8} {
			b.Run(fmt.Sprintf("l=%d/n=%d", l, n), func(b *testing.B) {
				rows, err := experiment.RunFig3(experiment.Fig3Config{
					ReplicaCounts: []int{n},
					WindowSizes:   []int{l},
					Iterations:    b.N,
					Seed:          1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].TotalOvhd)/float64(time.Microsecond), "us/select")
				b.ReportMetric(rows[0].DistFraction, "dist_frac")
			})
		}
	}
}

// fig45Point runs one simulated Figure 4/5 sweep point and reports both
// figure metrics for the swept client.
func fig45Point(b *testing.B, deadline time.Duration, pc float64) {
	b.Helper()
	var selSum, failSum float64
	for i := 0; i < b.N; i++ {
		replicas := make([]sim.ReplicaSpec, 7)
		for j := range replicas {
			replicas[j] = sim.ReplicaSpec{
				Service: stats.Normal{Mu: 100 * time.Millisecond, Sigma: 50 * time.Millisecond},
			}
		}
		res, err := sim.Run(sim.Scenario{
			Replicas: replicas,
			Clients: []sim.ClientSpec{
				{QoS: wire.QoS{Deadline: 200 * time.Millisecond, MinProbability: 0}, Requests: 50, Think: time.Second},
				{QoS: wire.QoS{Deadline: deadline, MinProbability: pc}, Requests: 50, Think: time.Second},
			},
			Network: sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
			Seed:    42 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		selSum += res.Clients[1].MeanSelected()
		failSum += res.Clients[1].FailureProbability()
	}
	b.ReportMetric(selSum/float64(b.N), "replicas_selected")
	b.ReportMetric(failSum/float64(b.N), "failure_prob")
}

// BenchmarkFig4ReplicasSelected regenerates Figure 4: the mean redundancy
// level per (deadline, Pc) point.
func BenchmarkFig4ReplicasSelected(b *testing.B) {
	for _, pc := range []float64{0.9, 0.5, 0.0} {
		for _, dl := range []time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 200 * time.Millisecond} {
			b.Run(fmt.Sprintf("Pc=%.1f/t=%v", pc, dl), func(b *testing.B) {
				fig45Point(b, dl, pc)
			})
		}
	}
}

// BenchmarkFig5TimingFailures regenerates Figure 5: the observed timing
// failure probability per (deadline, Pc) point. Same runs as Figure 4; the
// separate benchmark matches the paper's figure-per-metric layout.
func BenchmarkFig5TimingFailures(b *testing.B) {
	for _, pc := range []float64{0.9, 0.5, 0.0} {
		b.Run(fmt.Sprintf("Pc=%.1f/t=100ms", pc), func(b *testing.B) {
			fig45Point(b, 100*time.Millisecond, pc)
		})
	}
}

// BenchmarkAblationStrategies compares the per-decision cost of Algorithm 1
// against the baselines (A1's compute-cost side).
func BenchmarkAblationStrategies(b *testing.B) {
	pred := model.NewPredictor()
	rows, err := experiment.RunFig3(experiment.Fig3Config{
		ReplicaCounts: []int{7}, WindowSizes: []int{5}, Iterations: 1, Seed: 1,
	})
	if err != nil || len(rows) == 0 {
		b.Fatalf("warmup: %v", err)
	}
	_ = pred
	strategies := []selection.Strategy{
		selection.NewDynamic(),
		selection.NewDynamicMulti(2),
		selection.SingleBest{},
		selection.FixedK{K: 3},
		selection.All{},
	}
	table := syntheticTable(7)
	qos := wire.QoS{Deadline: 150 * time.Millisecond, MinProbability: 0.9}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := s.Select(selection.Input{Table: table, QoS: qos})
				if len(res.Selected) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// syntheticTable builds a ranked prediction table without repository
// plumbing.
func syntheticTable(n int) []model.ReplicaProbability {
	table := make([]model.ReplicaProbability, n)
	for i := range table {
		table[i] = model.ReplicaProbability{
			ID:          wire.ReplicaID(fmt.Sprintf("replica-%02d", i)),
			Probability: 0.3 + 0.6*float64(n-1-i)/float64(n),
		}
	}
	return table
}
