package sim

import (
	"testing"
	"time"

	"aqua/internal/stats"
	"aqua/internal/wire"
)

// BenchmarkKernelEvents measures raw event throughput of the DES kernel.
func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	var fired int
	var schedule func()
	schedule = func() {
		fired++
		if fired < b.N {
			k.After(time.Microsecond, schedule)
		}
	}
	k.After(0, schedule)
	b.ResetTimer()
	k.RunAll()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkScenarioRun measures a full paper-protocol run (two clients × 50
// requests over seven replicas) per iteration — the unit of work behind
// every Figure 4/5 sweep point.
func BenchmarkScenarioRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		replicas := make([]ReplicaSpec, 7)
		for j := range replicas {
			replicas[j] = ReplicaSpec{Service: stats.Normal{Mu: 100 * ms, Sigma: 50 * ms}}
		}
		res, err := Run(Scenario{
			Replicas: replicas,
			Clients: []ClientSpec{
				{QoS: wire.QoS{Deadline: 200 * ms, MinProbability: 0}, Requests: 50, Think: time.Second},
				{QoS: wire.QoS{Deadline: 120 * ms, MinProbability: 0.9}, Requests: 50, Think: time.Second},
			},
			Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Clients) != 2 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkReplicaSubmit measures the replica queue's per-copy cost: one
// submit and the completion event that answers it.
func BenchmarkReplicaSubmit(b *testing.B) {
	k := NewKernel()
	r := newReplica(k, "r", 0, ReplicaSpec{Service: stats.Normal{Mu: 10 * ms, Sigma: 2 * ms}}, stats.NewRand(1))
	answered := 0
	reply := func(wire.PerfReport) { answered++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.submit(jobKey{client: "c", seq: wire.SeqNo(i)}, reply)
		k.RunAll()
	}
	if answered != b.N {
		b.Fatalf("answered %d of %d copies", answered, b.N)
	}
}
