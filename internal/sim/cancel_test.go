package sim

// Fences for first-response-wins cancellation and the controller wiring.

import (
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/selection"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// cancelScenario: heavy-tailed service times and full fan-out, so every
// request has losers to cancel and the tail makes the duplicates expensive.
func cancelScenario(seed int64) Scenario {
	replicas := make([]ReplicaSpec, 4)
	for i := range replicas {
		replicas[i] = ReplicaSpec{Service: stats.Pareto{Scale: 40 * ms, Alpha: 1.8}}
	}
	return Scenario{
		Replicas: replicas,
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 400 * ms, MinProbability: 0.9},
			Requests: 60,
			Think:    50 * ms,
			Strategy: selection.All{},
		}},
		Network:      NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Seed:         seed,
		Cancellation: true,
	}
}

// TestCancellationComposesWithWorkersProbesAndRejuvenation: cancellation runs
// on the same replica queue as everything else, so it composes with
// multi-worker replicas, probation probes and rejuvenation. A persistently
// slow host is quarantined and restarted while Cancels purge and abort the
// losers' copies, and no pending entry leaks.
func TestCancellationComposesWithWorkersProbesAndRejuvenation(t *testing.T) {
	replicas := make([]ReplicaSpec, 3)
	for i := range replicas {
		replicas[i] = ReplicaSpec{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}, Workers: 2}
	}
	replicas[0].Slow = stats.Constant{Delay: 100 * ms}
	replicas[0].SlowFrom = 500 * ms
	replicas[0].SlowUntil = 4 * time.Second
	res, err := Run(Scenario{
		Replicas: replicas,
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.99},
			Requests: 400,
			Think:    10 * ms,
		}},
		Network:       NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		Lifecycle:     core.LifecycleConfig{Enabled: true, WindowSize: 8, MinObservations: 4},
		ProbeInterval: 50 * ms,
		Rejuvenation:  RejuvenationSpec{Enabled: true},
		Cancellation:  true,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if got := len(c.Records); got != 400 {
		t.Fatalf("records = %d, want 400", got)
	}
	if res.Restarts < 1 {
		t.Errorf("Restarts = %d, want >= 1", res.Restarts)
	}
	if res.CancelsSent == 0 || res.CancelsPurged+res.CancelsAborted == 0 {
		t.Errorf("cancels sent=%d purged=%d aborted=%d; want copies reclaimed", res.CancelsSent, res.CancelsPurged, res.CancelsAborted)
	}
	if c.Outstanding != 0 {
		t.Errorf("Outstanding = %d, want 0", c.Outstanding)
	}
	if res.ProbationViolations != 0 {
		t.Errorf("ProbationViolations = %d, want 0", res.ProbationViolations)
	}
}

func TestCancellationReclaimsDuplicates(t *testing.T) {
	s := cancelScenario(7)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if len(c.Records) != 60 {
		t.Fatalf("records = %d, want 60", len(c.Records))
	}
	if c.Outstanding != 0 {
		t.Errorf("outstanding = %d, want 0 (cancel must not leak pending entries)", c.Outstanding)
	}
	// Every request fans to 4; 3 losers each get a Cancel.
	if res.CancelsSent != 3*60 {
		t.Errorf("cancels sent = %d, want %d", res.CancelsSent, 3*60)
	}
	reclaimed := res.CancelsPurged + res.CancelsAborted
	if reclaimed == 0 {
		t.Fatal("no cancelled copies reclaimed despite full fan-out")
	}
	if reclaimed > res.CancelsSent {
		t.Errorf("reclaimed %d > sent %d", reclaimed, res.CancelsSent)
	}
	// The whole point: losers stop working, so total served work is far
	// below the no-cancellation cost of ~4 services per request. Served +
	// reclaimed must account for every accepted copy that wasn't lost.
	if res.TotalServed() >= 4*60 {
		t.Errorf("TotalServed = %d; cancellation saved nothing", res.TotalServed())
	}
	if got := res.TotalServed() + reclaimed; got > 4*60 {
		t.Errorf("served(%d) + reclaimed(%d) = %d > dispatched %d", res.TotalServed(), reclaimed, got, 4*60)
	}
}

func TestCancellationModeDeterministic(t *testing.T) {
	a, err := Run(cancelScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cancelScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.CancelsSent != b.CancelsSent || a.CancelsPurged != b.CancelsPurged || a.CancelsAborted != b.CancelsAborted {
		t.Errorf("cancel counters differ across identical seeds: %+v vs %+v", a, b)
	}
	if a.TotalServed() != b.TotalServed() {
		t.Errorf("TotalServed differs: %d vs %d", a.TotalServed(), b.TotalServed())
	}
	for i := range a.Clients[0].Records {
		if a.Clients[0].Records[i] != b.Clients[0].Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestControllerRunsInSim(t *testing.T) {
	s := cancelScenario(9)
	s.Clients[0].Strategy = &selection.Budgeted{MinK: 2, MaxK: 4}
	s.Controller = &core.AdaptiveBudgetConfig{MaxK: 4}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := res.Clients[0].Controller
	if ctrl.Budget < 2 || ctrl.Budget > 4 {
		t.Errorf("controller budget %d escaped [2,4]", ctrl.Budget)
	}
	if ctrl.Selected == 0 {
		t.Error("controller saw no selections; not wired into the scheduler")
	}
	if ctrl.Cancelled == 0 {
		t.Error("controller saw no cancel savings despite Cancellation mode")
	}
	// The budget caps fan-out, so losers per request < 4-1; cancels still flow.
	if res.CancelsSent == 0 || res.CancelsPurged+res.CancelsAborted == 0 {
		t.Errorf("cancels sent=%d purged=%d aborted=%d; budgeted mode broke cancellation",
			res.CancelsSent, res.CancelsPurged, res.CancelsAborted)
	}
}
