package sim

import (
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/proteus"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// TestSimSlowReplicaQuarantinedAndRejuvenated runs the full §5.4 loop in
// virtual time: one host turns persistently slow, every client's fault
// window fills, the replica is quarantined and rejuvenated, the replacement
// warms through probation on probes, and after the host heals the pool
// returns to timely service.
func TestSimSlowReplicaQuarantinedAndRejuvenated(t *testing.T) {
	// Normal(25ms, 5ms) service against a 30ms deadline keeps the predicted
	// per-replica probability around 0.84, so Pc = 0.99 forces Algorithm 1
	// to select every selectable replica — the slow host keeps being
	// exercised (and charged) until quarantine removes it.
	res, err := Run(Scenario{
		Replicas: []ReplicaSpec{
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms},
				Slow: stats.Constant{Delay: 100 * ms}, SlowFrom: 500 * ms, SlowUntil: 4 * time.Second},
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
		},
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.99},
			Requests: 400,
			Think:    10 * ms,
		}},
		Lifecycle: core.LifecycleConfig{
			Enabled:         true,
			WindowSize:      8,
			MinObservations: 4,
		},
		ProbeInterval: 50 * ms,
		Rejuvenation:  RejuvenationSpec{Enabled: true},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantines < 1 {
		t.Errorf("Quarantines = %d, want >= 1", res.Quarantines)
	}
	if res.Restarts < 1 {
		t.Errorf("Restarts = %d, want >= 1", res.Restarts)
	}
	if res.PeakRestartsPerWindow > proteus.DefaultMaxRestartsPerWindow {
		t.Errorf("%d restarts in one window, want <= storm cap %d", res.PeakRestartsPerWindow, proteus.DefaultMaxRestartsPerWindow)
	}
	if res.ProbationViolations != 0 {
		t.Errorf("ProbationViolations = %d, want 0", res.ProbationViolations)
	}
	c := res.Clients[0]
	if c.Outstanding != 0 {
		t.Errorf("Outstanding = %d, want 0 (pending-entry leak)", c.Outstanding)
	}
	if got := len(c.Records); got != 400 {
		t.Fatalf("records = %d, want 400", got)
	}
	// The tail of the run is past SlowUntil: the healed host is back in the
	// pool and the loop delivers its usual timely fraction again.
	tail := c.Records[len(c.Records)-100:]
	timely := 0
	for _, r := range tail {
		if r.Timely() {
			timely++
		}
	}
	if timely < 90 {
		t.Errorf("timely tail = %d/100, want >= 90 after the fault cleared", timely)
	}
	// ReplicaServe folds retired incarnations into the host slot.
	if res.ReplicaServe[0] == 0 {
		t.Error("ReplicaServe[0] = 0, want work from the pre-fault and healed incarnations")
	}
}

// TestSimRestartStormCapped: every host is slow for the whole run, so each
// replacement is convicted again as soon as probation re-admits it, and
// restart requests come faster than the storm cap allows. The rejuvenator
// must refuse the excess and never fit more than the cap into one window.
func TestSimRestartStormCapped(t *testing.T) {
	replicas := make([]ReplicaSpec, 4)
	for i := range replicas {
		replicas[i] = ReplicaSpec{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}, Slow: stats.Constant{Delay: 100 * ms}}
	}
	res, err := Run(Scenario{
		Replicas: replicas,
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.99},
			Requests: 600,
			Think:    10 * ms,
		}},
		Lifecycle:     core.LifecycleConfig{Enabled: true, WindowSize: 8, MinObservations: 4},
		ProbeInterval: 50 * ms,
		Rejuvenation:  RejuvenationSpec{Enabled: true},
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restarts=%d suppressed=%d peak=%d", res.Restarts, res.RestartsSuppressed, res.PeakRestartsPerWindow)
	if res.RestartsSuppressed == 0 {
		t.Error("RestartsSuppressed = 0: the scenario never asked for more restarts than the cap")
	}
	if res.PeakRestartsPerWindow > proteus.DefaultMaxRestartsPerWindow {
		t.Errorf("%d restarts in one window, want <= storm cap %d", res.PeakRestartsPerWindow, proteus.DefaultMaxRestartsPerWindow)
	}
}

// TestCrashedReplicaLosesAcceptedWork: a crash and a rejuvenation kill both
// lose the copies the replica had queued or in service. No reply comes back
// for them, and they are not counted as served.
func TestCrashedReplicaLosesAcceptedWork(t *testing.T) {
	t.Run("crash plan", func(t *testing.T) {
		res, err := Run(Scenario{
			Replicas: []ReplicaSpec{{Service: stats.Constant{Delay: 100 * ms}, CrashAt: 50 * ms}},
			Clients:  []ClientSpec{{QoS: wire.QoS{Deadline: 200 * ms}, Requests: 1}},
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Clients[0].Records[0]; r.GotReply {
			t.Errorf("the copy in service at the crash was answered after %v", r.ResponseTime)
		}
		if res.ReplicaServe[0] != 0 {
			t.Errorf("ReplicaServe = %v, want [0]", res.ReplicaServe)
		}
	})
	t.Run("rejuvenation kill", func(t *testing.T) {
		// The slow host backs up with copies (Pc 0.99 selects every
		// replica); its kill must silence all of them. On the ideal LAN a
		// reply arrives the instant it is sent, so any reply from a killed
		// incarnation after its kill was sent by a dead replica.
		rec := trace.New()
		res, err := Run(Scenario{
			Replicas: []ReplicaSpec{
				{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms},
					Slow: stats.Constant{Delay: 100 * ms}, SlowFrom: 500 * ms, SlowUntil: 4 * time.Second},
				{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
				{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
			},
			Clients: []ClientSpec{{
				QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.99},
				Requests: 400,
				Think:    10 * ms,
			}},
			Lifecycle:     core.LifecycleConfig{Enabled: true, WindowSize: 8, MinObservations: 4},
			ProbeInterval: 50 * ms,
			Rejuvenation:  RejuvenationSpec{Enabled: true},
			Trace:         rec,
			Seed:          7,
		})
		if err != nil {
			t.Fatal(err)
		}
		killed := make(map[wire.ReplicaID]time.Duration)
		for _, ev := range rec.Filter(trace.KindRestart) {
			killed[ev.Replica] = ev.At
		}
		if len(killed) == 0 {
			t.Fatal("no restart: nothing was killed")
		}
		for _, ev := range rec.Filter(trace.KindReply) {
			if at, ok := killed[ev.Replica]; ok && ev.At > at {
				t.Errorf("%s replied at %v, after its kill at %v", ev.Replica, ev.At, at)
			}
		}
		if res.Clients[0].Outstanding != 0 {
			t.Errorf("Outstanding = %d, want 0", res.Clients[0].Outstanding)
		}
	})
}

// TestSimGiveUpForgetsPending is the regression for the give-up leak: a
// request whose every target died silently must be Forgotten from the
// scheduler when the client gives up, or each abandoned request leaks a
// pending entry for the rest of the run.
func TestSimGiveUpForgetsPending(t *testing.T) {
	res, err := Run(Scenario{
		Replicas: []ReplicaSpec{{Service: stats.Constant{Delay: 10 * ms}, CrashAt: 50 * ms}},
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.9},
			Requests: 3,
			Think:    100 * ms,
		}},
		// Detection is slower than the whole client run: the dead replica
		// stays in the view, so requests 2 and 3 go to it and die silently.
		DetectionDelay: 10 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clients[0]
	if got := len(c.Records); got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
	if c.Outstanding != 0 {
		t.Errorf("Outstanding = %d, want 0: give-up must Forget abandoned requests", c.Outstanding)
	}
	for i, r := range c.Records[1:] {
		if r.GotReply || !r.Failure {
			t.Errorf("post-crash record %d = %+v, want silent failure", i+1, r)
		}
	}
}

// TestSimStateTransferGatesReadmission runs the ordered-mode re-admission
// gate in virtual time: rejuvenated replacements boot empty and report
// CaughtUp=false until their simulated state transfer completes, and with
// Lifecycle.RequireStateTransfer the lifecycle must hold each one in
// probation — invisible to selection — until then, no matter how fast the
// probe warm-up fills its window.
func TestSimStateTransferGatesReadmission(t *testing.T) {
	const transfer = 300 * ms
	rec := trace.New()
	res, err := Run(Scenario{
		Replicas: []ReplicaSpec{
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms},
				Slow: stats.Constant{Delay: 100 * ms}, SlowFrom: 500 * ms, SlowUntil: 4 * time.Second},
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
			{Service: stats.Normal{Mu: 25 * ms, Sigma: 5 * ms}},
		},
		Clients: []ClientSpec{{
			QoS:      wire.QoS{Deadline: 30 * ms, MinProbability: 0.99},
			Requests: 400,
			Think:    10 * ms,
		}},
		Lifecycle: core.LifecycleConfig{
			Enabled:              true,
			WindowSize:           8,
			MinObservations:      4,
			RequireStateTransfer: true,
		},
		ProbeInterval: 50 * ms,
		Rejuvenation:  RejuvenationSpec{Enabled: true},
		StateTransfer: transfer,
		Trace:         rec,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatalf("Restarts = %d, want >= 1 (nothing rejuvenated, nothing to gate)", res.Restarts)
	}
	if res.StateTransfers < 1 {
		t.Errorf("StateTransfers = %d, want >= 1", res.StateTransfers)
	}
	if res.ProbationViolations != 0 {
		t.Errorf("ProbationViolations = %d, want 0", res.ProbationViolations)
	}

	// Reconstruct each replacement's boot time from the restart events, then
	// require that no selection targeted it before boot + transfer: the gate
	// must keep a not-yet-caught-up replacement out of the voting set even
	// though its probation window fills on probes within ~150ms.
	boots := make(map[wire.ReplicaID]time.Duration)
	for _, ev := range rec.Filter(trace.KindRestart) {
		boots[wire.ReplicaID(ev.Extra["replacement"])] = ev.At + ev.Duration
	}
	if len(boots) == 0 {
		t.Fatal("no restart events recorded")
	}
	earliest := make(map[wire.ReplicaID]time.Duration)
	for _, ev := range rec.Filter(trace.KindSchedule) {
		for _, id := range ev.Targets {
			if _, isReplacement := boots[id]; !isReplacement {
				continue
			}
			if at, seen := earliest[id]; !seen || ev.At < at {
				earliest[id] = ev.At
			}
		}
	}
	if len(earliest) == 0 {
		t.Fatal("no replacement was ever selected: the run never witnessed a re-admission")
	}
	for id, at := range earliest {
		if min := boots[id] + transfer; at < min {
			t.Errorf("replacement %s selected at %v, before its state transfer completed at %v", id, at, min)
		}
	}
}

// TestSimStateTransferRequiresRejuvenation: only rejuvenated incarnations
// recover state, so a transfer window without a rejuvenator is a
// configuration error.
func TestSimStateTransferRequiresRejuvenation(t *testing.T) {
	_, err := Run(Scenario{
		Replicas:      []ReplicaSpec{{Service: stats.Constant{Delay: ms}}},
		Clients:       []ClientSpec{{QoS: wire.QoS{Deadline: 100 * ms}, Requests: 1}},
		StateTransfer: 100 * ms,
	})
	if err == nil {
		t.Error("want error for StateTransfer without Rejuvenation")
	}
}

// TestSimRejuvenationRequiresLifecycle: without the suspicion machinery
// nothing ever quarantines, so a rejuvenation-only scenario is a
// configuration error, not a silent no-op.
func TestSimRejuvenationRequiresLifecycle(t *testing.T) {
	_, err := Run(Scenario{
		Replicas:     []ReplicaSpec{{Service: stats.Constant{Delay: ms}}},
		Clients:      []ClientSpec{{QoS: wire.QoS{Deadline: 100 * ms}, Requests: 1}},
		Rejuvenation: RejuvenationSpec{Enabled: true},
	})
	if err == nil {
		t.Error("want error for Rejuvenation without Lifecycle")
	}
}

// TestSimSlowWindowValidation rejects inverted slow windows.
func TestSimSlowWindowValidation(t *testing.T) {
	_, err := Run(Scenario{
		Replicas: []ReplicaSpec{{
			Service: stats.Constant{Delay: ms},
			Slow:    stats.Constant{Delay: 10 * ms}, SlowFrom: 2 * time.Second, SlowUntil: time.Second,
		}},
		Clients: []ClientSpec{{QoS: wire.QoS{Deadline: 100 * ms}, Requests: 1}},
	})
	if err == nil {
		t.Error("want error for SlowUntil before SlowFrom")
	}
}
