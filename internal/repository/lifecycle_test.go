package repository

import (
	"testing"
	"time"

	"aqua/internal/wire"
)

func TestLifecycleDisabledByDefault(t *testing.T) {
	r := New()
	r.AddReplica("a")
	if h, ok := r.Health("a"); !ok || h != Active {
		t.Errorf("Health(a) = %v, %v; want Active, true", h, ok)
	}
	for i := 0; i < DefaultSuspicionWindow; i++ {
		if tr, ok := r.RecordOutcome("a", true); ok {
			t.Fatalf("RecordOutcome took %+v with lifecycle disabled", tr)
		}
	}
	if r.Quarantine("a") {
		t.Error("Quarantine succeeded with lifecycle disabled")
	}
}

// TestLifecycleStateMachine walks every edge RecordOutcome takes on a window
// of 4: nothing before 4 outcomes, Active→Suspected at 0.5, back to Active at
// 0.25, Suspected→Quarantined at 0.75, Active→Quarantined in one step, and
// nothing once quarantined.
func TestLifecycleStateMachine(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{WindowSize: 4, MinObservations: 4})
	r.SetMembership([]wire.ReplicaID{"a", "b"})

	step := func(id wire.ReplicaID, late bool, want Transition, moved bool) {
		t.Helper()
		got, ok := r.RecordOutcome(id, late)
		if ok != moved || got != want {
			t.Fatalf("RecordOutcome(%s, late=%v) = %+v, %v; want %+v, %v", id, late, got, ok, want, moved)
		}
		if h, _ := r.Health(id); moved && h != want.To {
			t.Fatalf("Health(%s) = %v after %+v", id, h, got)
		}
	}
	none := Transition{}
	step("a", true, none, false)
	step("a", false, none, false)
	step("a", true, none, false) // 2 of 3 late, but below MinObservations
	step("a", false, Transition{Active, Suspected, 0.5, 4}, true)
	step("a", false, Transition{Suspected, Active, 0.25, 4}, true)
	step("a", true, Transition{Active, Suspected, 0.5, 4}, true)
	step("a", true, none, false) // still 0.5: suspected, not convicted
	step("a", true, Transition{Suspected, Quarantined, 0.75, 4}, true)
	// The convicting window resets: the next incarnation starts clean.
	if n := r.replicas["a"].outcomes.filled; n != 0 {
		t.Fatalf("quarantine left %d outcomes in the window", n)
	}
	for i := 0; i < 4; i++ {
		step("a", true, none, false) // a quarantined replica is not re-judged
	}
	if r.Quarantine("a") {
		t.Error("Quarantine(a) succeeded twice")
	}

	// A full window of faults skips Suspected.
	for i := 0; i < 3; i++ {
		step("b", true, none, false)
	}
	step("b", true, Transition{Active, Quarantined, 1, 4}, true)
	if n := r.QuarantinedCount(); n != 2 {
		t.Errorf("QuarantinedCount = %d, want 2", n)
	}
}

func TestSelectable(t *testing.T) {
	for h, want := range map[Health]bool{
		Active: true, Suspected: true, Quarantined: false, Probation: false,
	} {
		if h.Selectable() != want {
			t.Errorf("%v.Selectable() = %v, want %v", h, !want, want)
		}
	}
}

func TestProbationPromotionAfterMinSamples(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 3})
	// Bootstrap view: members enter Active.
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	if h, _ := r.Health("a"); h != Active {
		t.Fatalf("bootstrap member Health = %v, want Active", h)
	}
	// Post-bootstrap joiner enters Probation.
	r.SetMembership([]wire.ReplicaID{"a", "b", "c"})
	if h, _ := r.Health("c"); h != Probation {
		t.Fatalf("post-bootstrap joiner Health = %v, want Probation", h)
	}
	now := time.Now()
	for i := 0; i < 2; i++ {
		r.RecordPerf("c", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, now)
	}
	if h, _ := r.Health("c"); h != Probation {
		t.Fatal("promoted before MinSamples reports")
	}
	r.RecordPerf("c", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, now)
	if h, _ := r.Health("c"); h != Active {
		t.Fatalf("Health(c) = %v, want Active after 3 reports", h)
	}
}

func TestProbationReplicaCrashBeforeAdmission(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 5})
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"}) // b on probation
	r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, time.Now())

	// b crashes before earning admission; the view drops it.
	r.SetMembership([]wire.ReplicaID{"a"})
	if _, ok := r.Health("b"); ok {
		t.Fatal("crashed probation replica still known")
	}
	// A replacement under the same ID starts probation from scratch.
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	if h, _ := r.Health("b"); h != Probation {
		t.Fatalf("Health(b) = %v, want Probation for the replacement", h)
	}
	for i := 0; i < 4; i++ {
		r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, time.Now())
	}
	if h, _ := r.Health("b"); h != Probation {
		t.Error("replacement inherited the crashed instance's probation credit")
	}
}

func TestQuarantineResetsProbationCredit(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 2})
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, time.Now())
	// One report shy of admission, b is convicted (e.g. by probe outcomes),
	// and comes back only as a restarted member.
	r.Quarantine("b")
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	if h, _ := r.Health("b"); h != Probation {
		t.Fatalf("Health(b) = %v, want Probation after rejoining", h)
	}
	r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond}, time.Now())
	if h, _ := r.Health("b"); h != Probation {
		t.Error("probation credit survived quarantine; admission must need 2 fresh reports")
	}
}

// TestStateTransferGateBlocksPromotion: with the state-transfer gate on, timing
// samples alone must not re-admit a probation replica — promotion waits for
// the first report claiming a caught-up state machine, then fires without
// restarting the sample count.
func TestStateTransferGateBlocksPromotion(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 3, RequireStateTransfer: true})
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"}) // b on probation
	now := time.Now()
	behind := wire.PerfReport{ServiceTime: time.Millisecond, QueueDelay: time.Millisecond, CaughtUp: false}
	for i := 0; i < 10; i++ {
		r.RecordPerf("b", "", behind, now)
	}
	if h, _ := r.Health("b"); h != Probation {
		t.Fatalf("Health(b) = %v after 10 not-caught-up reports, want Probation", h)
	}
	if cu, _, ok := r.CaughtUp("b"); !ok || cu {
		t.Fatalf("CaughtUp(b) = %v/%v, want false/true", cu, ok)
	}
	// State transfer completes: the very next caught-up report promotes.
	caught := behind
	caught.CaughtUp = true
	caught.OrderedTail = 42
	r.RecordPerf("b", "", caught, now)
	if h, _ := r.Health("b"); h != Active {
		t.Fatalf("Health(b) = %v after caught-up report, want Active", h)
	}
	if cu, tail, _ := r.CaughtUp("b"); !cu || tail != 42 {
		t.Fatalf("CaughtUp(b) = %v tail %d, want true/42", cu, tail)
	}
}

// TestStateTransferGateOffKeepsStatelessBehavior: the gate is opt-in;
// without it, not-caught-up reports promote exactly as before.
func TestStateTransferGateOffKeepsStatelessBehavior(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 2})
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	for i := 0; i < 2; i++ {
		r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond}, time.Now())
	}
	if h, _ := r.Health("b"); h != Active {
		t.Fatalf("Health(b) = %v, want Active (gate off)", h)
	}
}

// TestQuarantineResetsCaughtUp: quarantine discards the pre-crash CaughtUp
// claim, so a late report from before the crash cannot satisfy the gate.
func TestQuarantineResetsCaughtUp(t *testing.T) {
	r := New()
	r.EnableLifecycle(Lifecycle{ProbationSamples: 1, RequireStateTransfer: true})
	r.SetMembership([]wire.ReplicaID{"a"})
	r.SetMembership([]wire.ReplicaID{"a", "b"})
	r.RecordPerf("b", "", wire.PerfReport{ServiceTime: time.Millisecond, CaughtUp: true}, time.Now())
	if h, _ := r.Health("b"); h != Active {
		t.Fatalf("Health(b) = %v, want Active", h)
	}
	r.Quarantine("b")
	if cu, tail, _ := r.CaughtUp("b"); cu || tail != 0 {
		t.Fatalf("CaughtUp survived quarantine: %v/%d", cu, tail)
	}
}
