package repository

import (
	"testing"
	"time"

	"aqua/internal/wire"
)

func TestLifecycleDisabledByDefault(t *testing.T) {
	r := New()
	r.AddReplica("a")
	if r.LifecycleEnabled() {
		t.Error("lifecycle enabled without EnableLifecycle")
	}
	if h, ok := r.Health("a"); !ok || h != Active {
		t.Errorf("Health(a) = %v, %v; want Active, true", h, ok)
	}
	if r.Suspect("a") {
		t.Error("Suspect succeeded with lifecycle disabled")
	}
	if r.Quarantine("a") {
		t.Error("Quarantine succeeded with lifecycle disabled")
	}
}

func TestLifecycleStateMachine(t *testing.T) {
	r := New()
	r.EnableLifecycle(0)
	r.AddReplica("a")

	if !r.Suspect("a") {
		t.Fatal("Suspect(a) failed from Active")
	}
	if r.Suspect("a") {
		t.Error("Suspect(a) succeeded twice")
	}
	if h, _ := r.Health("a"); h != Suspected {
		t.Fatalf("Health(a) = %v, want Suspected", h)
	}
	if !r.ClearSuspicion("a") {
		t.Fatal("ClearSuspicion(a) failed from Suspected")
	}
	if h, _ := r.Health("a"); h != Active {
		t.Fatalf("Health(a) = %v, want Active", h)
	}

	if !r.Quarantine("a") {
		t.Fatal("Quarantine(a) failed from Active")
	}
	if r.Quarantine("a") {
		t.Error("Quarantine(a) succeeded twice")
	}
	if n := r.QuarantinedCount(); n != 1 {
		t.Errorf("QuarantinedCount = %d, want 1", n)
	}

	s := r.LifecycleStats()
	if s.Suspected != 1 || s.Cleared != 1 || s.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 suspected / 1 cleared / 1 quarantined", s)
	}
	if s.NumQuarantined != 1 {
		t.Errorf("census NumQuarantined = %d, want 1", s.NumQuarantined)
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
	r.EnableLifecycle(3)
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
	s := r.LifecycleStats()
	if s.Joined != 1 || s.Admitted != 1 {
		t.Errorf("stats = %+v, want Joined=1 Admitted=1", s)
	}
}

func TestProbationReplicaCrashBeforeAdmission(t *testing.T) {
	r := New()
	r.EnableLifecycle(5)
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
	r.EnableLifecycle(2)
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

// TestStateTransferGateBlocksPromotion: with RequireStateTransfer on, timing
// samples alone must not re-admit a probation replica — promotion waits for
// the first report claiming a caught-up state machine, then fires without
// restarting the sample count.
func TestStateTransferGateBlocksPromotion(t *testing.T) {
	r := New()
	r.EnableLifecycle(3)
	r.RequireStateTransfer(true)
	if !r.StateTransferRequired() {
		t.Fatal("gate not reported enabled")
	}
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
	r.EnableLifecycle(2)
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
	r.EnableLifecycle(1)
	r.RequireStateTransfer(true)
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
