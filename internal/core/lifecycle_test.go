package core

import (
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/wire"
)

// lifecycleSched builds a scheduler over a warm 3-replica pool whose
// deterministic history misses the deadline, so Algorithm 1's line-15
// fallback selects all of M on every request: every replica earns exactly
// one suspicion outcome per request, controlled by the test.
func lifecycleSched(t *testing.T, lc LifecycleConfig) *Scheduler {
	t.Helper()
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	lc.Enabled = true
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 5 * ms, MinProbability: 0.9},
		Repository: repo,
		Lifecycle:  lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// roundtrip schedules one request and replies from every target: lateFrom
// replicas answer past the deadline, the rest answer timely. The perf
// report repeats the warm history so selection stays in the select-all
// regime.
func roundtrip(t *testing.T, s *Scheduler, lateFrom map[wire.ReplicaID]bool) Decision {
	t.Helper()
	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	for _, id := range d.Targets {
		t4 := t0.Add(ms)
		if lateFrom[id] {
			t4 = t0.Add(50 * ms)
		}
		s.OnReply(d.Seq, id, t4, perf)
	}
	return d
}

func targetsContain(d Decision, id wire.ReplicaID) bool {
	for _, t := range d.Targets {
		if t == id {
			return true
		}
	}
	return false
}

func TestPersistentlySlowReplicaQuarantined(t *testing.T) {
	var reports []SuspectReport
	s := lifecycleSched(t, LifecycleConfig{
		WindowSize:      4,
		MinObservations: 4,
		OnSuspect:       func(r SuspectReport) { reports = append(reports, r) },
	})

	for i := 0; i < 4; i++ {
		d := roundtrip(t, s, map[wire.ReplicaID]bool{"a": true})
		if !targetsContain(d, "a") {
			t.Fatalf("round %d: fallback did not select a; targets %v", i, d.Targets)
		}
	}

	if h, _ := s.Repository().Health("a"); h != repository.Quarantined {
		t.Fatalf("Health(a) = %v, want Quarantined after a full window of late replies", h)
	}
	if len(reports) != 1 || reports[0].To != repository.Quarantined || reports[0].Replica != "a" {
		t.Fatalf("reports = %v, want one Active→Quarantined for a", reports)
	}
	if reports[0].FaultRate != 1 {
		t.Errorf("FaultRate = %v, want 1", reports[0].FaultRate)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}

	// Quarantined replicas are excluded even from the select-all fallback.
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if targetsContain(d, "a") {
		t.Errorf("quarantined replica selected: %v", d.Targets)
	}
	if len(d.Targets) != 2 {
		t.Errorf("targets = %v, want the 2 healthy replicas", d.Targets)
	}
	s.Forget(d.Seq)
}

func TestSuspectedReplicaClearsOnRecovery(t *testing.T) {
	var reports []SuspectReport
	s := lifecycleSched(t, LifecycleConfig{
		WindowSize:      4,
		MinObservations: 4,
		OnSuspect:       func(r SuspectReport) { reports = append(reports, r) },
	})

	// Alternate late/timely: rate settles at 0.5 → Suspected, not
	// Quarantined.
	for i := 0; i < 4; i++ {
		roundtrip(t, s, map[wire.ReplicaID]bool{"a": i%2 == 0})
	}
	if h, _ := s.Repository().Health("a"); h != repository.Suspected {
		t.Fatalf("Health(a) = %v, want Suspected at rate 0.5", h)
	}
	// Suspected replicas stay selectable.
	d := roundtrip(t, s, nil)
	if !targetsContain(d, "a") {
		t.Errorf("suspected replica dropped from selection: %v", d.Targets)
	}
	// That timely round pushed the window to [late, timely, timely(?) ...]:
	// keep answering timely until the rate falls to clearRate.
	roundtrip(t, s, nil)
	if h, _ := s.Repository().Health("a"); h != repository.Active {
		t.Fatalf("Health(a) = %v, want Active after recovery", h)
	}
	if len(reports) != 2 || reports[0].To != repository.Suspected || reports[1].To != repository.Active {
		t.Fatalf("reports = %v, want Suspected then Active", reports)
	}
	if st := s.Stats(); st.Suspected != 1 || st.Reinstated != 1 {
		t.Errorf("stats = %+v, want Suspected=1 Reinstated=1", st)
	}
}

func TestDeadlineExpiryChargesTargetsOnce(t *testing.T) {
	var reports []SuspectReport
	s := lifecycleSched(t, LifecycleConfig{
		WindowSize:      8,
		MinObservations: 8,
		OnSuspect:       func(r SuspectReport) { reports = append(reports, r) },
	})

	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Deadline passes with no reply: every target charged one late outcome.
	s.OnDeadlineExpired(d.Seq)
	// The straggler replies arrive afterwards — late, but already charged:
	// they must not add a second outcome for the same request.
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	for _, id := range d.Targets {
		s.OnReply(d.Seq, id, t0.Add(60*ms), perf)
	}
	if n := s.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after all replies, want 0 (pending leak)", n)
	}
	// 7 more expiry-only rounds reach the 8-observation window: quarantine
	// fires on the last one and not earlier, proving one charge per request.
	for i := 0; i < 7; i++ {
		if len(reports) != 0 {
			t.Fatalf("round %d: transitions %v before the window filled (double-charged outcomes)", i, reports)
		}
		d, err := s.Schedule(time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		s.OnDeadlineExpired(d.Seq)
		s.Forget(d.Seq)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %v, want every replica quarantined after 8 charged expiries", reports)
	}
	for _, r := range reports {
		if r.To != repository.Quarantined || r.Observations != 8 || r.FaultRate != 1 {
			t.Errorf("report %v, want Active→Quarantined at rate 1 over 8 outcomes", r)
		}
	}
}

func TestQuarantineMidFlightSettlesPending(t *testing.T) {
	s := lifecycleSched(t, LifecycleConfig{WindowSize: 4, MinObservations: 4})

	// A request is in flight to all three replicas when "a" is convicted by
	// other traffic.
	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		roundtrip(t, s, map[wire.ReplicaID]bool{"a": true})
	}
	if h, _ := s.Repository().Health("a"); h != repository.Quarantined {
		t.Fatalf("Health(a) = %v, want Quarantined", h)
	}
	// The in-flight request still settles normally: quarantine removes a
	// replica from future selections, not from membership.
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	var firsts int
	for _, id := range d.Targets {
		if out := s.OnReply(d.Seq, id, t0.Add(ms), perf); out.First {
			firsts++
		}
	}
	if firsts != 1 {
		t.Errorf("firsts = %d, want exactly 1 delivery", firsts)
	}
	if n := s.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d, want 0 (pending leak across quarantine)", n)
	}
	for _, snap := range s.Repository().Snapshot("") {
		if n := s.Repository().InFlight(snap.ID); n != 0 {
			t.Errorf("replica %s InFlight = %d, want 0", snap.ID, n)
		}
	}
}

func TestRenegotiateResetsSuspicion(t *testing.T) {
	var reports []SuspectReport
	s := lifecycleSched(t, LifecycleConfig{
		WindowSize:      4,
		MinObservations: 4,
		OnSuspect:       func(r SuspectReport) { reports = append(reports, r) },
	})

	for i := 0; i < 4; i++ {
		roundtrip(t, s, map[wire.ReplicaID]bool{"a": i%2 == 0})
	}
	if h, _ := s.Repository().Health("a"); h != repository.Suspected {
		t.Fatalf("Health(a) = %v, want Suspected", h)
	}
	// A new contract whose deadline the warm history still misses, so every
	// request keeps selecting all of M and charging every replica.
	if err := s.Renegotiate(wire.QoS{Deadline: 10 * ms, MinProbability: 0.9}); err != nil {
		t.Fatal(err)
	}
	// Suspicion earned under the old deadline is lifted, silently.
	if h, _ := s.Repository().Health("a"); h != repository.Active {
		t.Fatalf("Health(a) = %v, want Active after renegotiation", h)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want only the Suspected transition (renegotiation reports nothing)", reports)
	}
	// The windows are empty: three late rounds are below MinObservations,
	// where the old window's two late outcomes would suspect a again.
	for i := 0; i < 3; i++ {
		roundtrip(t, s, map[wire.ReplicaID]bool{"a": true})
		if len(reports) != 1 {
			t.Fatalf("round %d after renegotiation: transitions %v, want none before 4 fresh outcomes", i, reports[1:])
		}
	}
	roundtrip(t, s, map[wire.ReplicaID]bool{"a": true})
	if len(reports) != 2 || reports[1].To != repository.Quarantined || reports[1].Observations != 4 {
		t.Fatalf("reports = %v, want a quarantined on its 4th fresh outcome", reports)
	}
}

func TestMembershipChangePrunesSuspicionAndStartsProbation(t *testing.T) {
	var reports []SuspectReport
	s := lifecycleSched(t, LifecycleConfig{
		WindowSize:      8,
		MinObservations: 8,
		OnSuspect:       func(r SuspectReport) { reports = append(reports, r) },
	})

	// Seven late outcomes: one short of a full window that quarantines a.
	for i := 0; i < 7; i++ {
		roundtrip(t, s, map[wire.ReplicaID]bool{"a": true})
	}
	// Bootstrap view, then a leaves.
	s.OnMembershipChange([]wire.ReplicaID{"a", "b", "c"}, time.Now())
	s.OnMembershipChange([]wire.ReplicaID{"b", "c"}, time.Now())
	// A rejoining replica is a newcomer: probation, excluded from selection.
	s.OnMembershipChange([]wire.ReplicaID{"a", "b", "c"}, time.Now())
	if h, _ := s.Repository().Health("a"); h != repository.Probation {
		t.Fatalf("Health(a) = %v, want Probation for post-bootstrap rejoin", h)
	}
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if targetsContain(d, "a") {
		t.Errorf("probation replica selected: %v", d.Targets)
	}
	s.Forget(d.Seq)
	// Probe-fed perf reports promote it; default ProbationSamples is the
	// repository window size.
	for i := 0; i < repository.DefaultProbationSamples; i++ {
		s.Repository().RecordPerf("a", "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}, time.Now())
	}
	if h, _ := s.Repository().Health("a"); h != repository.Active {
		t.Fatalf("Health(a) = %v, want Active after MinSamples probe reports", h)
	}
	// The departed instance's outcomes left with it: one more late outcome
	// is the new instance's first, not the eighth that would convict it.
	if d := roundtrip(t, s, map[wire.ReplicaID]bool{"a": true}); !targetsContain(d, "a") {
		t.Fatalf("re-admitted replica not selected: %v", d.Targets)
	}
	if len(reports) != 0 {
		t.Errorf("reports = %v, want none: the rejoined replica kept its predecessor's window", reports)
	}
}

func TestAllQuarantinedFallsBackToFullSet(t *testing.T) {
	s := lifecycleSched(t, LifecycleConfig{WindowSize: 4, MinObservations: 4})
	for _, id := range []wire.ReplicaID{"a", "b", "c"} {
		s.Repository().Quarantine(id)
	}
	// Availability beats quarantine: with every member sick, selection uses
	// the full set rather than failing.
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) != 3 {
		t.Errorf("targets = %v, want all 3 under total quarantine", d.Targets)
	}
	s.Forget(d.Seq)
}

func TestLifecycleDisabledKeepsBehavior(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 5 * ms, MinProbability: 0.9})
	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	s.OnDeadlineExpired(d.Seq)
	for _, id := range d.Targets {
		s.OnReply(d.Seq, id, t0.Add(50*ms), wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms})
	}
	// Enough late outcomes to quarantine every replica, had they been judged.
	for i := 1; i < repository.DefaultMinObservations; i++ {
		d, err := s.Schedule(time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		s.OnDeadlineExpired(d.Seq)
		s.Forget(d.Seq)
	}
	if st := s.Stats(); st.Suspected+st.Quarantined+st.Reinstated != 0 {
		t.Errorf("lifecycle transitions with lifecycle disabled: %+v", st)
	}
	// Nor does the repository run a lifecycle: a post-bootstrap joiner is
	// admitted straight to Active, not to probation.
	s.OnMembershipChange([]wire.ReplicaID{"a", "b", "c"}, time.Now())
	s.OnMembershipChange([]wire.ReplicaID{"a", "b", "c", "d"}, time.Now())
	for _, id := range []wire.ReplicaID{"a", "b", "c", "d"} {
		if h, _ := repo.Health(id); h != repository.Active {
			t.Errorf("Health(%s) = %v with lifecycle disabled, want Active", id, h)
		}
	}
}
