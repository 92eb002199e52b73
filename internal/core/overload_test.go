package core

// Tests for the overload layer (admission control, the degradation ladder,
// the best-effort fallback cap) and the Renegotiate accounting-window
// regression.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// TestRenegotiateResetsAccountingWindow: failures recorded under an old QoS
// contract must not pollute the observed-timely fraction compared against a
// renegotiated Pc. Before the fix, Renegotiate re-armed the callback but kept
// the cumulative counters as the accounting basis, so a client that had a bad
// run under a strict deadline and then relaxed it got an immediate spurious
// violation even though every request under the new contract was timely.
func TestRenegotiateResetsAccountingWindow(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 50 * ms, MinProbability: 0.9},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(rt time.Duration) *ViolationReport {
		t0 := time.Now()
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		out := s.OnReply(d.Seq, d.Targets[0], t0.Add(rt), wire.PerfReport{ServiceTime: rt - 10*ms})
		return out.Violation
	}

	// Ten failures under the strict 50ms contract (tr = 80ms).
	for i := 0; i < 10; i++ {
		roundTrip(80 * ms)
	}
	if s.Stats().TimingFailures != 10 {
		t.Fatalf("setup: TimingFailures = %d, want 10", s.Stats().TimingFailures)
	}

	// Relax the deadline. The same 80ms responses are now timely.
	if err := s.Renegotiate(wire.QoS{Deadline: 200 * ms, MinProbability: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultMinSamplesForViolation; i++ {
		if v := roundTrip(80 * ms); v != nil {
			t.Fatalf("spurious violation after renegotiation (completion %d): %v", i+1, v)
		}
	}

	// The window really is fresh: one late reply after the ten timely ones
	// leaves observed 10/11 ≥ 0.9, a second gives 10/12 < 0.9, and the report
	// must be scoped to the new window, not the lifetime counters.
	if v := roundTrip(250 * ms); v != nil {
		t.Fatalf("violation at 10/11 timely: %v", v)
	}
	v := roundTrip(250 * ms)
	if v == nil {
		t.Fatal("violation under the new contract not reported")
	}
	if v.Completed != 12 || v.TimingFailures != 2 {
		t.Errorf("report window = %d completed / %d failures, want 12/2 (new contract only)",
			v.Completed, v.TimingFailures)
	}
	// Cumulative stats keep counting across contracts.
	st := s.Stats()
	if st.Completed != 22 || st.TimingFailures != 12 {
		t.Errorf("cumulative stats = %d completed / %d failures, want 22/12",
			st.Completed, st.TimingFailures)
	}
}

// TestAdmissionControlShedsAtCeiling: with MaxInFlight configured, Schedule
// refuses work at the ceiling with ErrOverloaded, counts the shed, and the
// ladder climbs Normal → Budgeted → Shedding and descends rung by rung as the
// backlog drains. Each call moves the ladder at most one rung, so reading
// Mode after every call sees every transition.
func TestAdmissionControlShedsAtCeiling(t *testing.T) {
	repo := warmRepo(t, 4, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
		Repository: repo,
		Overload:   OverloadConfig{MaxInFlight: 4}, // enter=2, exit=1, shedExit=3
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{s.Mode()}
	observe := func() {
		if m := s.Mode(); m != modes[len(modes)-1] {
			modes = append(modes, m)
		}
	}

	base := time.Now()
	var open []Decision
	for i := 0; i < 4; i++ {
		d, err := s.Schedule(base, "")
		if err != nil {
			t.Fatalf("Schedule %d below ceiling: %v", i, err)
		}
		observe()
		if err := s.Dispatched(d.Seq, base); err != nil {
			t.Fatal(err)
		}
		open = append(open, d)
	}
	if got := s.Mode(); got != ModeShedding {
		t.Fatalf("Mode at ceiling = %v, want shedding", got)
	}

	// The fifth request is shed, not queued.
	d, err := s.Schedule(base, "")
	observe()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Schedule at ceiling: err = %v, want ErrOverloaded", err)
	}
	if d.Mode != ModeShedding {
		t.Errorf("shed Decision.Mode = %v, want shedding", d.Mode)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}

	// Drain: reply from every target so each pending entry is dropped.
	for i, d := range open {
		t4 := base.Add(time.Duration(20+i) * ms)
		for _, id := range d.Targets {
			s.OnReply(d.Seq, id, t4, wire.PerfReport{ServiceTime: 10 * ms})
			observe()
		}
	}
	if got := s.Mode(); got != ModeNormal {
		t.Fatalf("Mode after drain = %v, want normal", got)
	}

	// The ladder never jumps a rung: every transition is between neighbours,
	// and the descent passes through Budgeted.
	sawShedToBudgeted := false
	for i := 1; i < len(modes); i++ {
		from, to := modes[i-1], modes[i]
		if from-to != 1 && to-from != 1 {
			t.Errorf("ladder jumped a rung: %v -> %v in %v", from, to, modes)
		}
		if from == ModeShedding && to == ModeBudgeted {
			sawShedToBudgeted = true
		}
	}
	if !sawShedToBudgeted {
		t.Errorf("no Shedding→Budgeted descent observed in %v", modes)
	}
	if st := s.Stats(); st.Degradations != uint64(len(modes)-1) {
		t.Errorf("Stats.Degradations = %d, want the %d transitions observed in %v", st.Degradations, len(modes)-1, modes)
	}
}

// TestDegradedModeCapsSelectAll: while degraded, an unreachable Pc(t) must
// not trigger the paper's select-all amplification; the fallback is capped at
// DefaultBestEffortK (m0 reserve + best remaining replica).
func TestDegradedModeCapsSelectAll(t *testing.T) {
	// 10ms service against a 5ms deadline: F_Ri(t) ≈ 0 everywhere, Pc
	// unreachable, so the paper-exact fallback would select all 4 replicas.
	repo := warmRepo(t, 4, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 5 * ms, MinProbability: 0.9},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := time.Now()
	d, err := s.Schedule(base, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) != 4 || d.Mode != ModeNormal {
		t.Fatalf("normal-mode decision = %d targets in %v, want paper-exact 4 in normal", len(d.Targets), d.Mode)
	}
	finish := func(d Decision) {
		for _, id := range d.Targets {
			s.OnReply(d.Seq, id, base.Add(20*ms), wire.PerfReport{ServiceTime: 10 * ms})
		}
	}
	finish(d)

	// A transport backpressure signal degrades the scheduler even with no
	// admission ceiling configured.
	s.NoteBackpressure()
	if got := s.Mode(); got != ModeBudgeted {
		t.Fatalf("Mode after backpressure = %v, want budgeted", got)
	}
	d, err = s.Schedule(base, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) != DefaultBestEffortK {
		t.Errorf("degraded fallback selected %d replicas, want best-effort %d", len(d.Targets), DefaultBestEffortK)
	}
	if d.Guarantee != selection.GuaranteeCapped || d.Mode != ModeBudgeted {
		t.Errorf("Decision = {Guarantee:%v Mode:%v}, want capped in budgeted mode", d.Guarantee, d.Mode)
	}
	if st := s.Stats(); st.Backpressure != 1 || st.BudgetCapped == 0 {
		t.Errorf("stats = %+v, want Backpressure=1 and BudgetCapped>0", st)
	}
	finish(d)

	// The hold lasts backpressureHold completions, the one above included;
	// then the ladder returns to Normal and the select-all fallback is
	// paper-exact again.
	for i := 1; i < backpressureHold; i++ {
		if got := s.Mode(); got != ModeBudgeted {
			t.Fatalf("Mode after %d completions of the hold = %v, want budgeted", i, got)
		}
		d, err = s.Schedule(base, "")
		if err != nil {
			t.Fatal(err)
		}
		finish(d)
	}
	if got := s.Mode(); got != ModeNormal {
		t.Fatalf("Mode after hold drained = %v, want normal", got)
	}
	d, err = s.Schedule(base, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) != 4 {
		t.Errorf("post-recovery fallback selected %d replicas, want all 4", len(d.Targets))
	}
	finish(d)
}

// TestDegradedModeBestEffortKeepsBestReplicas: the degraded-mode cap keeps
// the best replicas by F_Ri(t), not the first targets a strategy happens to
// list. selection.All — active replication — lists every replica in ID order,
// so truncating its list would send every degraded call to the two lowest IDs,
// here the two replicas that can never meet the deadline.
func TestDegradedModeBestEffortKeepsBestReplicas(t *testing.T) {
	repo := repository.New()
	base := time.Now()
	for _, r := range []struct {
		id  wire.ReplicaID
		svc time.Duration
	}{{"a", 30 * ms}, {"b", 25 * ms}, {"c", 2 * ms}, {"d", 3 * ms}} {
		repo.AddReplica(r.id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordPerf(r.id, "", wire.PerfReport{ServiceTime: r.svc}, base)
		}
		repo.RecordGatewayDelay(r.id, 0)
	}
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 10 * ms, MinProbability: 0.9},
		Strategy:   selection.All{},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.NoteBackpressure()
	d, err := s.Schedule(base, "")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Targets) != "[c d]" || d.Predicted != 1 {
		t.Errorf("degraded targets %v at P_K %v, want the two timely replicas [c d] at 1", d.Targets, d.Predicted)
	}
	if d.Guarantee != selection.GuaranteeCapped || d.Mode != ModeBudgeted {
		t.Errorf("Decision = {Guarantee:%v Mode:%v}, want capped in budgeted mode", d.Guarantee, d.Mode)
	}
}

// TestDegradedModeLeavesColdProbeSwap: the best-effort rung replaces only a
// fallback. Here Algorithm 1 meets Pc(t) with K = {a, b, c}, and Budgeted,
// held to three replicas, trades c for the cold replica d. That decision is
// labelled probe, not capped, and keeps its three targets while degraded.
func TestDegradedModeLeavesColdProbeSwap(t *testing.T) {
	repo := repository.New()
	base := time.Now()
	// F_Ri(10 ms) is the share of each window under the deadline: 0.8, 0.6
	// and 0.6.
	for id, timely := range map[wire.ReplicaID]int{"a": 4, "b": 3, "c": 3} {
		repo.AddReplica(id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			svc := 30 * ms
			if j < timely {
				svc = 2 * ms
			}
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc}, base)
		}
	}
	repo.AddReplica("d")
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 10 * ms, MinProbability: 0.8},
		Strategy:   &selection.Budgeted{MaxK: 3},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.NoteBackpressure()
	d, err := s.Schedule(base, "")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Targets) != "[a b d]" || d.Guarantee != selection.GuaranteeProbe || d.Mode != ModeBudgeted {
		t.Errorf("degraded decision %v (%v, %v), want [a b d] labelled probe in budgeted mode", d.Targets, d.Guarantee, d.Mode)
	}
	if st := s.Stats(); st.BudgetCapped != 1 || st.UsedAllCount != 0 {
		t.Errorf("stats = %+v, want BudgetCapped=1 and UsedAllCount=0", st)
	}
}
