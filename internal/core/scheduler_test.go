package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

const ms = time.Millisecond

// warmRepo builds a repository whose replicas each have deterministic
// constant history: service time svc, queue delay qd, gateway delay gw.
func warmRepo(t *testing.T, n int, svc, qd, gw time.Duration) *repository.Repository {
	t.Helper()
	repo := repository.New()
	base := time.Now()
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(rune('a' + i))
		repo.AddReplica(id)
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc, QueueDelay: qd}, base)
		}
		repo.RecordGatewayDelay(id, gw)
	}
	return repo
}

func newSched(t *testing.T, repo *repository.Repository, q wire.QoS) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        q,
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(Config{Service: "s", QoS: wire.QoS{Deadline: -1}}); err == nil {
		t.Error("want error for invalid QoS")
	}
	if _, err := NewScheduler(Config{QoS: wire.QoS{Deadline: time.Second}}); err == nil {
		t.Error("want error for missing service")
	}
}

func TestScheduleColdStartSelectsAll(t *testing.T) {
	repo := repository.New()
	repo.AddReplica("a")
	repo.AddReplica("b")
	repo.AddReplica("c")
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})

	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !d.ColdStart {
		t.Error("ColdStart = false on first access")
	}
	if len(d.Targets) != 3 {
		t.Errorf("Targets = %v, want all 3 (paper's first-access rule)", d.Targets)
	}
}

func TestScheduleNoReplicas(t *testing.T) {
	s := newSched(t, repository.New(), wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	if _, err := s.Schedule(time.Now(), ""); err == nil {
		t.Error("want error with no replicas")
	}
}

func TestRequestLifecycleTimelyResponse(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})

	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) < 2 {
		t.Fatalf("Targets = %v, want >= 2 (crash reserve)", d.Targets)
	}
	t1 := t0.Add(ms)
	if err := s.Dispatched(d.Seq, t1); err != nil {
		t.Fatal(err)
	}
	t4 := t0.Add(20 * ms)
	out := s.OnReply(d.Seq, d.Targets[0], t4, wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms})
	if !out.First {
		t.Fatal("first reply not marked First")
	}
	if out.TimingFailure {
		t.Error("timely reply flagged as timing failure")
	}
	if out.ResponseTime != 20*ms {
		t.Errorf("ResponseTime = %v, want 20ms", out.ResponseTime)
	}
	st := s.Stats()
	if st.Completed != 1 || st.TimingFailures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDuplicateRepliesHarvestedNotDelivered(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})

	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	if err := s.Dispatched(d.Seq, t0.Add(ms)); err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) < 2 {
		t.Fatalf("need >= 2 targets, got %v", d.Targets)
	}
	first := s.OnReply(d.Seq, d.Targets[0], t0.Add(15*ms), wire.PerfReport{ServiceTime: 9 * ms, QueueDelay: ms})
	dup := s.OnReply(d.Seq, d.Targets[1], t0.Add(18*ms), wire.PerfReport{ServiceTime: 11 * ms, QueueDelay: 2 * ms})
	if !first.First || dup.First {
		t.Errorf("first=%+v dup=%+v", first, dup)
	}
	if !dup.Duplicate {
		t.Error("second reply not marked duplicate")
	}
	st := s.Stats()
	if st.Duplicates != 1 || st.Replies != 2 {
		t.Errorf("stats = %+v", st)
	}
	// The duplicate's perf data must have updated the repository: its
	// replica's last report is the duplicate's, received at t4.
	snap, err := repo.SnapshotOne(d.Targets[1], "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.LastUpdate.Equal(t0.Add(18 * ms)) {
		t.Errorf("duplicate perf not harvested: last update %v, want t0+18ms", snap.LastUpdate.Sub(t0))
	}
}

func TestGatewayDelayDerivedFromReply(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, 0)
	s := newSched(t, repo, wire.QoS{Deadline: 500 * ms, MinProbability: 0})

	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	t1 := t0.Add(ms)
	if err := s.Dispatched(d.Seq, t1); err != nil {
		t.Fatal(err)
	}
	// t4 - t1 = 30ms; tq = 4ms; ts = 20ms → td = 6ms.
	t4 := t1.Add(30 * ms)
	s.OnReply(d.Seq, d.Targets[0], t4, wire.PerfReport{ServiceTime: 20 * ms, QueueDelay: 4 * ms})
	snap, err := repo.SnapshotOne(d.Targets[0], "")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.GatewayHist; len(got.Bins) != 1 || got.Bins[0] != 6 || got.Counts[0] != 1 {
		t.Errorf("T window = %+v, want one sample in the 6ms bin", got)
	}
}

func TestTimingFailureDetection(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 50 * ms, MinProbability: 0})

	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	if err := s.Dispatched(d.Seq, t0.Add(ms)); err != nil {
		t.Fatal(err)
	}
	out := s.OnReply(d.Seq, d.Targets[0], t0.Add(80*ms), wire.PerfReport{ServiceTime: 70 * ms})
	if !out.TimingFailure {
		t.Error("late reply not flagged as timing failure")
	}
	if got := s.Stats().TimingFailures; got != 1 {
		t.Errorf("TimingFailures = %d, want 1", got)
	}
}

func TestDeadlineExpiryChargesOnce(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 50 * ms, MinProbability: 0})

	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	if err := s.Dispatched(d.Seq, t0.Add(ms)); err != nil {
		t.Fatal(err)
	}
	s.OnDeadlineExpired(d.Seq)
	s.OnDeadlineExpired(d.Seq) // second expiry is a no-op
	st := s.Stats()
	if st.TimingFailures != 1 || st.DeadlineExpiries != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A late first reply is still delivered but not double-counted.
	out := s.OnReply(d.Seq, d.Targets[0], t0.Add(90*ms), wire.PerfReport{ServiceTime: 80 * ms})
	if !out.First {
		t.Error("late reply should still be delivered as first")
	}
	if !out.TimingFailure {
		t.Error("late reply should be reported as a timing failure to the caller")
	}
	if got := s.Stats().TimingFailures; got != 1 {
		t.Errorf("TimingFailures double-counted: %d", got)
	}
}

func TestUnknownAndForeignReplies(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0})

	out := s.OnReply(999, "a", time.Now(), wire.PerfReport{})
	if !out.Unknown {
		t.Error("unknown seq not flagged")
	}
	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	// Reply from a replica that was never targeted... craft one.
	out = s.OnReply(d.Seq, "not-a-target", t0.Add(ms), wire.PerfReport{})
	if !out.Unknown {
		t.Error("foreign replica reply not ignored")
	}
}

func TestViolationCallbackFiresOnceBelowThreshold(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 50 * ms, MinProbability: 0.9},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	var violations []*ViolationReport
	base := time.Now()
	for i := 0; i < 2*DefaultMinSamplesForViolation; i++ {
		t0 := base.Add(time.Duration(i) * time.Second)
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		// Every reply is late: tr = 80ms > 50ms.
		out := s.OnReply(d.Seq, d.Targets[0], t0.Add(80*ms), wire.PerfReport{ServiceTime: 70 * ms})
		if out.Violation != nil {
			violations = append(violations, out.Violation)
		}
	}
	if len(violations) != 1 {
		t.Fatalf("violations fired %d times, want exactly 1", len(violations))
	}
	v := violations[0]
	if v.ObservedTimely != 0 || v.RequiredTimely != 0.9 {
		t.Errorf("report = %+v", v)
	}
	if v.Completed != DefaultMinSamplesForViolation {
		t.Errorf("violation fired at completion %d, want the first judged one (%d): %+v",
			v.Completed, DefaultMinSamplesForViolation, v)
	}
}

func TestRenegotiateRearmsViolation(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 50 * ms, MinProbability: 0.9},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	fail := func() *ViolationReport {
		t0 := time.Now()
		d, _ := s.Schedule(t0, "")
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		out := s.OnReply(d.Seq, d.Targets[0], t0.Add(80*ms), wire.PerfReport{ServiceTime: 70 * ms})
		return out.Violation
	}
	// failWindow fails one accounting window's worth of requests and returns
	// the violation reported by its last completion, the first one judged.
	failWindow := func() *ViolationReport {
		for i := 1; i < DefaultMinSamplesForViolation; i++ {
			if v := fail(); v != nil {
				t.Fatalf("violation at completion %d, before the window is judged: %v", i, v)
			}
		}
		return fail()
	}
	if failWindow() == nil {
		t.Fatal("first violation not reported")
	}
	if fail() != nil {
		t.Fatal("violation reported twice without renegotiation")
	}
	if err := s.Renegotiate(wire.QoS{Deadline: 50 * ms, MinProbability: 0.95}); err != nil {
		t.Fatal(err)
	}
	if s.QoS().MinProbability != 0.95 {
		t.Error("renegotiated QoS not stored")
	}
	if failWindow() == nil {
		t.Error("violation not re-armed after renegotiation")
	}
	if err := s.Renegotiate(wire.QoS{Deadline: 0}); err == nil {
		t.Error("want error for invalid renegotiation")
	}
}

func TestMembershipChangePrunesCrashedReplica(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.5})
	s.OnMembershipChange([]wire.ReplicaID{"a", "b"}, time.Now()) // c crashed

	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range d.Targets {
		if id == "c" {
			t.Error("crashed replica still selected")
		}
	}
}

func TestOnPerfUpdateFeedsRepository(t *testing.T) {
	repo := repository.New()
	repo.AddReplica("a")
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.5})
	s.OnPerfUpdate(wire.PerfUpdate{
		Replica: "a",
		Perf:    wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms, QueueLength: 1},
	}, time.Now())
	snap, err := repo.SnapshotOne("a", "")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.HasHistory {
		t.Error("pushed update did not populate history")
	}
}

func TestOverheadCompensationTightensDeadline(t *testing.T) {
	// Replica responds in exactly 100ms (point mass). With a 100ms deadline
	// F = 1; with compensation δ=5ms the effective deadline is 95ms → F = 0,
	// so the dynamic strategy must fall back to selecting all replicas.
	repo := warmRepo(t, 3, 100*ms, 0, 0)
	s, err := NewScheduler(Config{
		Service:            "svc",
		QoS:                wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
		Repository:         repo,
		CompensateOverhead: true,
		FixedOverhead:      5 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Guarantee != selection.GuaranteeLine15 {
		t.Errorf("with compensation, want fallback to all; got %v (%v)", d.Targets, d.Guarantee)
	}

	// Without compensation the same setup is satisfiable with 2 replicas.
	s2 := newSched(t, warmRepo(t, 3, 100*ms, 0, 0), wire.QoS{Deadline: 100 * ms, MinProbability: 0.5})
	d2, err := s2.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Guarantee != selection.GuaranteeEq3 || len(d2.Targets) != 2 {
		t.Errorf("without compensation, want 2 targets; got %v (%v)", d2.Targets, d2.Guarantee)
	}
}

func TestStalenessBoundForcesProbe(t *testing.T) {
	repo := repository.New()
	old := time.Now().Add(-time.Hour)
	for _, id := range []wire.ReplicaID{"a", "b", "c"} {
		repo.AddReplica(id)
		for j := 0; j < 5; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: ms}, old)
		}
	}
	// Refresh only a and b.
	now := time.Now()
	repo.RecordPerf("a", "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: ms}, now)
	repo.RecordPerf("b", "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: ms}, now)

	s, err := NewScheduler(Config{
		Service:        "svc",
		QoS:            wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
		Repository:     repo,
		StalenessBound: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(now, "")
	if err != nil {
		t.Fatal(err)
	}
	var hasC bool
	for _, id := range d.Targets {
		if id == "c" {
			hasC = true
		}
	}
	if !hasC {
		t.Errorf("stale replica not probed: %v", d.Targets)
	}
	if !d.ColdStart {
		t.Error("ColdStart flag should mark the forced probe")
	}
}

func TestForgetAndOutstanding(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0})
	d, _ := s.Schedule(time.Now(), "")
	if got := s.Outstanding(); got != 1 {
		t.Errorf("Outstanding = %d, want 1", got)
	}
	s.Forget(d.Seq)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d, want 0", got)
	}
	s.Forget(12345) // unknown is fine
}

func TestPendingRemovedAfterAllReplies(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 500 * ms, MinProbability: 0})
	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	if err := s.Dispatched(d.Seq, t0); err != nil {
		t.Fatal(err)
	}
	for _, id := range d.Targets {
		s.OnReply(d.Seq, id, t0.Add(20*ms), wire.PerfReport{ServiceTime: 10 * ms})
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding = %d after all replies, want 0", got)
	}
}

func TestDispatchedUnknownSeq(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0})
	if err := s.Dispatched(777, time.Now()); err == nil {
		t.Error("want error for unknown seq")
	}
}

func TestStatsMeanRedundancyAndFailureProbability(t *testing.T) {
	var st Stats
	if st.MeanRedundancy() != 0 || st.FailureProbability() != 0 {
		t.Error("zero-value stats should report 0")
	}
	st = Stats{Requests: 4, SelectedTotal: 10, Completed: 8, TimingFailures: 2}
	if got := st.MeanRedundancy(); got != 2.5 {
		t.Errorf("MeanRedundancy = %v", got)
	}
	if got := st.FailureProbability(); got != 0.25 {
		t.Errorf("FailureProbability = %v", got)
	}
}

func TestSeparateSchedulersIndependent(t *testing.T) {
	// Two clients each have their own handler + repository (the paper's
	// local-repository design); state must not leak.
	r1 := warmRepo(t, 2, 10*ms, 2*ms, ms)
	r2 := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s1 := newSched(t, r1, wire.QoS{Deadline: 100 * ms, MinProbability: 0})
	s2 := newSched(t, r2, wire.QoS{Deadline: 100 * ms, MinProbability: 0})
	d1, _ := s1.Schedule(time.Now(), "")
	if s2.Outstanding() != 0 {
		t.Error("scheduler state leaked across clients")
	}
	_ = d1
	if s1.Outstanding() != 1 {
		t.Error("s1 lost its own pending request")
	}
}

func TestLateReplyAfterExpiryDoesNotDoubleComplete(t *testing.T) {
	// Regression: a request whose deadline expires and whose first reply
	// arrives later must count exactly once in Completed.
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 50 * ms, MinProbability: 0})
	t0 := time.Now()
	d, _ := s.Schedule(t0, "")
	if err := s.Dispatched(d.Seq, t0); err != nil {
		t.Fatal(err)
	}
	s.OnDeadlineExpired(d.Seq)
	s.OnReply(d.Seq, d.Targets[0], t0.Add(90*ms), wire.PerfReport{ServiceTime: 80 * ms})
	st := s.Stats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
	if st.TimingFailures != 1 {
		t.Errorf("TimingFailures = %d, want 1", st.TimingFailures)
	}
}

func TestSchedulerConcurrentStress(t *testing.T) {
	// Hammer the scheduler from parallel goroutines mixing schedules,
	// replies, expiries, membership changes, and renegotiations: counters
	// must stay consistent and nothing may race (run with -race).
	repo := warmRepo(t, 4, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.5})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				t0 := time.Now()
				d, err := s.Schedule(t0, "")
				if err != nil {
					continue
				}
				_ = s.Dispatched(d.Seq, t0)
				switch i % 3 {
				case 0:
					for _, id := range d.Targets {
						s.OnReply(d.Seq, id, t0.Add(20*ms), wire.PerfReport{ServiceTime: 10 * ms})
					}
				case 1:
					s.OnDeadlineExpired(d.Seq)
					s.Forget(d.Seq)
				case 2:
					s.OnReply(d.Seq, d.Targets[0], t0.Add(150*ms), wire.PerfReport{ServiceTime: 140 * ms})
					s.Forget(d.Seq)
				}
				if i%25 == 0 {
					_ = s.Renegotiate(wire.QoS{Deadline: 100 * ms, MinProbability: 0.5})
					s.OnMembershipChange(repo.Replicas(), time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != 600 {
		t.Errorf("Requests = %d, want 600", st.Requests)
	}
	if st.Completed > st.Requests {
		t.Errorf("Completed %d > Requests %d", st.Completed, st.Requests)
	}
}

// TestScheduleTiesByOutstandingWork: replicas whose F_Ri(t) ties rank by this
// gateway's outstanding work there, so a replica holding an unsettled copy
// (5 ms median service) yields m0 to an idle one. The tie order moves only
// which replicas K names: |K|, P_K(t) and the guarantee are unchanged.
func TestScheduleTiesByOutstandingWork(t *testing.T) {
	repo := warmRepo(t, 3, 5*ms, 0, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	decide := func() Decision {
		t.Helper()
		d, err := s.Schedule(time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		s.Forget(d.Seq) // settles its copies
		return d
	}
	idle := decide()
	if !slices.Equal(idle.Targets, []wire.ReplicaID{"a", "b"}) || idle.Guarantee != selection.GuaranteeEq3 {
		t.Fatalf("idle pool: K = %v (%v), want [a b] (eq3): equal F and no work rank by ID", idle.Targets, idle.Guarantee)
	}
	repo.NoteDispatched("a")
	busy := decide()
	if !slices.Equal(busy.Targets, []wire.ReplicaID{"b", "c"}) {
		t.Fatalf("a holds a copy: K = %v, want [b c]", busy.Targets)
	}
	if len(busy.Targets) != len(idle.Targets) || busy.Guarantee != idle.Guarantee || busy.Predicted != idle.Predicted {
		t.Fatalf("tie order moved |K|, P_K or the label: %d %v %v, idle %d %v %v",
			len(busy.Targets), busy.Predicted, busy.Guarantee, len(idle.Targets), idle.Predicted, idle.Guarantee)
	}
	repo.NoteSettled("a")
	if d := decide(); !slices.Equal(d.Targets, idle.Targets) {
		t.Fatalf("after a's copy settled: K = %v, want %v", d.Targets, idle.Targets)
	}
}

// TestScheduleZeroServiceTiesByID: a zero-service pool's median service bin
// is 0, so copies in flight add no work and ties stay in ID order, as they
// did before ties were ranked by work.
func TestScheduleZeroServiceTiesByID(t *testing.T) {
	repo := warmRepo(t, 3, 0, 0, 0)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	repo.NoteDispatchedAll([]wire.ReplicaID{"a", "a", "a", "b"})
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Targets, []wire.ReplicaID{"a", "b"}) || d.Guarantee != selection.GuaranteeEq3 {
		t.Fatalf("K = %v (%v), want [a b] (eq3)", d.Targets, d.Guarantee)
	}
}
