package core

// Regression tests for the PR 1 scheduler bugfixes: the pending-entry leak on
// full-subset crashes, the stale-δ-on-error path, and the overhead-clamp
// guard for δ ≥ deadline.

import (
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// emptyStrategy always selects nothing, simulating a strategy failure.
type emptyStrategy struct{}

func (emptyStrategy) Name() string                            { return "empty" }
func (emptyStrategy) Select(selection.Input) selection.Result { return selection.Result{} }

// survivorsOf returns the replicas of repo that are NOT in the decision's
// target set.
func survivorsOf(repo *repository.Repository, d Decision) []wire.ReplicaID {
	targeted := make(map[wire.ReplicaID]bool, len(d.Targets))
	for _, id := range d.Targets {
		targeted[id] = true
	}
	var out []wire.ReplicaID
	for _, id := range repo.Replicas() {
		if !targeted[id] {
			out = append(out, id)
		}
	}
	return out
}

// TestMembershipSweepDrainsDoomedPending: when every replica a request was
// sent to leaves the group view, no reply can ever arrive; the membership
// sweep must drop the tracking state (no leak) and, because the deadline has
// already passed, charge the failure as a deadline expiry.
func TestMembershipSweepDrainsDoomedPending(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 50 * ms, MinProbability: 0.9})

	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Outstanding() != 1 {
		t.Fatalf("Outstanding() = %d after scheduling, want 1", s.Outstanding())
	}

	// Every selected replica crashes; the sweep time is past the deadline.
	s.OnMembershipChange(survivorsOf(repo, d), t0.Add(60*ms))

	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after full-subset crash sweep, want 0 (leak)", got)
	}
	st := s.Stats()
	if st.DeadlineExpiries != 1 {
		t.Errorf("DeadlineExpiries = %d, want 1 (sweep past deadline charges the failure)", st.DeadlineExpiries)
	}
	if st.TimingFailures != 1 || st.Completed != 1 {
		t.Errorf("TimingFailures/Completed = %d/%d, want 1/1", st.TimingFailures, st.Completed)
	}
}

// TestMembershipSweepBeforeDeadlineDropsWithoutCharge: a doomed entry swept
// before its deadline is still dropped (it can never complete) but must not
// be charged as an expiry yet — the deadline hasn't passed.
func TestMembershipSweepBeforeDeadlineDropsWithoutCharge(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})

	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	s.OnMembershipChange(survivorsOf(repo, d), t0.Add(10*ms))

	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d, want 0", got)
	}
	if st := s.Stats(); st.DeadlineExpiries != 0 {
		t.Errorf("DeadlineExpiries = %d, want 0 (deadline not yet due)", st.DeadlineExpiries)
	}
}

// TestMembershipSweepSparesLiveTargets: a pending request keeping at least
// one live target must survive the sweep — a reply can still arrive.
func TestMembershipSweepSparesLiveTargets(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 50 * ms, MinProbability: 0.9})

	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Keep exactly one of the targets alive.
	s.OnMembershipChange([]wire.ReplicaID{d.Targets[0]}, t0.Add(60*ms))

	if got := s.Outstanding(); got != 1 {
		t.Errorf("Outstanding() = %d, want 1 (one target still alive)", got)
	}
	if st := s.Stats(); st.DeadlineExpiries != 0 {
		t.Errorf("DeadlineExpiries = %d, want 0", st.DeadlineExpiries)
	}
}

// TestMembershipSweepReportsViolation: expiring enough doomed requests must
// trip the QoS-violation predicate exactly as OnDeadlineExpired would, and
// the sweep must return the report.
func TestMembershipSweepReportsViolation(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 30 * ms, MinProbability: 0.9},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	for i := 0; i < DefaultMinSamplesForViolation; i++ {
		if _, err := s.Schedule(t0, ""); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.OnMembershipChange(nil, t0.Add(40*ms))
	if rep == nil {
		t.Fatalf("sweep expiring %d requests past deadline should report a QoS violation", DefaultMinSamplesForViolation)
	}
	if rep.TimingFailures != DefaultMinSamplesForViolation {
		t.Errorf("violation reports %d failures, want %d", rep.TimingFailures, DefaultMinSamplesForViolation)
	}
}

// TestScheduleRecordsOverheadOnErrorPath: δ must be refreshed even when
// scheduling fails (strategy selects nothing). Before the fix, an error left
// s.lastOverhead stale, silently compensating later deadlines with an old δ.
func TestScheduleRecordsOverheadOnErrorPath(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
		Repository: repo,
		Strategy:   emptyStrategy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(time.Now(), ""); err == nil {
		t.Fatal("want error from empty selection")
	}
	if s.LastOverhead() <= 0 {
		t.Error("LastOverhead() not recorded on the strategy-error path")
	}

	// Predictor-level failure (no replicas at all) must also refresh δ.
	s2 := newSched(t, repository.New(), wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	if _, err := s2.Schedule(time.Now(), ""); err == nil {
		t.Fatal("want error with no replicas")
	}
	if s2.LastOverhead() <= 0 {
		t.Error("LastOverhead() not recorded on the no-replica error path")
	}
}

// TestOverheadClampKeepsSelectionDiscriminating: with CompensateOverhead and
// a pathological δ ≥ deadline, the effective deadline must not collapse to 0
// — F_Ri(0) = 0 would degenerate every selection into "use all replicas"
// churn. The clamp caps δ at deadline/2, so fast replicas (10ms point mass
// against a 100ms deadline) still satisfy F(50ms) = 1 and a proper subset is
// chosen.
func TestOverheadClampKeepsSelectionDiscriminating(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 0, 0)
	s, err := NewScheduler(Config{
		Service:            "svc",
		QoS:                wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
		Repository:         repo,
		CompensateOverhead: true,
		FixedOverhead:      150 * ms, // δ > deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Guarantee != selection.GuaranteeEq3 {
		t.Errorf("δ ≥ deadline degenerated selection to all replicas: %v (%v)", d.Targets, d.Guarantee)
	}
	if len(d.Targets) != 2 {
		t.Errorf("Targets = %v, want the 2-replica crash-reserve subset", d.Targets)
	}
	if d.Predicted != 1 {
		t.Errorf("Predicted = %v, want 1 (F(50ms) = 1 for 10ms point mass)", d.Predicted)
	}
}

// TestReplyIsOneRepositoryMutation: a reply's S, W and T enter the repository
// together, so a decision made between two replies never sees S and W from
// the later one beside T from the earlier. Every reply i reports service time
// i ms and arrives so that its derived gateway delay is i ms too; with windows
// of one sample a snapshot must read the same bin in both.
func TestReplyIsOneRepositoryMutation(t *testing.T) {
	repo := repository.New(repository.WithWindowSize(1))
	repo.AddReplica("a")
	s := newSched(t, repo, wire.QoS{Deadline: time.Hour, MinProbability: 0})

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := repo.SnapshotShared("")[0]
			if !snap.HasHistory {
				continue
			}
			if sb, tb := snap.ServiceHist.Bins, snap.GatewayHist.Bins; len(tb) != 1 || sb[0] != tb[0] {
				t.Errorf("snapshot holds S bins %v beside T bins %v: half a reply", sb, tb)
				return
			}
		}
	}()
	t0 := time.Now()
	for i := 1; i <= 20000; i++ {
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		ts := time.Duration(i) * ms
		s.OnReply(d.Seq, "a", t0.Add(3*ts), wire.PerfReport{ServiceTime: ts, QueueDelay: ts})
		d.Release()
	}
	close(stop)
	<-done
}

// TestSweepExpiredDropsAtDeadlinePlusGrace: a request whose targets never
// reply is dropped by the sweep at t0 + deadline + ForgetGrace and not
// before, its in-flight counts settle, and until then a straggler is still
// harvested as a duplicate.
func TestSweepExpiredDropsAtDeadlinePlusGrace(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	q := wire.QoS{Deadline: 100 * ms, MinProbability: 0.99}
	s := newSched(t, repo, q)
	t0 := time.Now()
	silent, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	answered, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(answered.Targets) < 2 {
		t.Fatalf("selected %v, need a duplicate", answered.Targets)
	}
	for _, d := range []Decision{silent, answered} {
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
	}
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	if out := s.OnReply(answered.Seq, answered.Targets[0], t0.Add(15*ms), perf); !out.First {
		t.Fatalf("first reply: %+v", out)
	}
	if v := s.OnDeadlineExpired(silent.Seq); v != nil {
		t.Fatalf("unexpected violation %v", v)
	}

	drop := t0.Add(q.Deadline + ForgetGrace)
	s.SweepExpired(drop.Add(-time.Nanosecond))
	if got := s.Outstanding(); got != 2 {
		t.Fatalf("Outstanding() = %d one tick before the grace ends, want 2", got)
	}
	// Inside the grace a straggler's data is still harvested.
	if out := s.OnReply(answered.Seq, answered.Targets[1], drop.Add(-time.Second), perf); !out.Duplicate {
		t.Fatalf("straggler inside the grace: %+v, want Duplicate", out)
	}
	if repo.TotalInFlight() == 0 {
		t.Fatal("the silent request's copies settled before the sweep")
	}
	s.SweepExpired(drop)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after the sweep, want 0", got)
	}
	if got := repo.TotalInFlight(); got != 0 {
		t.Errorf("TotalInFlight() = %d after the sweep, want 0", got)
	}
	if out := s.OnReply(silent.Seq, silent.Targets[0], drop.Add(time.Second), perf); !out.Unknown {
		t.Errorf("reply after the sweep: %+v, want Unknown", out)
	}
	if got := s.Stats().DeadlineExpiries; got != 1 {
		t.Errorf("DeadlineExpiries = %d, want 1 (the sweep charges nothing)", got)
	}
}
