package core

// Fences for the cancellation rule: CancelTargets cancels a losing copy only
// when the repository has S and T history for its replica, the replica's
// median service bin exceeds its median round-trip bin, and it was not
// cancelled on each of its last l selections; a cancelled request's entry is
// recycled by the first sweep past its deadline.

import (
	"slices"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// allSched is a scheduler that selects every replica, so each request has
// every replica but the winner as a loser.
func allSched(t *testing.T, repo *repository.Repository, q wire.QoS) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Config{Service: "svc", QoS: q, Repository: repo, Strategy: selection.All{}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tracked counts the pending entries held across every shard, discounted
// ones included.
func tracked(s *Scheduler) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// firstReply schedules one request at t0, dispatches it, delivers the first
// reply from its best-ranked target and returns the decision's targets (a
// copy) with the IDs CancelTargets picked.
func firstReply(t *testing.T, s *Scheduler, t0 time.Time, perf wire.PerfReport) (seq wire.SeqNo, targets, cancelled []wire.ReplicaID) {
	t.Helper()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	if err := s.Dispatched(d.Seq, t0); err != nil {
		t.Fatal(err)
	}
	targets = slices.Clone(d.Targets)
	if out := s.OnReply(d.Seq, targets[0], t0.Add(perf.ServiceTime+perf.QueueDelay), perf); !out.First {
		t.Fatalf("reply from %s: %+v, want First", targets[0], out)
	}
	return d.Seq, targets, s.CancelTargets(d.Seq, nil)
}

// TestCancelTargetsSparesZeroService: replicas whose service falls in the
// same bin as their round trip (here both 0 ms) get no Cancel even at
// |K| >= 2, the request keeps its admission count, and every duplicate is
// harvested.
func TestCancelTargetsSparesZeroService(t *testing.T) {
	repo := warmRepo(t, 3, 0, 0, 0)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	t0 := time.Now()
	seq, targets, cancelled := firstReply(t, s, t0, wire.PerfReport{})
	if len(targets) < 2 {
		t.Fatalf("targets = %v, want >= 2", targets)
	}
	if len(cancelled) != 0 {
		t.Fatalf("CancelTargets = %v, want none for zero-service replicas", cancelled)
	}
	if got := s.Outstanding(); got != 1 {
		t.Errorf("Outstanding() = %d with no copy cancelled, want 1", got)
	}
	for _, id := range targets[1:] {
		if out := s.OnReply(seq, id, t0.Add(ms), wire.PerfReport{}); !out.Duplicate {
			t.Errorf("reply from %s: %+v, want Duplicate", id, out)
		}
	}
	if got := s.Stats().Duplicates; got != uint64(len(targets)-1) {
		t.Errorf("Duplicates = %d, want %d", got, len(targets)-1)
	}
	if got, n := s.Outstanding(), tracked(s); got != 0 || n != 0 {
		t.Errorf("Outstanding() = %d, tracked = %d after every reply, want 0/0", got, n)
	}
}

// TestCancelTargetsFromFirstWarmSelection: a cold loser is not cancelled,
// nor one whose S window a subscription report filled but that has no T
// sample yet, and the first selection after their replies gave them S and T
// history cancels them.
func TestCancelTargetsFromFirstWarmSelection(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	repo.AddReplica("y")
	repo.RecordPerf("y", "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}, time.Now())
	repo.AddReplica("z") // cold; y and z are last in ID order: never the winner
	s := allSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	t0 := time.Now()
	seq, targets, cancelled := firstReply(t, s, t0, perf)
	for _, id := range []wire.ReplicaID{"y", "z"} {
		if !slices.Contains(targets, id) {
			t.Fatalf("targets = %v, want %s among them", targets, id)
		}
		if slices.Contains(cancelled, id) {
			t.Fatalf("CancelTargets = %v cancelled %s, which has no T history", cancelled, id)
		}
		if out := s.OnReply(seq, id, t0.Add(13*ms), perf); !out.Duplicate {
			t.Fatalf("%s's reply: %+v, want Duplicate", id, out)
		}
	}
	_, targets, cancelled = firstReply(t, s, t0.Add(20*ms), perf)
	if !slices.Equal(cancelled, targets[1:]) {
		t.Errorf("targets %v, CancelTargets %v: want every loser, the now warm y and z included", targets, cancelled)
	}
}

// TestCancelTargetsServesAfterLConsecutiveCancels: a loser cancelled on l
// consecutive selections is served on the next, and its reply lets it be
// cancelled again. A report the replica pushes between selections, after
// serving another client, measures no round trip from this gateway and does
// not restart the count.
func TestCancelTargetsServesAfterLConsecutiveCancels(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	s := newSched(t, repo, wire.QoS{Deadline: 100 * ms, MinProbability: 0.9})
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	t0 := time.Now()
	const l = repository.DefaultWindowSize
	var loser wire.ReplicaID
	for i := 0; i <= l; i++ {
		seq, targets, cancelled := firstReply(t, s, t0, perf)
		if len(targets) != 2 {
			t.Fatalf("targets = %v, want the reserve and one more", targets)
		}
		if loser == "" {
			loser = targets[1]
		}
		if targets[1] != loser {
			t.Fatalf("selection %d: loser %s, want %s every time", i, targets[1], loser)
		}
		s.OnPerfUpdate(wire.PerfUpdate{Replica: loser, Service: "svc", Perf: perf}, t0)
		if i < l {
			if !slices.Equal(cancelled, []wire.ReplicaID{loser}) {
				t.Fatalf("selection %d: CancelTargets = %v, want [%s]", i, cancelled, loser)
			}
			continue
		}
		if len(cancelled) != 0 {
			t.Fatalf("selection %d, after %d consecutive cancels: CancelTargets = %v, want none", i, l, cancelled)
		}
		// The spared copy serves and replies, which resets the count.
		if out := s.OnReply(seq, loser, t0.Add(13*ms), perf); !out.Duplicate {
			t.Fatalf("spared copy's reply: %+v, want Duplicate", out)
		}
	}
	if _, _, cancelled := firstReply(t, s, t0, perf); !slices.Equal(cancelled, []wire.ReplicaID{loser}) {
		t.Errorf("after the spared copy reported: CancelTargets = %v, want [%s]", cancelled, loser)
	}
}

// TestSparedCopyKeepsAdmissionCount: a request with one loser cancelled and
// one spared (a zero-service replica) still counts toward admission while the
// spared copy is queued or serving, leaves the count at that copy's reply, and
// is recycled by the first sweep past its deadline.
func TestSparedCopyKeepsAdmissionCount(t *testing.T) {
	repo := warmRepo(t, 2, 10*ms, 2*ms, ms)
	repo.AddReplica("z") // last in ID order: never the winner
	for range repository.DefaultWindowSize {
		repo.RecordPerf("z", "", wire.PerfReport{}, time.Now())
	}
	repo.RecordGatewayDelay("z", 0)
	q := wire.QoS{Deadline: 100 * ms, MinProbability: 0.9}
	s := allSched(t, repo, q)
	t0 := time.Now()
	seq, targets, cancelled := firstReply(t, s, t0, wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms})
	if !slices.Equal(targets, []wire.ReplicaID{"a", "b", "z"}) || !slices.Equal(cancelled, []wire.ReplicaID{"b"}) {
		t.Fatalf("targets %v, CancelTargets %v: want [a b z] with only b cancelled", targets, cancelled)
	}
	if got := s.Outstanding(); got != 1 {
		t.Errorf("Outstanding() = %d while z's spared copy runs, want 1", got)
	}
	if out := s.OnReply(seq, "z", t0.Add(13*ms), wire.PerfReport{}); !out.Duplicate {
		t.Fatalf("z's reply: %+v, want Duplicate", out)
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after the spared copy replied, want 0", got)
	}
	s.SweepExpired(t0.Add(q.Deadline))
	if got := tracked(s); got != 0 {
		t.Errorf("tracked = %d after the sweep past the deadline, want 0", got)
	}
}

// TestSweepRecyclesCancelledAtDeadline: a request whose losers were all
// cancelled is dropped by the first sweep past its deadline, not the grace
// later; before that a straggler that raced its Cancel is still harvested.
func TestSweepRecyclesCancelledAtDeadline(t *testing.T) {
	repo := warmRepo(t, 4, 10*ms, 2*ms, ms)
	q := wire.QoS{Deadline: 100 * ms, MinProbability: 0.99}
	s := allSched(t, repo, q)
	perf := wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 2 * ms}
	t0 := time.Now()
	seq, targets, cancelled := firstReply(t, s, t0, perf)
	if len(cancelled) != len(targets)-1 || len(cancelled) < 2 {
		t.Fatalf("targets %v, CancelTargets %v: want every loser, at least two", targets, cancelled)
	}
	s.SweepExpired(t0.Add(q.Deadline - time.Nanosecond))
	if got := tracked(s); got != 1 {
		t.Fatalf("tracked = %d before the deadline, want 1", got)
	}
	if out := s.OnReply(seq, cancelled[0], t0.Add(20*ms), perf); !out.Duplicate {
		t.Fatalf("straggler that raced its Cancel: %+v, want Duplicate", out)
	}
	s.SweepExpired(t0.Add(q.Deadline))
	if got := tracked(s); got != 0 {
		t.Errorf("tracked = %d after the sweep past the deadline, want 0", got)
	}
	if out := s.OnReply(seq, cancelled[1], t0.Add(q.Deadline+ms), perf); !out.Unknown {
		t.Errorf("reply after the sweep: %+v, want Unknown", out)
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d, want 0", got)
	}
}

// TestCancelledCycleAllocs: a steady cycle of schedule, first reply,
// CancelTargets and the sweep past the deadline allocates nothing once the
// pools have grown — the cancelled request's entry and buffers go back to
// the pool instead of waiting out the grace. Every l+1-th loser is spared a
// Cancel and replies, as it would on the wire.
func TestCancelledCycleAllocs(t *testing.T) {
	repo := variedRepo(t, 4)
	q := wire.QoS{Deadline: 60 * ms, MinProbability: 0.99}
	s := allSched(t, repo, q)
	perf := wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms}
	t0 := time.Now()
	var targets, cancelled []wire.ReplicaID
	cycle := func() {
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		targets = append(targets[:0], d.Targets...)
		d.Release()
		s.OnReply(d.Seq, targets[0], t0.Add(10*ms), perf)
		cancelled = s.CancelTargets(d.Seq, cancelled[:0])
		for _, id := range targets[1:] {
			if !slices.Contains(cancelled, id) {
				s.OnReply(d.Seq, id, t0.Add(12*ms), perf)
			}
		}
		s.SweepExpired(t0.Add(q.Deadline))
	}
	for range 50 {
		cycle()
	}
	if len(targets) < 3 {
		t.Fatalf("targets = %v, want at least two losers", targets)
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("cancelled cycle allocated %.1f times per run, want 0", allocs)
	}
	if got := tracked(s); got != 0 {
		t.Errorf("tracked = %d after the cycles, want 0", got)
	}
}
