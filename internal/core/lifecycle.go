package core

// Timing-fault charging: the detection half of the §5.4 feedback loop.
//
// The scheduler owns the signals that say which replica a timing outcome
// belongs to: which replicas each pending request targeted, which of them
// replied, when, and against which deadline. This file turns them into one
// outcome per (request, target) and hands each to the repository, whose
// replica record holds the outcome window and the health state machine
// (repository.RecordOutcome):
//
//   - every reply from a selected replica records one outcome (late when
//     t4−t0 exceeded the deadline, duplicates included — a slow duplicate is
//     evidence about the replica even though the request already succeeded);
//   - a deadline expiry charges one late outcome to every selected replica
//     that had not replied by the deadline. The pending entry remembers who
//     was charged, so the straggler reply that arrives later does not charge
//     the same request twice (failures are charged once per
//     (request, replica) pair).
//
// Transitions surface through the SuspectReport callback (invoked outside
// the shard lock), the Stats counters and metrics, so a dependability manager
// can rejuvenate quarantined replicas and operators can watch the loop work.

import (
	"fmt"

	"aqua/internal/repository"
	"aqua/internal/wire"
)

// LifecycleConfig enables and tunes the replica lifecycle: suspicion
// windows and probation re-admission (the fault-rate thresholds are
// constants of the repository). The zero value disables the lifecycle
// entirely (paper-exact behavior).
type LifecycleConfig struct {
	// Enabled switches the lifecycle on.
	Enabled bool
	// WindowSize is the per-replica outcome window; zero means
	// repository.DefaultSuspicionWindow.
	WindowSize int
	// MinObservations is the minimum outcomes in a replica's window before
	// its fault rate is judged; zero means repository.DefaultMinObservations.
	MinObservations int
	// ProbationSamples is how many fresh performance reports a probation
	// replica must accumulate before re-admission; zero means
	// repository.DefaultProbationSamples (its window size l).
	ProbationSamples int
	// RequireStateTransfer arms the ordered-mode re-admission gate: a
	// Probation replica is promoted only once its performance reports claim
	// a caught-up state machine (completed state transfer), on top of the
	// ProbationSamples warm-up. Leave false for stateless services.
	RequireStateTransfer bool
	// OnSuspect is invoked (outside the scheduler's lock) for every
	// lifecycle transition the scheduler drives. Must not block.
	OnSuspect func(SuspectReport)
}

// SuspectReport announces one lifecycle transition taken by the scheduler's
// suspicion accounting.
type SuspectReport struct {
	Service wire.Service
	Replica wire.ReplicaID
	// From and To are the lifecycle states around the transition.
	From, To repository.Health
	// FaultRate is the windowed per-replica timing-fault rate that drove
	// the transition, over Observations outcomes.
	FaultRate    float64
	Observations int
}

func (r SuspectReport) String() string {
	return fmt.Sprintf("lifecycle on %q: replica %s %s -> %s (fault rate %.2f over %d outcomes)",
		r.Service, r.Replica, r.From, r.To, r.FaultRate, r.Observations)
}

// recordOutcome hands one outcome to the repository and, when it took a
// transition, counts it and queues its report. Callers may hold a shard mutex.
func (s *Scheduler) recordOutcome(id wire.ReplicaID, late bool, reps []SuspectReport) []SuspectReport {
	t, ok := s.repo.RecordOutcome(id, late)
	if !ok {
		return reps
	}
	switch t.To {
	case repository.Suspected:
		s.stats.suspected.Add(1)
		s.met.suspected.Inc()
	case repository.Quarantined:
		s.stats.quarantined.Add(1)
		s.met.quarantined.Inc()
	case repository.Active:
		s.stats.reinstated.Add(1)
		s.met.reinstated.Inc()
	}
	// Serialized so the gauge's last write reads a census taken after every
	// transition before it.
	s.stateMu.Lock()
	s.met.quarantinedNow.Set(int64(s.repo.QuarantinedCount()))
	s.stateMu.Unlock()
	return append(reps, SuspectReport{
		Service:      s.cfg.Service,
		Replica:      id,
		From:         t.From,
		To:           t.To,
		FaultRate:    t.FaultRate,
		Observations: t.Observations,
	})
}

// chargeExpiredTargets records a late outcome for every target of p that has
// not replied and has not already been charged for this request. Caller
// holds p's shard mutex.
func (s *Scheduler) chargeExpiredTargets(p *pending, reps []SuspectReport) []SuspectReport {
	if !s.cfg.Lifecycle.Enabled {
		return reps
	}
	for i := range p.targets {
		if p.charged[i] {
			continue
		}
		p.charged[i] = true
		reps = s.recordOutcome(p.targets[i], true, reps)
	}
	return reps
}

// deliverSuspects invokes the OnSuspect callback outside the lock.
func (s *Scheduler) deliverSuspects(reps []SuspectReport) {
	cb := s.cfg.Lifecycle.OnSuspect
	if cb == nil {
		return
	}
	for _, r := range reps {
		cb(r)
	}
}

// selectableSnapshots filters quarantined and probation replicas out of the
// candidate set (§5.4: detected faults feed back into selection; §5.4.1:
// newcomers warm up on probes, not on the live-traffic select-all rule). If
// filtering would leave nothing — every member sick at once — the full set
// is used: a degraded answer beats none, and the paper's cold-start rule is
// the precedent for preferring availability. It compacts snaps in place, so
// the caller must own them (repository.SnapshotInto).
func selectableSnapshots(snaps []repository.ReplicaSnapshot) []repository.ReplicaSnapshot {
	out := snaps[:0]
	for i := range snaps {
		if snaps[i].Health.Selectable() {
			out = append(out, snaps[i])
		}
	}
	if len(out) == 0 {
		return snaps // nothing was moved
	}
	return out
}
