package core

// Timing-fault suspicion: the detection half of the §5.4 feedback loop.
//
// The scheduler already owns every signal needed to decide that a replica —
// as opposed to a request — is timing-faulty: which replicas each pending
// request targeted, which of them replied, when, and against which deadline.
// This file folds those signals into a per-replica sliding window of
// timely/late outcomes and drives the repository's lifecycle state machine
// from the windowed fault rate:
//
//   - every reply from a selected replica records one outcome (late when
//     t4−t0 exceeded the deadline, duplicates included — a slow duplicate is
//     evidence about the replica even though the request already succeeded);
//   - a deadline expiry charges one late outcome to every selected replica
//     that had not replied by the deadline. The pending entry remembers who
//     was charged, so the straggler reply that arrives later does not charge
//     the same request twice (failures are charged once per
//     (request, replica) pair);
//   - when a replica's windowed fault rate crosses suspectRate it becomes
//     Suspected; past quarantineRate it is Quarantined (and its outcome
//     window resets so a restarted instance is judged on fresh evidence);
//     back below clearRate a Suspected replica returns to Active.
//
// Transitions surface through the SuspectReport callback (invoked outside
// the scheduler lock) and metrics, so a dependability manager can rejuvenate
// quarantined replicas and operators can watch the loop work.

import (
	"fmt"

	"aqua/internal/repository"
	"aqua/internal/wire"
)

// Lifecycle defaults.
const (
	// DefaultSuspicionWindow is the per-replica outcome window size.
	DefaultSuspicionWindow = 16
	// DefaultMinObservations gates judgment: no transition is taken until a
	// replica's window holds this many outcomes, so one early straggle
	// cannot suspect a healthy replica.
	DefaultMinObservations = 8
	// suspectRate is the windowed fault rate at which an Active replica
	// becomes Suspected.
	suspectRate = 0.5
	// quarantineRate is the windowed fault rate at which a Suspected replica
	// is Quarantined.
	quarantineRate = 0.75
	// clearRate is the windowed fault rate at or below which a Suspected
	// replica returns to Active.
	clearRate = 0.25
)

// LifecycleConfig enables and tunes the replica lifecycle: suspicion
// windows and probation re-admission (the fault-rate thresholds are the
// constants above). The zero value disables the lifecycle entirely
// (paper-exact behavior).
type LifecycleConfig struct {
	// Enabled switches the lifecycle on.
	Enabled bool
	// WindowSize is the per-replica outcome window; zero means
	// DefaultSuspicionWindow.
	WindowSize int
	// MinObservations is the minimum outcomes in a replica's window before
	// its fault rate is judged; zero means DefaultMinObservations.
	MinObservations int
	// ProbationSamples is how many fresh performance reports a probation
	// replica must accumulate before re-admission; zero means the
	// repository default (its window size l).
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

// withDefaults resolves zero fields.
func (l LifecycleConfig) withDefaults() LifecycleConfig {
	if l.WindowSize <= 0 {
		l.WindowSize = DefaultSuspicionWindow
	}
	if l.MinObservations <= 0 {
		l.MinObservations = DefaultMinObservations
	}
	if l.MinObservations > l.WindowSize {
		l.MinObservations = l.WindowSize
	}
	return l
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

// faultWindow is a fixed-size ring of per-replica outcomes (true = timing
// fault) with an incremental fault count.
type faultWindow struct {
	ring   []bool
	next   int
	filled int
	faults int
}

func newFaultWindow(size int) *faultWindow {
	return &faultWindow{ring: make([]bool, size)}
}

func (w *faultWindow) add(fault bool) {
	if w.filled == len(w.ring) {
		if w.ring[w.next] {
			w.faults--
		}
	} else {
		w.filled++
	}
	w.ring[w.next] = fault
	if fault {
		w.faults++
	}
	w.next = (w.next + 1) % len(w.ring)
}

func (w *faultWindow) n() int { return w.filled }

func (w *faultWindow) rate() float64 {
	if w.filled == 0 {
		return 0
	}
	return float64(w.faults) / float64(w.filled)
}

// recordOutcome absorbs one per-replica outcome and walks the lifecycle
// state machine when a threshold is crossed. It takes stateMu (which guards
// the suspicion windows); callers may hold a shard mutex.
func (s *Scheduler) recordOutcome(id wire.ReplicaID, fault bool, reps []SuspectReport) []SuspectReport {
	lc := s.cfg.Lifecycle
	if !lc.Enabled {
		return reps
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	w, ok := s.suspicion[id]
	if !ok {
		w = newFaultWindow(lc.WindowSize)
		s.suspicion[id] = w
	}
	w.add(fault)
	if w.n() < lc.MinObservations {
		return reps
	}
	rate := w.rate()
	h, known := s.repo.Health(id)
	if !known {
		return reps
	}
	switch h {
	case repository.Active:
		if rate >= quarantineRate && s.repo.Quarantine(id) {
			// The rate blew straight past both thresholds (e.g. a full
			// window of expiries): do not wait a lap through Suspected.
			reps = s.noteTransition(id, h, repository.Quarantined, rate, w.filled, reps)
			delete(s.suspicion, id)
		} else if rate >= suspectRate && s.repo.Suspect(id) {
			reps = s.noteTransition(id, h, repository.Suspected, rate, w.filled, reps)
		}
	case repository.Suspected:
		if rate >= quarantineRate && s.repo.Quarantine(id) {
			reps = s.noteTransition(id, h, repository.Quarantined, rate, w.filled, reps)
			// Fresh evidence for the next incarnation: the window that
			// convicted this one must not pre-convict its replacement.
			delete(s.suspicion, id)
		} else if rate <= clearRate && s.repo.ClearSuspicion(id) {
			reps = s.noteTransition(id, h, repository.Active, rate, w.filled, reps)
		}
	}
	return reps
}

// noteTransition updates counters/metrics for one transition and queues its
// report. Caller holds stateMu.
func (s *Scheduler) noteTransition(id wire.ReplicaID, from, to repository.Health, rate float64, n int, reps []SuspectReport) []SuspectReport {
	switch to {
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
	s.met.quarantinedNow.Set(int64(s.repo.QuarantinedCount()))
	return append(reps, SuspectReport{
		Service:      s.cfg.Service,
		Replica:      id,
		From:         from,
		To:           to,
		FaultRate:    rate,
		Observations: n,
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
