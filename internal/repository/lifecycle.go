package repository

// Replica lifecycle: the §5.4 feedback half of the timing fault handler.
//
// The paper's handler detects timing faults but the detection must feed back
// into pool management, or a replica that turns persistently slow (GC stall,
// overloaded host, degraded link) keeps being selected through its stale
// window forever. The repository therefore tracks a per-replica health state:
//
//	Active ──suspect──▶ Suspected ──quarantine──▶ Quarantined
//	  ▲                     │                          │
//	  │◀──────clear─────────┘                       restart
//	  │                                                ▼
//	  └──────────── MinSamples measurements ──── Probation
//
// Quarantined replicas are invisible to selection (the scheduler filters
// them out of the probability table and the select-all fallback), so one
// sick replica cannot drag P_K(t) down or eat redundancy budget. Probation
// is the re-admission airlock: a replica that (re)joins the pool serves only
// probes until its measurement window holds MinSamples fresh samples, which
// kills the cold-start select-all flood on live traffic that a Proteus
// replacement otherwise triggers (§5.4.1 applied to a warm pool).
//
// The suspicion *accounting* (windowed per-replica timing-fault rates) lives
// in internal/core, which owns the pending-request bookkeeping; the state
// machine and its invariants live here so every consumer of the repository —
// scheduler, prober, dependability manager — sees one consistent view.

import (
	"aqua/internal/window"
	"aqua/internal/wire"
)

// Health is a replica's position in the lifecycle state machine.
type Health int32

const (
	// Active replicas are full selection candidates.
	Active Health = iota
	// Suspected replicas remain selectable (their degraded windows already
	// deprioritize them) but are flagged: probe cadence backs off and one
	// more threshold crossing quarantines them.
	Suspected
	// Quarantined replicas are excluded from selection entirely and wait
	// for rejuvenation (restart).
	Quarantined
	// Probation replicas are newly joined or restarted: excluded from
	// selection, warmed up through probes until their window holds
	// MinSamples measurements, then promoted to Active.
	Probation
)

func (h Health) String() string {
	switch h {
	case Active:
		return "active"
	case Suspected:
		return "suspected"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	default:
		return "unknown"
	}
}

// Selectable reports whether a replica in this state may serve live traffic.
func (h Health) Selectable() bool { return h == Active || h == Suspected }

// DefaultProbationSamples is the number of fresh performance reports a
// probation replica must accumulate before re-admission when the lifecycle
// is enabled without an explicit threshold: the paper's default window size,
// so the replica rejoins selection with a full measurement window.
const DefaultProbationSamples = DefaultWindowSize

// LifecycleStats counts lifecycle transitions and the current census.
type LifecycleStats struct {
	Suspected   uint64 // Active → Suspected transitions
	Cleared     uint64 // Suspected → Active recoveries
	Quarantined uint64 // → Quarantined transitions
	Joined      uint64 // replicas admitted on probation (post-bootstrap joins)
	Admitted    uint64 // Probation → Active promotions
	// Census by current state.
	NumActive, NumSuspected, NumQuarantined, NumProbation int
}

// EnableLifecycle switches the repository into lifecycle mode: health is
// tracked per replica, replicas joining after the bootstrap view start in
// Probation, and a probation replica is promoted to Active after minSamples
// performance reports (<=0 means DefaultProbationSamples). Idempotent; the
// scheduler calls it when core.Config.Lifecycle is enabled.
func (r *Repository) EnableLifecycle(minSamples int) {
	if minSamples <= 0 {
		minSamples = DefaultProbationSamples
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lifecycle = true
	r.probationSamples = minSamples
	r.touchAllLocked()
}

// RequireStateTransfer toggles the ordered-mode re-admission gate: when
// enabled, a Probation replica is promoted to Active only once its
// performance reports carry CaughtUp — i.e. its state machine has completed
// state transfer (or booted fresh into an empty group). Without the gate,
// probation promotion keys on sample count alone, which is correct for
// stateless services but would re-admit a stateful replica whose timing
// recovered while its state is still behind the group.
func (r *Repository) RequireStateTransfer(enabled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requireCaughtUp = enabled
	r.touchAllLocked()
}

// StateTransferRequired reports whether the ordered-mode re-admission gate
// is on.
func (r *Repository) StateTransferRequired() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.requireCaughtUp
}

// CaughtUp returns the latest ordered-mode evidence for a replica: whether
// its reports claim a current state machine, and its applied-log length.
// Unknown replicas report (false, 0, false).
func (r *Repository) CaughtUp(id wire.ReplicaID) (caughtUp bool, tail uint64, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, found := r.replicas[id]
	if !found {
		return false, 0, false
	}
	return st.caughtUp, st.orderedTail, true
}

// LifecycleEnabled reports whether health tracking is on.
func (r *Repository) LifecycleEnabled() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lifecycle
}

// Health returns a replica's lifecycle state. Unknown replicas report
// (Active, false). With the lifecycle disabled every member is Active.
func (r *Repository) Health(id wire.ReplicaID) (Health, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.replicas[id]
	if !ok {
		return Active, false
	}
	return st.health, true
}

// Suspect moves an Active replica to Suspected. Returns true when the
// transition happened.
func (r *Repository) Suspect(id wire.ReplicaID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.replicas[id]
	if !ok || !r.lifecycle || st.health != Active {
		return false
	}
	st.health = Suspected
	r.lifeStats.Suspected++
	r.touchLocked(st)
	return true
}

// ClearSuspicion returns a Suspected replica to Active (its windowed fault
// rate recovered). Returns true when the transition happened.
func (r *Repository) ClearSuspicion(id wire.ReplicaID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.replicas[id]
	if !ok || st.health != Suspected {
		return false
	}
	st.health = Active
	r.lifeStats.Cleared++
	r.touchLocked(st)
	return true
}

// Quarantine removes a replica from the selectable pool without removing it
// from membership: pending requests to it still settle, late replies are
// still harvested, but no new work is routed to it. Returns true when the
// transition happened (any state but Quarantined).
func (r *Repository) Quarantine(id wire.ReplicaID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.replicas[id]
	if !ok || !r.lifecycle || st.health == Quarantined {
		return false
	}
	st.health = Quarantined
	st.probationGot = 0
	// Whatever the replica claimed before it was ejected no longer counts:
	// re-admission evidence (including CaughtUp) must postdate the
	// quarantine, so a late pre-crash report cannot slip it past the
	// state-transfer gate.
	st.caughtUp = false
	st.orderedTail = 0
	r.lifeStats.Quarantined++
	r.touchLocked(st)
	return true
}

// LifecycleStats snapshots transition counters and the current census.
func (r *Repository) LifecycleStats() LifecycleStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.lifeStats
	for _, st := range r.replicas {
		switch st.health {
		case Active:
			s.NumActive++
		case Suspected:
			s.NumSuspected++
		case Quarantined:
			s.NumQuarantined++
		case Probation:
			s.NumProbation++
		}
	}
	return s
}

// QuarantinedCount returns how many members are currently quarantined.
func (r *Repository) QuarantinedCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, st := range r.replicas {
		if st.health == Quarantined {
			n++
		}
	}
	return n
}

// newReplicaStateLocked builds the state for a replica entering the view.
// Before the bootstrap view every member is Active (there is no warm pool to
// protect — the paper's §5.4.1 cold-start rule applies); after it, lifecycle
// mode admits newcomers on Probation. Caller holds r.mu.
func (r *Repository) newReplicaStateLocked() *replicaState {
	st := &replicaState{gateway: window.NewHistogrammed(r.gatewayHist, resolution)}
	if r.lifecycle && r.bootstrapped {
		st.health = Probation
		r.lifeStats.Joined++
	}
	return st
}

// dropEntriesLocked deletes every measurement window for a replica. Caller
// holds r.mu.
func (r *Repository) dropEntriesLocked(id wire.ReplicaID) {
	delete(r.updatesByRep, id)
	for k := range r.entries {
		if k.replica == id {
			delete(r.entries, k)
		}
	}
}

// notePerfLocked advances probation accounting for one absorbed performance
// report and promotes the replica once it holds enough fresh samples — and,
// when the state-transfer gate is on, once its reports claim a caught-up
// state machine. Sample accrual continues while the gate blocks, so the
// promotion fires on the first caught-up report after warm-up rather than
// restarting the count. Caller holds r.mu and touches st afterwards.
func (r *Repository) notePerfLocked(st *replicaState) {
	if !r.lifecycle || st.health != Probation {
		return
	}
	st.probationGot++
	if st.probationGot >= r.probationSamples && (!r.requireCaughtUp || st.caughtUp) {
		st.health = Active
		r.lifeStats.Admitted++
	}
}
