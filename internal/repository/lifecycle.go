package repository

// Replica lifecycle: the §5.4 feedback half of the timing fault handler.
//
// The paper's handler detects timing faults but the detection must feed back
// into pool management, or a replica that turns persistently slow (GC stall,
// overloaded host, degraded link) keeps being selected through its stale
// window forever. The repository therefore keeps, on each replica's record, a
// sliding window of timing outcomes and the health state that window drives:
//
//	Active ──suspect──▶ Suspected ──quarantine──▶ Quarantined
//	  ▲                     │                          │
//	  │◀──────clear─────────┘                       restart
//	  │                                                ▼
//	  └──────────── ProbationSamples reports ──── Probation
//
// RecordOutcome adds one outcome and takes any transition under the same
// write lock: at a windowed fault rate of suspectRate an Active replica is
// Suspected, at quarantineRate an Active or Suspected one is Quarantined (and
// its window resets, so a restarted instance is judged on fresh evidence), and
// at clearRate or below a Suspected one is Active again. Nothing is judged
// before the window holds MinObservations outcomes.
//
// Quarantined replicas are invisible to selection (the scheduler filters
// them out of the probability table and the select-all fallback), so one
// sick replica cannot drag P_K(t) down or eat redundancy budget. Probation
// is the re-admission airlock: a replica that (re)joins the pool serves only
// probes until it has sent ProbationSamples fresh reports, which kills the
// cold-start select-all flood on live traffic that a Proteus replacement
// otherwise triggers (§5.4.1 applied to a warm pool).
//
// Which outcome each request charges, and to whom, is internal/core's: only
// the scheduler's pending table knows a request's targets, its deadline and
// who already replied.

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
	// selection, warmed up through probes until they have sent
	// ProbationSamples reports, then promoted to Active.
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

// Lifecycle defaults and thresholds.
const (
	// DefaultSuspicionWindow is the per-replica outcome window size.
	DefaultSuspicionWindow = 16
	// DefaultMinObservations gates judgment: no transition is taken until a
	// replica's window holds this many outcomes, so one early straggle
	// cannot suspect a healthy replica.
	DefaultMinObservations = 8
	// DefaultProbationSamples is the number of fresh performance reports a
	// probation replica must accumulate before re-admission: the paper's
	// default window size, so the replica rejoins selection with a full
	// measurement window.
	DefaultProbationSamples = DefaultWindowSize
	// suspectRate is the windowed fault rate at which an Active replica
	// becomes Suspected.
	suspectRate = 0.5
	// quarantineRate is the windowed fault rate at which an Active or
	// Suspected replica is Quarantined.
	quarantineRate = 0.75
	// clearRate is the windowed fault rate at or below which a Suspected
	// replica returns to Active.
	clearRate = 0.25
)

// Lifecycle is the repository's share of the lifecycle configuration (see
// core.LifecycleConfig); a zero field takes its default.
type Lifecycle struct {
	WindowSize       int // outcomes per suspicion window: DefaultSuspicionWindow
	MinObservations  int // outcomes before a rate is judged: DefaultMinObservations, at most WindowSize
	ProbationSamples int // reports a probation replica needs: DefaultProbationSamples
	// RequireStateTransfer arms the ordered-mode re-admission gate: a
	// probation replica is promoted only once its reports also carry
	// CaughtUp, i.e. its state machine has completed state transfer (or
	// booted fresh into an empty group). Without it, promotion keys on sample
	// count alone, which is right for stateless services but would re-admit a
	// stateful replica whose timing recovered while its state is still behind.
	RequireStateTransfer bool
}

// withDefaults resolves zero fields.
func (l Lifecycle) withDefaults() Lifecycle {
	if l.WindowSize <= 0 {
		l.WindowSize = DefaultSuspicionWindow
	}
	if l.MinObservations <= 0 {
		l.MinObservations = DefaultMinObservations
	}
	l.MinObservations = min(l.MinObservations, l.WindowSize)
	if l.ProbationSamples <= 0 {
		l.ProbationSamples = DefaultProbationSamples
	}
	return l
}

// EnableLifecycle switches the repository into lifecycle mode: health is
// tracked per replica, timing outcomes are judged (RecordOutcome), replicas
// joining after the bootstrap view start in Probation, and a probation
// replica is promoted to Active after cfg.ProbationSamples performance
// reports. The scheduler calls it when core.Config.Lifecycle is enabled.
func (r *Repository) EnableLifecycle(cfg Lifecycle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lifecycle = true
	r.life = cfg.withDefaults()
	r.touchAllLocked()
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

// Transition is one lifecycle edge RecordOutcome took, with the windowed
// timing-fault rate, over Observations outcomes, that drove it.
type Transition struct {
	From, To     Health
	FaultRate    float64
	Observations int
}

// RecordOutcome adds one timing outcome (late: a timing fault) to a replica's
// suspicion window and takes the transition its windowed fault rate calls
// for, under one write lock. It reports false when nothing moved: the
// lifecycle is off, the replica is unknown, the window holds fewer than
// MinObservations outcomes, or the rate crossed no threshold.
func (r *Repository) RecordOutcome(id wire.ReplicaID, late bool) (Transition, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.replicas[id]
	if !ok || !r.lifecycle {
		return Transition{}, false
	}
	w := &st.outcomes
	if w.ring == nil {
		w.ring = make([]bool, r.life.WindowSize)
	}
	w.add(late)
	if w.filled < r.life.MinObservations {
		return Transition{}, false
	}
	t := Transition{From: st.health, FaultRate: w.rate(), Observations: w.filled}
	switch {
	case st.health.Selectable() && t.FaultRate >= quarantineRate:
		// From Active too: a rate that blew straight past both thresholds
		// (a full window of expiries) does not wait a lap through Suspected.
		t.To = Quarantined
		r.quarantineLocked(st)
	case st.health == Active && t.FaultRate >= suspectRate:
		t.To = Suspected
		r.setHealthLocked(st, Suspected)
	case st.health == Suspected && t.FaultRate <= clearRate:
		t.To = Active
		r.setHealthLocked(st, Active)
	default:
		return Transition{}, false
	}
	return t, true
}

// ResetSuspicion empties every replica's suspicion window and returns every
// Suspected replica to Active. Quarantine and probation stand: a quarantined
// replica was convicted, not merely suspected, and re-enters via probation.
// The scheduler calls it when the QoS is renegotiated, since the outcomes
// were judged against the old deadline.
func (r *Repository) ResetSuspicion() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.replicas {
		st.outcomes.reset()
		if st.health == Suspected {
			r.setHealthLocked(st, Active)
		}
	}
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
	r.quarantineLocked(st)
	return true
}

// quarantineLocked moves st to Quarantined. Caller holds r.mu for writing.
func (r *Repository) quarantineLocked(st *replicaState) {
	// Fresh evidence for the next incarnation: the window that convicted
	// this one must not pre-convict its replacement.
	st.outcomes.reset()
	st.probationGot = 0
	// Whatever the replica claimed before it was ejected no longer counts:
	// re-admission evidence (including CaughtUp) must postdate the
	// quarantine, so a late pre-crash report cannot slip it past the
	// state-transfer gate.
	st.caughtUp = false
	st.orderedTail = 0
	r.setHealthLocked(st, Quarantined)
}

// setHealthLocked moves st to h. Caller holds r.mu for writing.
func (r *Repository) setHealthLocked(st *replicaState, h Health) {
	st.health = h
	r.touchLocked(st)
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
	}
	return st
}

// dropEntriesLocked deletes every measurement window for a replica. Caller
// holds r.mu.
func (r *Repository) dropEntriesLocked(id wire.ReplicaID) {
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
	if st.probationGot >= r.life.ProbationSamples && (!r.life.RequireStateTransfer || st.caughtUp) {
		st.health = Active
	}
}

// faultWindow is a fixed-size ring of timing outcomes (true = timing fault)
// with an incremental fault count. The zero value is unsized; RecordOutcome
// sizes it on the replica's first outcome.
type faultWindow struct {
	ring   []bool
	next   int
	filled int
	faults int
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

// reset empties the window in place; add overwrites the stale ring slots.
func (w *faultWindow) reset() { w.next, w.filled, w.faults = 0, 0, 0 }

func (w *faultWindow) rate() float64 {
	if w.filled == 0 {
		return 0
	}
	return float64(w.faults) / float64(w.filled)
}
