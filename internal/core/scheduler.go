// Package core implements the paper's primary contribution as a reusable,
// transport-independent state machine: the local scheduling agent inside the
// timing fault handler (§4, §5.4).
//
// The Scheduler owns the gateway information repository, the response-time
// predictor, and the selection strategy. For each request it:
//
//  1. records the interception time t0 and selects the replica subset K
//     (compensating the deadline by the previously measured algorithm
//     overhead δ, §5.3.3);
//  2. records the transmission time t1 when the caller dispatches;
//  3. on each reply (arrival t4) extracts the piggybacked performance data,
//     updates the repository (service time, queuing delay, queue length, and
//     the derived gateway delay td = t4 − t1 − tq − ts), delivers only the
//     first reply, and discards duplicates after harvesting their data;
//  4. detects timing failures (tr = t4 − t0 > t), maintains the failure
//     counter, and reports when the observed frequency of timely responses
//     drops below the client's requested probability so the gateway can
//     issue the QoS-violation callback (§5.4.2).
//
// Both the real gateway (internal/gateway) and the discrete-event simulator
// (internal/sim) drive this same code; only the clock and the I/O differ.
//
// # Concurrency
//
// The scheduler carries no single global mutex. Pending-request state is
// striped across pendShardCount shards keyed by sequence number, counters are
// atomics, the QoS contract is an atomic pointer, and the decision path reuses
// pooled scratch buffers so the cached path allocates nothing. Only the
// strategy invocation (strategies may be stateful) and the QoS/suspicion
// accounting take short dedicated locks. Lock ordering, where held together:
// shard.mu → stateMu → repository locks; there are no reverse paths.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// DefaultMinSamplesForViolation is the minimum number of completed requests
// before the observed timely fraction is compared against the client's
// requested probability; it prevents a single early failure from triggering
// the callback.
const DefaultMinSamplesForViolation = 10

// pendShardCount stripes the pending-request table so concurrent callers on
// different requests do not contend. Must be a power of two.
const pendShardCount = 16

// ForgetGrace is how long after its deadline a request's tracking state is
// retained so straggler duplicates can still be harvested (SweepExpired).
const ForgetGrace = 30 * time.Second

// Config configures a Scheduler.
type Config struct {
	// Service is the replicated service this scheduler fronts.
	Service wire.Service
	// QoS is the client's initial QoS specification. It can be renegotiated
	// at runtime via Renegotiate.
	QoS wire.QoS
	// Strategy picks the replica subset; nil defaults to the paper's
	// Algorithm 1.
	Strategy selection.Strategy
	// Predictor computes F_Ri(t); nil defaults to the paper's model.
	Predictor *model.Predictor
	// Repository holds performance history; nil creates one with the
	// default window size.
	Repository *repository.Repository
	// CompensateOverhead enables the §5.3.3 δ term: selection evaluates
	// F_Ri(t − δ) using the previously measured algorithm overhead.
	CompensateOverhead bool
	// FixedOverhead, when positive, is used as δ instead of the measured
	// value. Simulations use it for exact reproducibility.
	FixedOverhead time.Duration
	// StalenessBound, when positive, treats a replica whose last
	// performance update is older than the bound as cold, forcing its
	// inclusion so it gets re-probed (the paper's "active probes"
	// suggestion, §8).
	StalenessBound time.Duration
	// MinSamplesForViolation gates the QoS-violation check; zero means
	// DefaultMinSamplesForViolation.
	MinSamplesForViolation int
	// Overload configures admission control and the degradation ladder
	// (overload.go). The zero value keeps the paper-exact behavior.
	Overload OverloadConfig
	// Lifecycle configures per-replica timing-fault suspicion, quarantine,
	// and probation re-admission (lifecycle.go). The zero value keeps the
	// paper-exact behavior: detection without pool feedback.
	Lifecycle LifecycleConfig
	// Controller, when set, is the online redundancy controller
	// (controller.go): it replaces selection.Budgeted's static load→|K|
	// interpolation on every decision and is fed each request outcome plus
	// the cancel-savings signal from CancelTargets.
	Controller *AdaptiveBudget
	// Metrics receives live counters and histograms (selections, |K|,
	// predicted P_K(t), δ, failures, per-replica response times); nil means
	// the process-wide default registry.
	Metrics *metrics.Registry
}

// Decision is the outcome of scheduling one request.
//
// Targets may point into a scheduler-owned pooled buffer. The slice is valid
// until Release is called; callers that keep the IDs longer must copy them
// first. Calling Release is optional — a dropped Decision is simply garbage
// collected — but returning the buffer keeps the decision path allocation
// free.
type Decision struct {
	Seq       wire.SeqNo
	Targets   []wire.ReplicaID
	Predicted float64       // P_K(t) per Equation 1
	Overhead  time.Duration // δ measured for this invocation
	UsedAll   bool
	ColdStart bool
	// Mode is the degradation-ladder position the decision was made under.
	Mode Mode
	// Budget is the load-conditioned redundancy cap that applied (zero when
	// unbounded), and BudgetCapped reports that it — or the degraded-mode
	// best-effort cap — truncated the set the algorithm wanted.
	Budget       int
	BudgetCapped bool

	owner *Scheduler // set when Targets is a pooled buffer
}

// Release returns the Decision's Targets buffer to the scheduler's pool and
// nils Targets. Call it at most once, after the caller is done with the
// target list (the scheduler keeps its own copy for reply matching). A
// Decision must be released by at most one holder: Decision is a value type,
// so releasing two copies of the same Decision would hand the same buffer to
// two future callers. After Release, Targets is nil and the old slice
// contents must not be read — the buffer may already be carrying another
// request's targets.
func (d *Decision) Release() {
	o := d.owner
	if o == nil {
		return
	}
	d.owner = nil
	buf := d.Targets
	d.Targets = nil
	o.putIDBuf(buf)
}

// ReplyOutcome describes how one incoming reply was handled.
type ReplyOutcome struct {
	// First is true if this is the first reply for its request: the one
	// delivered to the client. Duplicates are harvested and discarded.
	First bool
	// Duplicate is true for redundant replies (perf data still absorbed).
	Duplicate bool
	// Unknown is true if the reply matched no pending request (already
	// forgotten); it is ignored entirely.
	Unknown bool
	// ResponseTime is tr = t4 − t0, set when First.
	ResponseTime time.Duration
	// TimingFailure is true when First and tr exceeded the deadline, or
	// when the failure was already charged by deadline expiry.
	TimingFailure bool
	// Violation is non-nil when this reply pushed the observed timely
	// fraction below the client's requested probability; the gateway
	// issues the client callback with it.
	Violation *ViolationReport
}

// ViolationReport is handed to the client's QoS callback.
type ViolationReport struct {
	Service          wire.Service
	QoS              wire.QoS
	Completed        uint64
	TimingFailures   uint64
	ObservedTimely   float64
	RequiredTimely   float64
	ConsecutiveFails uint64
}

func (v ViolationReport) String() string {
	return fmt.Sprintf("qos violation on %q: observed timely %.3f < required %.3f (%d failures / %d requests)",
		v.Service, v.ObservedTimely, v.RequiredTimely, v.TimingFailures, v.Completed)
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	Requests         uint64
	Completed        uint64 // requests whose first reply arrived or deadline expired
	Replies          uint64
	Duplicates       uint64
	TimingFailures   uint64
	DeadlineExpiries uint64 // failures charged before any reply arrived
	SelectedTotal    uint64 // sum of |K| across requests, for mean redundancy
	UsedAllCount     uint64
	ConsecutiveFails uint64
	Shed             uint64 // requests refused by admission control
	Degradations     uint64 // degradation-ladder transitions (any direction)
	BudgetCapped     uint64 // selections truncated by a budget or best-effort cap
	Backpressure     uint64 // transport backpressure signals absorbed
	Suspected        uint64 // lifecycle Active → Suspected transitions
	Quarantined      uint64 // lifecycle → Quarantined transitions
	Reinstated       uint64 // lifecycle Suspected → Active recoveries
}

// MeanRedundancy returns the average number of replicas selected per
// request.
func (s Stats) MeanRedundancy() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.SelectedTotal) / float64(s.Requests)
}

// FailureProbability returns the observed probability of timing failures
// over completed requests.
func (s Stats) FailureProbability() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TimingFailures) / float64(s.Completed)
}

// schedStats is the atomic backing store for Stats, updated lock-free on the
// hot path.
type schedStats struct {
	requests         atomic.Uint64
	completed        atomic.Uint64
	replies          atomic.Uint64
	duplicates       atomic.Uint64
	timingFailures   atomic.Uint64
	deadlineExpiries atomic.Uint64
	selectedTotal    atomic.Uint64
	usedAllCount     atomic.Uint64
	consecutiveFails atomic.Uint64
	shed             atomic.Uint64
	degradations     atomic.Uint64
	budgetCapped     atomic.Uint64
	backpressure     atomic.Uint64
	suspected        atomic.Uint64
	quarantined      atomic.Uint64
	reinstated       atomic.Uint64
}

func (c *schedStats) snapshot() Stats {
	return Stats{
		Requests:         c.requests.Load(),
		Completed:        c.completed.Load(),
		Replies:          c.replies.Load(),
		Duplicates:       c.duplicates.Load(),
		TimingFailures:   c.timingFailures.Load(),
		DeadlineExpiries: c.deadlineExpiries.Load(),
		SelectedTotal:    c.selectedTotal.Load(),
		UsedAllCount:     c.usedAllCount.Load(),
		ConsecutiveFails: c.consecutiveFails.Load(),
		Shed:             c.shed.Load(),
		Degradations:     c.degradations.Load(),
		BudgetCapped:     c.budgetCapped.Load(),
		Backpressure:     c.backpressure.Load(),
		Suspected:        c.suspected.Load(),
		Quarantined:      c.quarantined.Load(),
		Reinstated:       c.reinstated.Load(),
	}
}

// pending tracks one in-flight request. The parallel settled/charged slices
// are indexed like targets; linear scans beat maps at realistic |K| (a
// handful of replicas) and recycle with zero garbage.
type pending struct {
	t0             time.Time // interception time
	t1             time.Time // transmission time
	targets        []wire.ReplicaID
	settled        []bool // targets whose repository in-flight count was released
	charged        []bool // targets whose suspicion outcome for this request was recorded
	replies        int
	firstDelivered bool
	failed         bool // timing failure already charged (deadline expiry)
	discounted     bool // removed from the admission count by CancelTargets
	method         string
}

// targetIndex returns the index of id in p.targets, or -1.
func (p *pending) targetIndex(id wire.ReplicaID) int {
	for i := range p.targets {
		if p.targets[i] == id {
			return i
		}
	}
	return -1
}

// resetBools returns b resized to n with every element false, reusing the
// backing array when it is large enough.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// pendShard is one stripe of the pending-request table.
type pendShard struct {
	mu sync.Mutex
	m  map[wire.SeqNo]*pending
	// Pad to a cache line so adjacent shards don't false-share.
	_ [40]byte
}

// schedScratch is the per-decision working set: snapshot copy (only when
// staleness forces a mutation), probability table, and cold list. Recycled
// through a small channel free list — unlike sync.Pool, a channel is not
// emptied by GC cycles mid-benchmark, so the zero-alloc fence is meaningful.
type schedScratch struct {
	snaps []repository.ReplicaSnapshot
	table []model.ReplicaProbability
	cold  []repository.ReplicaSnapshot
}

// schedInstruments are the scheduler's live metrics, resolved once at
// construction so the hot path touches only atomics — no registry lookups.
type schedInstruments struct {
	selections       *metrics.Counter
	errors           *metrics.Counter
	replies          *metrics.Counter
	duplicates       *metrics.Counter
	timingFailures   *metrics.Counter
	deadlineExpiries *metrics.Counter
	violations       *metrics.Counter
	pending          *metrics.Gauge
	targets          *metrics.Histogram
	predicted        *metrics.Histogram
	overhead         *metrics.Histogram
	shed             *metrics.Counter
	degradations     *metrics.Counter
	mode             *metrics.Gauge
	budgetCapped     *metrics.Counter
	backpressure     *metrics.Counter
	budget           *metrics.Histogram
	suspected        *metrics.Counter
	quarantined      *metrics.Counter
	reinstated       *metrics.Counter
	quarantinedNow   *metrics.Gauge
}

func resolveSchedInstruments(r *metrics.Registry) schedInstruments {
	return schedInstruments{
		selections:       r.Counter(metrics.SchedSelections),
		errors:           r.Counter(metrics.SchedErrors),
		replies:          r.Counter(metrics.SchedReplies),
		duplicates:       r.Counter(metrics.SchedDuplicates),
		timingFailures:   r.Counter(metrics.SchedTimingFailures),
		deadlineExpiries: r.Counter(metrics.SchedDeadlineExpiries),
		violations:       r.Counter(metrics.SchedViolations),
		pending:          r.Gauge(metrics.SchedPending),
		targets:          r.Histogram(metrics.SchedTargets, metrics.TargetBuckets),
		predicted:        r.Histogram(metrics.SchedPredicted, metrics.ProbabilityBuckets),
		overhead:         r.Histogram(metrics.SchedOverheadSeconds, metrics.OverheadBuckets),
		shed:             r.Counter(metrics.SchedShed),
		degradations:     r.Counter(metrics.SchedDegradations),
		mode:             r.Gauge(metrics.SchedMode),
		budgetCapped:     r.Counter(metrics.SchedBudgetCapped),
		backpressure:     r.Counter(metrics.SchedBackpressure),
		budget:           r.Histogram(metrics.SchedBudget, metrics.TargetBuckets),
		suspected:        r.Counter(metrics.SchedSuspected),
		quarantined:      r.Counter(metrics.SchedQuarantined),
		reinstated:       r.Counter(metrics.SchedReinstated),
		quarantinedNow:   r.Gauge(metrics.SchedQuarantinedNow),
	}
}

// Scheduler is the timing fault handler's local scheduling agent. It is safe
// for concurrent use.
type Scheduler struct {
	cfg       Config
	repo      *repository.Repository
	predictor *model.Predictor
	strategy  selection.Strategy
	reg       *metrics.Registry
	met       schedInstruments

	// Hot-path state: all lock-free.
	nextSeq        atomic.Uint64
	nPend          atomic.Int64                // pending requests across all shards
	qos            atomic.Pointer[wire.QoS]    // current contract (Renegotiate swaps it)
	lastOverheadNs atomic.Int64                // most recent δ, nanoseconds
	modeA          atomic.Int32                // degradation-ladder position (Mode)
	bpHoldA        atomic.Int64                // completions a backpressure signal still pins the ladder for; mutated under stateMu
	stats          schedStats

	shards [pendShardCount]pendShard

	// stratMu serializes the selection step: strategies may be stateful
	// (RoundRobin, Random) and the per-method Order reuses its previous
	// permutation. Everything before it — snapshot, probability table — runs
	// concurrently.
	stratMu sync.Mutex
	orders  map[string]*selection.Order // per-method incremental candidate order

	// stateMu guards the QoS accounting window, the violation latch, the
	// suspicion windows, and degradation-ladder transitions. Acquired after a
	// shard mutex, never before.
	stateMu   sync.Mutex
	notified  bool // violation callback already fired since last renegotiation
	suspicion map[wire.ReplicaID]*faultWindow // per-replica timing-fault outcomes (lifecycle.go)
	// winCompleted/winFailures are the QoS accounting window: they track
	// Completed/TimingFailures but reset on Renegotiate, so the observed
	// timely fraction is always measured against the QoS it was served
	// under, never against history from a previous contract.
	winCompleted uint64
	winFailures  uint64

	histMu      sync.Mutex
	replicaHist map[wire.ReplicaID]*metrics.Histogram

	// Free lists. Channels, not sync.Pool: the pool is purged by GC at
	// arbitrary points, which both defeats the zero-alloc fence and makes
	// latency bimodal.
	scratchFree chan *schedScratch
	pendFree    chan *pending
	idFree      chan []wire.ReplicaID
}

// NewScheduler returns a scheduler for one (client, service) pair.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if err := cfg.QoS.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Service == "" {
		return nil, fmt.Errorf("core: service name is required")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = selection.NewDynamic()
	}
	if cfg.Predictor == nil {
		cfg.Predictor = model.NewPredictor()
	}
	if cfg.Repository == nil {
		cfg.Repository = repository.New()
	}
	if cfg.MinSamplesForViolation <= 0 {
		cfg.MinSamplesForViolation = DefaultMinSamplesForViolation
	}
	cfg.Overload = cfg.Overload.withDefaults()
	if cfg.Lifecycle.Enabled {
		cfg.Lifecycle = cfg.Lifecycle.withDefaults()
		cfg.Repository.EnableLifecycle(cfg.Lifecycle.ProbationSamples)
		cfg.Repository.RequireStateTransfer(cfg.Lifecycle.RequireStateTransfer)
	}
	reg := metrics.OrDefault(cfg.Metrics)
	s := &Scheduler{
		cfg:         cfg,
		repo:        cfg.Repository,
		predictor:   cfg.Predictor,
		strategy:    cfg.Strategy,
		reg:         reg,
		met:         resolveSchedInstruments(reg),
		orders:      make(map[string]*selection.Order),
		suspicion:   make(map[wire.ReplicaID]*faultWindow),
		replicaHist: make(map[wire.ReplicaID]*metrics.Histogram),
		scratchFree: make(chan *schedScratch, 8),
		pendFree:    make(chan *pending, 256),
		idFree:      make(chan []wire.ReplicaID, 256),
	}
	q := cfg.QoS
	s.qos.Store(&q)
	for i := range s.shards {
		s.shards[i].m = make(map[wire.SeqNo]*pending)
	}
	return s, nil
}

// shard returns the pending-table stripe for a sequence number.
func (s *Scheduler) shard(seq wire.SeqNo) *pendShard {
	return &s.shards[uint64(seq)&(pendShardCount-1)]
}

func (s *Scheduler) getScratch() *schedScratch {
	select {
	case sc := <-s.scratchFree:
		return sc
	default:
		return &schedScratch{}
	}
}

func (s *Scheduler) putScratch(sc *schedScratch) {
	select {
	case s.scratchFree <- sc:
	default:
	}
}

func (s *Scheduler) getPending() *pending {
	select {
	case p := <-s.pendFree:
		return p
	default:
		return &pending{}
	}
}

// putPending recycles a pending entry. The caller must have removed it from
// its shard map and must not touch it afterwards.
func (s *Scheduler) putPending(p *pending) {
	p.t0, p.t1 = time.Time{}, time.Time{}
	p.targets = p.targets[:0]
	p.settled = p.settled[:0]
	p.charged = p.charged[:0]
	p.replies = 0
	p.firstDelivered = false
	p.failed = false
	p.discounted = false
	p.method = ""
	select {
	case s.pendFree <- p:
	default:
	}
}

func (s *Scheduler) getIDBuf() []wire.ReplicaID {
	select {
	case b := <-s.idFree:
		return b[:0]
	default:
		return make([]wire.ReplicaID, 0, 8)
	}
}

func (s *Scheduler) putIDBuf(b []wire.ReplicaID) {
	if cap(b) == 0 {
		return
	}
	select {
	case s.idFree <- b:
	default:
	}
}

// Repository exposes the scheduler's information repository (membership
// updates and tests).
func (s *Scheduler) Repository() *repository.Repository { return s.repo }

// QoS returns the current QoS specification.
func (s *Scheduler) QoS() wire.QoS { return *s.qos.Load() }

// Renegotiate replaces the QoS specification at runtime (§4: the client
// "may ... negotiate it at runtime as often as it wants") and re-arms the
// violation callback. The QoS accounting window resets: completions and
// timing failures recorded under the old contract must not pollute the
// observed-timely fraction compared against the new Pc, which could
// otherwise fire (or suppress) the violation callback spuriously right
// after renegotiation. Cumulative Stats counters are unaffected.
func (s *Scheduler) Renegotiate(q wire.QoS) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.qos.Store(&q)
	s.notified = false
	s.stats.consecutiveFails.Store(0)
	s.winCompleted = 0
	s.winFailures = 0
	if s.cfg.Lifecycle.Enabled {
		// Suspicion was accumulated against the old deadline: an outcome
		// that was "late" under a 10ms contract may be timely under 50ms.
		// Reset the windows like the QoS window, and lift suspicion earned
		// under the old contract. Quarantine stands — a quarantined replica
		// was convicted, not merely suspected, and re-enters via probation.
		s.suspicion = make(map[wire.ReplicaID]*faultWindow)
		for _, snap := range s.repo.Snapshot("") {
			if snap.Health == repository.Suspected {
				s.repo.ClearSuspicion(snap.ID)
			}
		}
	}
	return nil
}

// Schedule runs the selection algorithm for a new request intercepted at t0
// and returns the decision. The caller multicasts the request to
// Decision.Targets and then calls Dispatched with the transmission time t1.
//
// The decision path allocates only the repository's re-export of the replicas
// that replied since the last decision: the snapshot is shared, each F_Ri
// table is rebuilt in place, the probability table and selected set land in
// pooled scratch buffers, and the candidate order is repaired incrementally
// instead of re-sorted. Concurrent callers only serialize on the strategy
// invocation (which may be stateful) and their own pending-table shard.
func (s *Scheduler) Schedule(t0 time.Time, method string) (Decision, error) {
	start := time.Now() // δ is computational overhead: always wall clock
	var reps []DegradationReport

	qos := *s.qos.Load()
	// Admission control: shed before paying for the probability table. The
	// ceiling compares against tracked in-flight requests, so a backlog of
	// unanswered multicasts blocks new work instead of amplifying it.
	if max := s.cfg.Overload.MaxInFlight; max > 0 && int(s.nPend.Load()) >= max {
		n := int(s.nPend.Load())
		s.stats.shed.Add(1)
		s.met.shed.Inc()
		reps = s.evalMode("shed", reps)
		mode := s.Mode()
		s.deliverDegradations(reps)
		return Decision{Mode: mode}, fmt.Errorf("core: %d requests in flight (ceiling %d) for service %q: %w",
			n, max, s.cfg.Service, ErrOverloaded)
	}
	deadline := qos.Deadline
	if s.cfg.CompensateOverhead {
		delta := time.Duration(s.lastOverheadNs.Load())
		if s.cfg.FixedOverhead > 0 {
			delta = s.cfg.FixedOverhead
		}
		// δ is a small correction for the algorithm's own latency. A
		// pathological δ (GC pause, cold caches, or δ ≥ t outright) must not
		// collapse the prediction horizon to 0: F_Ri(0) is 0 for every
		// replica, which degenerates every selection into "all of M" churn.
		// Cap the compensation at half the deadline so selection stays
		// discriminating.
		if delta > deadline/2 {
			delta = deadline / 2
		}
		deadline -= delta
	}

	if exp := s.cfg.Lifecycle.QuarantineExpiry; exp > 0 {
		// Second-chance path for deployments without a dependability manager:
		// quarantine older than the expiry converts to probation. Wall clock,
		// like the quarantine stamp itself.
		s.repo.Parole(time.Now().Add(-exp))
	}

	sc := s.getScratch()
	snaps := s.repo.SnapshotShared(method) // shared: read-only
	if s.cfg.Lifecycle.Enabled {
		// Quarantined and probation replicas are not candidates: not for the
		// probability table, not for the select-all fallback, and not for the
		// staleness re-probe below (live traffic is not how they come back).
		snaps = selectableSnapshots(snaps)
	}
	if staleness := s.cfg.StalenessBound; staleness > 0 {
		stale := false
		for i := range snaps {
			if snaps[i].HasHistory && t0.Sub(snaps[i].LastUpdate) > staleness {
				stale = true
				break
			}
		}
		if stale {
			// The shared snapshot is immutable; copy before flipping bits.
			sc.snaps = append(sc.snaps[:0], snaps...)
			snaps = sc.snaps
			for i := range snaps {
				if snaps[i].HasHistory && t0.Sub(snaps[i].LastUpdate) > staleness {
					// Force a probe of the stale replica by treating it as cold.
					snaps[i].HasHistory = false
				}
			}
		}
	}

	var table []model.ReplicaProbability
	var cold []repository.ReplicaSnapshot
	var err error
	if len(snaps) == 0 {
		err = fmt.Errorf("core: no replicas available for service %q", s.cfg.Service)
	} else {
		table, cold, err = s.predictor.ProbabilityTableInto(snaps, deadline, sc.table[:0], sc.cold[:0])
		sc.table, sc.cold = table, cold // keep grown buffers for reuse
	}
	if err != nil {
		// Record δ on every outcome, including failures: a transient
		// predictor error must not leave a stale δ compensating the next
		// request's deadline.
		s.lastOverheadNs.Store(int64(time.Since(start)))
		s.met.errors.Inc()
		s.putScratch(sc)
		if len(snaps) != 0 {
			err = fmt.Errorf("core: predicting response times: %w", err)
		}
		return Decision{}, err
	}

	// The strategy invocation is the only serialized step: strategies may be
	// stateful, and the per-method Order repairs its previous permutation.
	s.stratMu.Lock()
	in := selection.Input{Table: table, Cold: cold, QoS: qos, SelectedBuf: s.getIDBuf()}
	if s.cfg.Controller != nil {
		in.Controller = s.cfg.Controller
	}
	ord := s.orders[method]
	if ord == nil {
		ord = selection.NewOrder()
		s.orders[method] = ord
	}
	in.Sorted = ord.Sort(table)
	// The shared snapshot's InFlight fields lag the live counters (they
	// refresh per performance report, not per dispatch); hand
	// load-conditioned strategies the current total instead.
	in.LiveInFlight = s.repo.InFlightSum(snaps)
	in.HasLiveInFlight = true
	res := s.strategy.Select(in)
	s.stratMu.Unlock()

	ovh := time.Since(start)
	s.lastOverheadNs.Store(int64(ovh))
	if len(res.Selected) == 0 {
		s.met.errors.Inc()
		s.putIDBuf(res.Selected)
		s.putScratch(sc)
		return Decision{}, fmt.Errorf("core: strategy %q selected no replicas", s.strategy.Name())
	}

	// While degraded, the line-15 "no subset reaches Pc(t) → all of M"
	// fallback is replaced with a best-effort set: Pc is unreachable either
	// way, and fanning out to everyone is exactly the |M|× amplification
	// that deepens the overload. The selected list is ordered by decreasing
	// F_Ri(t), so truncating keeps the m0 reserve's shape (Eq. 3) with the
	// best remaining replica.
	capped := res.Capped
	if k := s.cfg.Overload.BestEffortK; Mode(s.modeA.Load()) != ModeNormal && res.UsedAll && k > 0 && len(res.Selected) > k {
		res.Selected = res.Selected[:k]
		res.Predicted = predictedFor(table, res.Selected)
		capped = true
	}
	if capped {
		s.stats.budgetCapped.Add(1)
		s.met.budgetCapped.Inc()
	}
	if res.Budget > 0 {
		s.met.budget.Observe(float64(res.Budget))
	}

	seq := wire.SeqNo(s.nextSeq.Add(1) - 1)
	p := s.getPending()
	p.t0 = t0
	p.method = method
	p.targets = append(p.targets[:0], res.Selected...)
	p.settled = resetBools(p.settled, len(p.targets))
	p.charged = resetBools(p.charged, len(p.targets))
	s.repo.NoteDispatchedAll(p.targets)
	sh := s.shard(seq)
	sh.mu.Lock()
	sh.m[seq] = p
	sh.mu.Unlock()
	s.nPend.Add(1)

	s.stats.requests.Add(1)
	s.stats.selectedTotal.Add(uint64(len(res.Selected)))
	if s.cfg.Controller != nil {
		s.cfg.Controller.NoteSelected(len(res.Selected))
	}
	if res.UsedAll {
		s.stats.usedAllCount.Add(1)
	}
	s.met.selections.Inc()
	s.met.pending.Add(1)
	s.met.targets.Observe(float64(len(res.Selected)))
	s.met.predicted.Observe(res.Predicted)
	s.met.overhead.ObserveDuration(ovh)
	reps = s.evalMode("schedule", reps)
	s.putScratch(sc)
	s.deliverDegradations(reps)
	return Decision{
		Seq:          seq,
		Targets:      res.Selected,
		Predicted:    res.Predicted,
		Overhead:     ovh,
		UsedAll:      res.UsedAll,
		ColdStart:    res.ColdStart,
		Mode:         Mode(s.modeA.Load()),
		Budget:       res.Budget,
		BudgetCapped: capped,
		owner:        s,
	}, nil
}

// predictedFor recomputes Equation 1 over a truncated selection. Cold
// replicas (absent from the table) contribute nothing, exactly as in the
// strategy's own accounting.
func predictedFor(table []model.ReplicaProbability, selected []wire.ReplicaID) float64 {
	miss := 1.0
	for _, id := range selected {
		for i := range table {
			if table[i].Snapshot.ID == id {
				miss *= 1 - table[i].Probability
				break
			}
		}
	}
	return 1 - miss
}

// Dispatched records the transmission time t1 for a scheduled request.
func (s *Scheduler) Dispatched(seq wire.SeqNo, t1 time.Time) error {
	sh := s.shard(seq)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p, ok := sh.m[seq]
	if !ok {
		return fmt.Errorf("core: dispatched unknown request %d", seq)
	}
	p.t1 = t1
	return nil
}

// OnReply processes a reply from a replica arriving at time t4. It updates
// the information repository from the piggybacked performance report,
// computes the new gateway delay, and — for the first reply — evaluates the
// timing-failure predicate.
func (s *Scheduler) OnReply(seq wire.SeqNo, replica wire.ReplicaID, t4 time.Time, perf wire.PerfReport) ReplyOutcome {
	var reps []DegradationReport
	var sreps []SuspectReport
	qos := *s.qos.Load()

	sh := s.shard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if !ok {
		sh.mu.Unlock()
		return ReplyOutcome{Unknown: true}
	}
	ti := p.targetIndex(replica)
	if ti < 0 {
		// A reply from a replica we never asked: ignore, but don't poison
		// the repository with a mismatched t1.
		sh.mu.Unlock()
		return ReplyOutcome{Unknown: true}
	}
	if s.cfg.Lifecycle.Enabled && !p.charged[ti] {
		// One suspicion outcome per (request, replica): this reply's, unless
		// a deadline expiry already charged the replica for this request.
		p.charged[ti] = true
		sreps = s.recordOutcome(replica, t4.Sub(p.t0) > qos.Deadline, sreps)
	}
	if !p.settled[ti] {
		// First word from this copy: its contribution to the replica's
		// in-flight load is over.
		p.settled[ti] = true
		s.repo.NoteSettled(replica)
	}
	s.stats.replies.Add(1)
	p.replies++
	s.met.replies.Inc()
	s.replicaResponse(replica).ObserveDuration(t4.Sub(p.t0))

	// Harvest performance data from every reply, duplicates included
	// (§5.4.1): record (ts, tq, queue length) and the derived round-trip
	// gateway delay td = t4 − t1 − tq − ts. Both endpoints of every
	// interval are measured on one machine, so no clock synchronization is
	// needed. One repository mutation, so no decision sees this reply's S and
	// W beside the T from before it.
	if p.t1.IsZero() {
		s.repo.RecordPerf(replica, p.method, perf, t4)
	} else {
		s.repo.RecordReply(replica, p.method, perf, t4.Sub(p.t1)-perf.QueueDelay-perf.ServiceTime, t4)
	}

	out := ReplyOutcome{}
	if p.firstDelivered {
		out.Duplicate = true
		s.stats.duplicates.Add(1)
		s.met.duplicates.Inc()
		if p.replies >= len(p.targets) {
			reps = s.dropLocked(sh, seq, p, reps)
		}
		sh.mu.Unlock()
		s.deliverDegradations(reps)
		s.deliverSuspects(sreps)
		return out
	}
	p.firstDelivered = true
	out.First = true
	out.ResponseTime = t4.Sub(p.t0)

	alreadyCharged := p.failed
	failed := out.ResponseTime > qos.Deadline
	out.TimingFailure = failed || alreadyCharged
	if !alreadyCharged {
		// A deadline expiry already finalized the accounting for this
		// request; a late first reply must not complete it twice.
		s.complete(failed, &out)
	}
	if p.replies >= len(p.targets) {
		reps = s.dropLocked(sh, seq, p, reps)
	}
	sh.mu.Unlock()
	s.deliverDegradations(reps)
	s.deliverSuspects(sreps)
	return out
}

// replicaResponse returns the per-replica response-time histogram, creating
// it on the replica's first reply; after that the registry is not consulted
// again for that replica.
func (s *Scheduler) replicaResponse(id wire.ReplicaID) *metrics.Histogram {
	s.histMu.Lock()
	h, ok := s.replicaHist[id]
	if !ok {
		h = s.reg.Histogram(metrics.Label(metrics.ReplicaResponseSeconds, "replica", string(id)), metrics.LatencyBuckets)
		s.replicaHist[id] = h
	}
	s.histMu.Unlock()
	return h
}

// dropLocked removes one tracked request from its shard, releases any
// still-unsettled in-flight contributions (targets that never replied),
// keeps the pending gauge in step, re-evaluates the degradation ladder, and
// recycles the entry. Caller holds sh.mu and must not touch p afterwards.
func (s *Scheduler) dropLocked(sh *pendShard, seq wire.SeqNo, p *pending, reps []DegradationReport) []DegradationReport {
	for i := range p.targets {
		if !p.settled[i] {
			s.repo.NoteSettled(p.targets[i])
		}
	}
	delete(sh.m, seq)
	if !p.discounted {
		// CancelTargets already removed a cancelled request from the
		// admission count; discounting it twice would let the in-flight
		// ceiling drift.
		s.nPend.Add(-1)
		s.met.pending.Add(-1)
		reps = s.evalMode("complete", reps)
	}
	s.putPending(p)
	return reps
}

// CancelTargets settles every selected replica that has not yet replied for
// seq and returns their IDs appended to buf — the fan-out list for a
// first-response-wins wire.Cancel. It is a no-op (returning buf unchanged)
// unless the first reply has already been delivered.
//
// For each cancelled target the repository in-flight contribution is
// released now (the copy will never reply) and the suspicion outcome is
// marked recorded, so obedient silence at the deadline is not charged as a
// timing fault. The pending entry itself stays until Forget so straggler
// replies already in flight are still harvested as duplicates, but it is
// discounted from the admission count — a cancelled request holds no
// capacity.
func (s *Scheduler) CancelTargets(seq wire.SeqNo, buf []wire.ReplicaID) []wire.ReplicaID {
	var reps []DegradationReport
	sh := s.shard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if !ok || !p.firstDelivered {
		sh.mu.Unlock()
		return buf
	}
	start := len(buf)
	for i := range p.targets {
		if p.settled[i] {
			continue
		}
		buf = append(buf, p.targets[i])
		p.settled[i] = true
		s.repo.NoteSettled(p.targets[i])
		p.charged[i] = true
	}
	if !p.discounted {
		p.discounted = true
		s.nPend.Add(-1)
		s.met.pending.Add(-1)
		reps = s.evalMode("complete", reps)
	}
	sh.mu.Unlock()
	if s.cfg.Controller != nil && len(buf) > start {
		s.cfg.Controller.NoteCancelled(len(buf) - start)
	}
	s.deliverDegradations(reps)
	return buf
}

// OnDeadlineExpired charges a timing failure for a request whose deadline
// passed with no reply at all (e.g. every selected replica crashed). A late
// first reply will still be delivered but the failure is not double-counted.
// It returns a violation report exactly as OnReply would.
func (s *Scheduler) OnDeadlineExpired(seq wire.SeqNo) *ViolationReport {
	var sreps []SuspectReport
	sh := s.shard(seq)
	sh.mu.Lock()
	p, ok := sh.m[seq]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	// Per-replica suspicion is charged before the early return below: even
	// when a first reply already arrived (timely request, straggling copies),
	// every target silent at the deadline earned a late outcome.
	sreps = s.chargeExpiredTargets(p, sreps)
	if p.firstDelivered || p.failed {
		sh.mu.Unlock()
		s.deliverSuspects(sreps)
		return nil
	}
	p.failed = true
	s.stats.deadlineExpiries.Add(1)
	s.met.deadlineExpiries.Inc()
	var out ReplyOutcome
	s.complete(true, &out)
	sh.mu.Unlock()
	s.deliverSuspects(sreps)
	return out.Violation
}

// complete finalizes the failure accounting for one request and evaluates
// the QoS-violation predicate (§5.4.2) over the current QoS accounting
// window (winCompleted/winFailures, reset by Renegotiate). It takes stateMu;
// callers may hold a shard mutex.
func (s *Scheduler) complete(failed bool, out *ReplyOutcome) {
	if c := s.cfg.Controller; c != nil {
		// Feed the budget climb first, outside stateMu; the controller's
		// lock nests under nothing of the scheduler's.
		c.OnOutcome(!failed)
	}
	qos := *s.qos.Load()
	s.stateMu.Lock()
	s.stats.completed.Add(1)
	s.winCompleted++
	if h := s.bpHoldA.Load(); h > 0 {
		// A clean completion is evidence the transport is draining again.
		s.bpHoldA.Store(h - 1)
	}
	if failed {
		s.stats.timingFailures.Add(1)
		s.winFailures++
		s.stats.consecutiveFails.Add(1)
		s.met.timingFailures.Inc()
	} else {
		s.stats.consecutiveFails.Store(0)
	}
	if s.notified || s.winCompleted < uint64(s.cfg.MinSamplesForViolation) {
		s.stateMu.Unlock()
		return
	}
	observed := 1 - float64(s.winFailures)/float64(s.winCompleted)
	if observed < qos.MinProbability {
		out.Violation = &ViolationReport{
			Service:          s.cfg.Service,
			QoS:              qos,
			Completed:        s.winCompleted,
			TimingFailures:   s.winFailures,
			ObservedTimely:   observed,
			RequiredTimely:   qos.MinProbability,
			ConsecutiveFails: s.stats.consecutiveFails.Load(),
		}
		s.notified = true
		s.met.violations.Inc()
	}
	s.stateMu.Unlock()
}

// Forget drops the pending state for a request (e.g. after a grace period
// for straggler duplicates). Safe to call for unknown sequence numbers.
func (s *Scheduler) Forget(seq wire.SeqNo) {
	var reps []DegradationReport
	sh := s.shard(seq)
	sh.mu.Lock()
	if p, ok := sh.m[seq]; ok {
		reps = s.dropLocked(sh, seq, p, reps)
	}
	sh.mu.Unlock()
	s.deliverDegradations(reps)
}

// SweepExpired drops the pending state of every request intercepted more
// than the QoS deadline plus ForgetGrace before now; one with a crashed (or
// cancelled) target is never dropped otherwise. The table holds only requests
// still missing a reply, so one periodic tick replaces a timer per request.
func (s *Scheduler) SweepExpired(now time.Time) {
	var reps []DegradationReport
	cutoff := now.Add(-s.qos.Load().Deadline - ForgetGrace)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for seq, p := range sh.m {
			if !p.t0.After(cutoff) {
				reps = s.dropLocked(sh, seq, p, reps)
			}
		}
		sh.mu.Unlock()
	}
	s.deliverDegradations(reps)
}

// Outstanding returns the number of in-flight requests being tracked.
func (s *Scheduler) Outstanding() int { return int(s.nPend.Load()) }

// OnMembershipChange reconciles the repository against a new group view.
// Crashed replicas disappear from future selections (§5.4). It also sweeps
// pending requests whose entire target set left the view: no reply can ever
// arrive for them, so without the sweep their tracking state would leak
// forever in deployments that never fire OnDeadlineExpired or Forget. Swept
// requests past their deadline are charged as deadline expiries; the first
// resulting QoS violation (if any) is returned so the caller can surface it.
func (s *Scheduler) OnMembershipChange(members []wire.ReplicaID) *ViolationReport {
	return s.OnMembershipChangeAt(members, time.Now())
}

// OnMembershipChangeAt is OnMembershipChange with an explicit sweep time, so
// drivers with virtual clocks (the simulator) charge deadline expiries
// against their own notion of now.
func (s *Scheduler) OnMembershipChangeAt(members []wire.ReplicaID, now time.Time) *ViolationReport {
	s.repo.SetMembership(members)
	// Membership churn removes replicas; dropping the predictor's slots
	// keeps it from holding tables that can never be used again.
	s.predictor.FlushCache()

	alive := make(map[wire.ReplicaID]bool, len(members))
	for _, id := range members {
		alive[id] = true
	}
	qos := *s.qos.Load()
	var degs []DegradationReport
	// Suspicion windows of departed replicas go with them; a replica that
	// later rejoins under the same ID is judged on fresh evidence.
	s.stateMu.Lock()
	for id := range s.suspicion {
		if !alive[id] {
			delete(s.suspicion, id)
		}
	}
	s.stateMu.Unlock()
	var report *ViolationReport
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for seq, p := range sh.m {
			doomed := true
			for _, id := range p.targets {
				if alive[id] {
					doomed = false
					break
				}
			}
			if !doomed {
				continue
			}
			if !p.firstDelivered && !p.failed && now.Sub(p.t0) > qos.Deadline {
				p.failed = true
				s.stats.deadlineExpiries.Add(1)
				s.met.deadlineExpiries.Inc()
				var out ReplyOutcome
				s.complete(true, &out)
				if report == nil {
					report = out.Violation
				}
			}
			degs = s.dropLocked(sh, seq, p, degs)
		}
		sh.mu.Unlock()
	}
	s.deliverDegradations(degs)
	return report
}

// OnPerfUpdate absorbs a pushed performance update from a replica (the
// publish/subscribe path, as opposed to piggybacked reply data).
func (s *Scheduler) OnPerfUpdate(u wire.PerfUpdate, now time.Time) {
	s.repo.RecordPerf(u.Replica, u.Method, u.Perf, now)
}

// LastOverhead returns the most recently measured selection overhead δ.
func (s *Scheduler) LastOverhead() time.Duration {
	return time.Duration(s.lastOverheadNs.Load())
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats { return s.stats.snapshot() }
