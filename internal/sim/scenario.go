package sim

import (
	"fmt"
	"time"

	"aqua/internal/core"
	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// ReplicaSpec describes one simulated replica.
type ReplicaSpec struct {
	// Service draws per-request service times (the paper's simulated load:
	// Normal with mean 100 ms).
	Service stats.DelayDist
	// CrashAt, when positive, crashes the replica at that virtual time.
	CrashAt time.Duration
	// Workers is the number of parallel servers behind the FIFO queue
	// (default 1 — the paper's model). More workers deliberately break the
	// single-server assumption behind the windowed W estimate, for the
	// model-robustness ablation.
	Workers int
	// Slow, when non-nil, replaces Service for work started inside
	// [SlowFrom, SlowUntil): the §5.4 performance-fault class — a replica
	// that turns persistently slow (GC stall, overloaded host) without
	// crashing. The window is host-level: a rejuvenated replacement at the
	// same index inherits it until SlowUntil, so rejuvenation alone cannot
	// cure a sick host (exactly the case the restart-storm cap exists for).
	Slow     stats.DelayDist
	SlowFrom time.Duration
	// SlowUntil ends the slow window; 0 with Slow set means the whole run.
	SlowUntil time.Duration
}

// ClientSpec describes one simulated client.
type ClientSpec struct {
	// QoS is the client's deadline and required probability.
	QoS wire.QoS
	// Requests is how many requests the client issues (the paper uses 50).
	Requests int
	// Think is the delay between receiving a response and issuing the next
	// request (the paper uses one second).
	Think time.Duration
	// Strategy overrides the selection strategy; nil means Algorithm 1.
	Strategy selection.Strategy
	// StartAt delays the client's first request.
	StartAt time.Duration
	// Arrival, when set, switches the client to an open-loop workload:
	// requests are issued at inter-arrival times drawn from this
	// distribution regardless of replies (e.g. stats.Exponential for a
	// Poisson process). Think is ignored. The paper's protocol is the
	// closed loop (Arrival nil, Think = 1s).
	Arrival stats.DelayDist
	// Region places the client when Scenario.WAN is set (ignored
	// otherwise). The zero value is region 0.
	Region int
}

// LinkFault injects timing faults on the simulated client↔replica links,
// mirroring the transport package's fault injector inside the virtual-time
// kernel. Each message crossing a matching link — request and response
// directions alike — draws its own loss coin and delay sample while the
// fault is active.
type LinkFault struct {
	// Replica is the index into Scenario.Replicas whose links are faulty;
	// -1 applies the fault to every replica.
	Replica int
	// From is the virtual time the fault switches on (0 = run start).
	From time.Duration
	// Until is the virtual time it switches off; 0 means the whole run.
	Until time.Duration
	// Loss is the per-message drop probability in each direction.
	Loss float64
	// ExtraDelay adds a per-message one-way latency drawn from this
	// distribution (nil = none).
	ExtraDelay stats.DelayDist
}

// active reports whether the fault applies to replica index idx at virtual
// time t.
func (f LinkFault) active(idx int, t time.Duration) bool {
	if f.Replica >= 0 && f.Replica != idx {
		return false
	}
	if t < f.From {
		return false
	}
	return f.Until <= 0 || t < f.Until
}

// Scenario is a full simulated experiment.
type Scenario struct {
	Replicas []ReplicaSpec
	Clients  []ClientSpec
	// Network shapes one-way delays; the zero value means an ideal LAN.
	Network NetworkModel
	// WAN, when non-nil, replaces the shared Network with per-link delays
	// drawn from an inter-region latency matrix, and optionally layers
	// epoched link congestion (WANJitter) onto the fault injector. Opens
	// the geo-distributed scenario family (a16).
	WAN *WANModel
	// Faults injects message loss and added delay on specific links for
	// specific virtual-time windows (the paper's §5.4 timing-fault classes:
	// overloaded links and lost messages).
	Faults []LinkFault
	// WindowSize is the repository sliding window l (0 = paper default 5).
	WindowSize int
	// GatewayHistory sets the sliding-window size for the gateway delay T
	// (the paper's suggested extension for fluctuating LANs); 0 or 1 keeps
	// the paper's most-recent-value behaviour.
	GatewayHistory int
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// CompensateOverhead enables the δ term with FixedOverhead as δ.
	CompensateOverhead bool
	FixedOverhead      time.Duration
	// QueueAware switches the predictor to the queue-length-aware W model
	// (ablation A6).
	QueueAware bool
	// StalenessBound, when positive, treats replicas whose performance data
	// is older than the bound as cold, forcing re-probing (core.Config's
	// StalenessBound). Without it a replica whose window filled during a
	// load burst keeps its pessimistic history forever and is never
	// rediscovered after it drains.
	StalenessBound time.Duration
	// Overload configures admission control and the degradation ladder for
	// every client's scheduler (core.OverloadConfig). The zero value keeps
	// the paper-exact behavior, including the select-all amplification the
	// a13 experiment measures.
	Overload core.OverloadConfig
	// MaxTime bounds the virtual run as a safety net; zero means an hour
	// of virtual time.
	MaxTime time.Duration
	// Trace, when non-nil, records every scheduling decision, reply,
	// failure, and membership change for post-run analysis.
	Trace *trace.Recorder
	// Lifecycle enables the §5.4 suspicion/quarantine state machine in
	// every client's scheduler (core.LifecycleConfig). An OnSuspect hook
	// set here is called for every client's transitions, before the
	// rejuvenator's own observer.
	Lifecycle core.LifecycleConfig
	// ProbeInterval, when positive with Lifecycle enabled, has each client
	// probe its probation replicas at this virtual-time cadence — the
	// gateway prober's warm-up role inside the kernel. Without it a
	// probation replica sees traffic only when no replica is selectable and
	// the scheduler falls back to the full set.
	ProbeInterval time.Duration
	// Rejuvenation configures the simulated Proteus manager: quarantined
	// replicas are killed and fresh incarnations boot at the same host
	// index. Requires Lifecycle.Enabled.
	Rejuvenation RejuvenationSpec
	// StateTransfer, when positive, models the ordered service mode's
	// recovery state transfer abstractly: every rejuvenated incarnation
	// reports CaughtUp=false in its performance reports until this much
	// virtual time after its boot, then CaughtUp=true (an empty replica
	// pulling a snapshot and log suffix from a peer). Pair it with
	// Lifecycle.RequireStateTransfer to hold the replacement in probation
	// until the transfer completes. Requires Rejuvenation.Enabled — first
	// incarnations boot with the service's initial state and are always
	// caught up.
	StateTransfer time.Duration
	// Cancellation enables first-response-wins cancellation: when a client's
	// earliest reply arrives, a Cancel is sent to each losing replica (one
	// network delay later, subject to link faults), purging its queued copy
	// or aborting the one in service.
	Cancellation bool
	// Controller, when non-nil, gives every client an online redundancy
	// controller (core.AdaptiveBudget) built from this config in place of
	// selection.Budgeted's static interpolation. The controller's clock is
	// the kernel's virtual clock unless the config sets its own.
	Controller *core.AdaptiveBudgetConfig
}

// DefaultDetectionDelay models heartbeat-based failure detection latency:
// how long after a crash the membership layer notifies every client.
const DefaultDetectionDelay = 100 * time.Millisecond

// ClientResult aggregates one client's run.
type ClientResult struct {
	Stats   core.Stats
	Records []RequestRecord
	// ProbationViolations counts selections that targeted a quarantined or
	// probation replica while a selectable one existed (see
	// Client.noteProbationViolations). Zero is the a14 guardrail.
	ProbationViolations int
	// Outstanding is the scheduler's pending-entry count at run end. Every
	// request resolves through a reply, the deadline, or the give-up
	// fallback before the kernel drains, so non-zero means a bookkeeping
	// leak.
	Outstanding int
	// CancelsSent counts Cancel messages this client put on the virtual
	// network (zero unless Scenario.Cancellation).
	CancelsSent int
	// Controller snapshots the client's adaptive budget controller (zero
	// value unless Scenario.Controller was set).
	Controller core.ControllerStats
}

// MeanSelected returns the average redundancy level over completed records.
func (r ClientResult) MeanSelected() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	total := 0
	for _, rec := range r.Records {
		total += rec.NumSelected
	}
	return float64(total) / float64(len(r.Records))
}

// TimelyCount returns how many requests completed within the deadline.
func (r ClientResult) TimelyCount() int {
	n := 0
	for _, rec := range r.Records {
		if rec.Timely() {
			n++
		}
	}
	return n
}

// FailureProbability returns the observed fraction of timing failures.
func (r ClientResult) FailureProbability() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	failures := 0
	for _, rec := range r.Records {
		if rec.Failure {
			failures++
		}
	}
	return float64(failures) / float64(len(r.Records))
}

// ResponseTimePercentile returns the p-th percentile of response times over
// records that got a reply; 0 when no replies arrived.
func (r ClientResult) ResponseTimePercentile(p float64) time.Duration {
	var ds []time.Duration
	for _, rec := range r.Records {
		if rec.GotReply {
			ds = append(ds, rec.ResponseTime)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	v, err := stats.DurationPercentile(ds, p)
	if err != nil {
		return 0
	}
	return v
}

// MeanResponseTime averages response times over records that got a reply.
func (r ClientResult) MeanResponseTime() time.Duration {
	var sum time.Duration
	n := 0
	for _, rec := range r.Records {
		if rec.GotReply {
			sum += rec.ResponseTime
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// Result is a completed scenario run.
type Result struct {
	Clients      []ClientResult
	ReplicaServe []int // requests completed per host index (all incarnations)
	Events       int   // kernel events executed (sanity/diagnostics)

	// Lifecycle aggregates (zero unless Scenario.Lifecycle is enabled).
	Quarantines        int // quarantine transitions across all clients
	Restarts           int // rejuvenation restarts performed
	RestartsSuppressed int // restarts refused by the storm cap
	// PeakRestartsPerWindow is the most restarts inside any one
	// proteus.DefaultRestartWindow: what the storm cap bounds.
	PeakRestartsPerWindow int
	ProbationViolations   int // sum over clients; zero is the guardrail
	// StateTransfers counts rejuvenated incarnations that completed their
	// simulated state transfer (survived StateTransfer of virtual time past
	// boot without being retired). Zero unless Scenario.StateTransfer.
	StateTransfers int

	// Cancellation aggregates (zero unless Scenario.Cancellation), over
	// every incarnation.
	CancelsSent    int // Cancel messages put on the network by all clients
	CancelsPurged  int // cancelled copies removed from replica queues
	CancelsAborted int // cancelled copies aborted mid-service
}

// TotalServed sums requests served across replicas (the redundancy cost).
func (r Result) TotalServed() int {
	total := 0
	for _, n := range r.ReplicaServe {
		total += n
	}
	return total
}

// Run executes the scenario to completion.
func Run(s Scenario) (*Result, error) {
	if len(s.Replicas) == 0 {
		return nil, fmt.Errorf("sim: at least one replica is required")
	}
	if len(s.Clients) == 0 {
		return nil, fmt.Errorf("sim: at least one client is required")
	}
	if s.WindowSize <= 0 {
		s.WindowSize = repository.DefaultWindowSize
	}
	if s.MaxTime <= 0 {
		s.MaxTime = time.Hour
	}

	for i, f := range s.Faults {
		if f.Replica < -1 || f.Replica >= len(s.Replicas) {
			return nil, fmt.Errorf("sim: fault %d targets replica %d, have %d replicas", i, f.Replica, len(s.Replicas))
		}
		if f.Loss < 0 || f.Loss > 1 {
			return nil, fmt.Errorf("sim: fault %d loss %v outside [0,1]", i, f.Loss)
		}
	}
	for i, spec := range s.Replicas {
		if spec.Slow != nil && spec.SlowUntil > 0 && spec.SlowUntil <= spec.SlowFrom {
			return nil, fmt.Errorf("sim: replica %d slow window ends (%v) before it starts (%v)", i, spec.SlowUntil, spec.SlowFrom)
		}
	}
	if s.Rejuvenation.Enabled && !s.Lifecycle.Enabled {
		return nil, fmt.Errorf("sim: rejuvenation requires Lifecycle.Enabled (nothing quarantines without it)")
	}
	if s.StateTransfer > 0 && !s.Rejuvenation.Enabled {
		return nil, fmt.Errorf("sim: StateTransfer requires Rejuvenation.Enabled (only rejuvenated incarnations recover state)")
	}

	k := NewKernel()
	root := stats.NewRand(s.Seed)

	// WAN expansion draws from its own sub-stream, taken before any other
	// Split so the epoch plan is a pure function of the seed. Scenarios
	// without a WAN take no Split here, preserving their streams.
	if s.WAN != nil {
		if err := s.WAN.validate(len(s.Replicas), s.Clients); err != nil {
			return nil, err
		}
		if jf := s.WAN.expandJitter(root.Split()); len(jf) > 0 {
			s.Faults = append(append([]LinkFault(nil), s.Faults...), jf...)
		}
	}

	// Build replicas on private random streams.
	replicas := make([]*Replica, len(s.Replicas))
	byID := make(map[wire.ReplicaID]*Replica, len(s.Replicas))
	var liveIDs []wire.ReplicaID
	for i, spec := range s.Replicas {
		if spec.Service == nil {
			return nil, fmt.Errorf("sim: replica %d has no service distribution", i)
		}
		id := wire.ReplicaID(fmt.Sprintf("replica-%02d", i))
		replicas[i] = newReplica(k, id, i, spec, root.Split())
		byID[id] = replicas[i]
		liveIDs = append(liveIDs, id)
	}

	// Build clients, each with its own repository + scheduler (the paper's
	// per-handler local information repository).
	clients := make([]*Client, len(s.Clients))
	ctrls := make([]*core.AdaptiveBudget, len(s.Clients))
	remaining := len(s.Clients)

	// Lifecycle plumbing: the rejuvenator shares the replicas slice and the
	// byID map with the dispatch path, so a restart swaps the incarnation
	// everywhere at once. quarantines counts transitions across all clients.
	var rj *rejuvenator
	quarantines := 0
	if s.Rejuvenation.Enabled {
		rj = newRejuvenator(k, s.Replicas, replicas, byID, clients,
			DefaultDetectionDelay, root.Split(), s.Trace)
		rj.stateTransfer = s.StateTransfer
	}

	for i, spec := range s.Clients {
		if spec.Requests <= 0 {
			return nil, fmt.Errorf("sim: client %d issues no requests", i)
		}
		var predOpts []model.PredictorOption
		if s.QueueAware {
			predOpts = append(predOpts, model.WithQueueAwareWait())
		}
		repo := repository.New(repository.WithWindowSize(s.WindowSize), repository.WithGatewayHistory(s.GatewayHistory))
		lc := s.Lifecycle
		if lc.Enabled {
			// Chain the observers: trace + scenario-wide counting, then the
			// caller's hook, then the rejuvenator. Delivered outside the
			// scheduler lock, on the kernel goroutine.
			user := lc.OnSuspect
			lc.OnSuspect = func(r core.SuspectReport) {
				s.Trace.Record(trace.Event{
					At: k.Now(), Kind: trace.KindLifecycle, Replica: r.Replica,
					Value: r.FaultRate,
					Extra: map[string]string{"from": r.From.String(), "to": r.To.String()},
				})
				if r.To == repository.Quarantined {
					quarantines++
				}
				if user != nil {
					user(r)
				}
				if rj != nil {
					rj.onSuspect(r)
				}
			}
		}
		var ctrl *core.AdaptiveBudget
		if s.Controller != nil {
			ccfg := *s.Controller
			if ccfg.Clock == nil {
				ccfg.Clock = k.NowTime
			}
			ctrl = core.NewAdaptiveBudget(ccfg)
		}
		sched, err := core.NewScheduler(core.Config{
			Service:            "sim-service",
			QoS:                spec.QoS,
			Strategy:           spec.Strategy,
			Predictor:          model.NewPredictor(predOpts...),
			Repository:         repo,
			CompensateOverhead: s.CompensateOverhead,
			FixedOverhead:      s.FixedOverhead,
			StalenessBound:     s.StalenessBound,
			Overload:           s.Overload,
			Lifecycle:          lc,
			Controller:         ctrl,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: client %d: %w", i, err)
		}
		sched.OnMembershipChange(liveIDs, k.NowTime())

		giveUp := 10 * spec.QoS.Deadline
		if giveUp < time.Second {
			giveUp = time.Second
		}
		c := &Client{
			ID:           wire.ClientID(fmt.Sprintf("client-%02d", i)),
			kernel:       k,
			sched:        sched,
			network:      s.Network,
			faults:       s.Faults,
			rng:          root.Split(),
			replicas:     byID,
			think:        spec.Think,
			total:        spec.Requests,
			giveUp:       giveUp,
			arrival:      spec.Arrival,
			pendRec:      make(map[wire.SeqNo]*RequestRecord),
			startAt:      spec.StartAt,
			finished:     func() { remaining-- },
			rec:          s.Trace,
			cancellation: s.Cancellation,
		}
		if s.WAN != nil {
			cr := spec.Region
			c.linkTo = make([]stats.DelayDist, len(replicas))
			c.linkFrom = make([]stats.DelayDist, len(replicas))
			for j := range replicas {
				rr := s.WAN.ReplicaRegion[j]
				c.linkTo[j] = s.WAN.Latency[cr][rr]
				c.linkFrom[j] = s.WAN.Latency[rr][cr]
			}
		}
		clients[i] = c
		ctrls[i] = ctrl
		if s.Lifecycle.Enabled {
			c.lifecycle = true
			if s.ProbeInterval > 0 {
				c.probeEvery = s.ProbeInterval
				k.At(spec.StartAt+s.ProbeInterval, c.probeLoop)
			}
		}
		if spec.Arrival != nil {
			k.At(spec.StartAt, c.issueOpenLoop)
		} else {
			k.At(spec.StartAt, c.issueNext)
		}
	}

	// Crash plan + membership notifications: DefaultDetectionDelay after a crash,
	// every client's repository drops the member (§5.4). The crash takes
	// whichever incarnation runs on the host at that time.
	for i, spec := range s.Replicas {
		if spec.CrashAt <= 0 {
			continue
		}
		k.At(spec.CrashAt, func() { replicas[i].crash() })
		k.At(spec.CrashAt+DefaultDetectionDelay, func() { notifyMembership(k, replicas, clients, s.Trace) })
	}

	events := k.Run(s.MaxTime)
	if remaining > 0 {
		return nil, fmt.Errorf("sim: %d client(s) did not finish within %v of virtual time", remaining, s.MaxTime)
	}

	res := &Result{Events: events, Quarantines: quarantines, ReplicaServe: make([]int, len(replicas))}
	incarnations := replicas
	if rj != nil {
		res.Restarts = rj.restarts
		res.RestartsSuppressed = rj.suppressed
		res.PeakRestartsPerWindow = rj.peak
		res.StateTransfers = rj.transfers
		incarnations = append(rj.retired, replicas...)
	}
	for _, r := range incarnations {
		res.ReplicaServe[r.index] += r.served
		res.CancelsPurged += r.purged
		res.CancelsAborted += r.aborted
	}
	for i, c := range clients {
		// Flush any record still pending (reply arrived after the run's
		// last event would be impossible — kernel drained — but a crashed
		// run may leave one).
		for seq := range c.pendRec {
			c.closeRecord(seq)
		}
		cr := ClientResult{
			Stats:               c.sched.Stats(),
			Records:             c.records,
			ProbationViolations: c.probationViolations,
			Outstanding:         c.sched.Outstanding(),
			CancelsSent:         c.cancelsSent,
		}
		if ctrls[i] != nil {
			cr.Controller = ctrls[i].Stats()
		}
		res.Clients = append(res.Clients, cr)
		res.ProbationViolations += c.probationViolations
		res.CancelsSent += c.cancelsSent
	}
	return res, nil
}
