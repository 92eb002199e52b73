// Package repository implements the gateway information repository (§5.2):
// the per-handler store of recent performance measurements for every replica
// of one service. Each client gateway handler owns a private repository, so
// lookups are local (no remote calls, no cross-client concurrency control)
// and the search space is limited to one service — the design trade-offs the
// paper argues for.
//
// For each replica the repository stores the current number of outstanding
// requests in the replica's queue, the most recently measured two-way
// gateway-to-gateway delay, and sliding windows (size l) of the service
// times and queuing delays of the most recent requests. Every window keeps
// an incremental histogram of its samples, and snapshots carry only those.
package repository

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/dist"
	"aqua/internal/window"
	"aqua/internal/wire"
)

// DefaultWindowSize is the paper's default sliding-window size l; its
// experiments use 5 and study 10 and 20.
const DefaultWindowSize = 5

// resolution is the bin width of every window histogram: the response-time
// model's, so snapshots feed it without re-quantizing.
const resolution = dist.DefaultResolution

// methodKey identifies a performance history. The paper assumes a single
// method per service; keying by method implements its multi-interface
// extension (§8). The empty method shares one history per replica.
type methodKey struct {
	replica wire.ReplicaID
	method  string
}

// entry is the per-(replica, method) record.
type entry struct {
	service *window.Window // service time vector S_i
	queue   *window.Window // queuing delay vector W_i
	// Borrowed tier (digest.go): samples absorbed from peer gateways' gossip
	// digests, kept apart from local evidence so they can be displaced sample
	// by sample and are never re-exported. nil when nothing is borrowed.
	borrowedService *window.Window
	borrowedQueue   *window.Window
	borrowedAt      time.Time // absolute freshness of the absorbed digest
}

// replicaState is per-replica state independent of the invoked method.
type replicaState struct {
	// gateway is the T_i history: the two-way gateway-to-gateway delay is a
	// property of the link, not of the invoked method, so it lives here and
	// is shared by every method's snapshot. Probe-measured delays (recorded
	// without a method) therefore warm real methods' predictions. Window
	// size 1 (the default) reproduces the paper's point mass at the most
	// recent value.
	gateway     *window.Window
	queueLength int // current outstanding requests (replica-reported)
	// inFlight counts requests this gateway has dispatched and not yet
	// settled. It is atomic so the dispatch/settle hot path only needs the
	// repository's read lock (map lookup), never the write lock.
	inFlight   atomic.Int64
	lastUpdate time.Time // freshness marker for the staleness probe
	hasUpdate  bool
	// Lifecycle state (lifecycle.go). The zero value, Active, keeps the
	// pre-lifecycle behavior: every member is a selection candidate.
	health       Health
	probationGot int // fresh perf reports accumulated on probation
	// Ordered-mode evidence from the replica's performance reports: whether
	// its state machine is current (completed state transfer or fresh boot)
	// and its applied-log length. With the state-transfer gate enabled
	// (RequireStateTransfer), probation promotion additionally requires
	// caughtUp — fresh timing samples alone no longer re-admit a stateful
	// replica.
	caughtUp    bool
	orderedTail uint64
	// Borrowed tier (digest.go): a point-estimate T seed from a peer's digest
	// (dropped on the first local delay measurement), and the freshest time a
	// peer vouched for this replica — folded into snapshot LastUpdate so
	// staleness probes are shared across the fleet instead of duplicated.
	borrowedGateway *window.Window
	borrowedUpdate  time.Time
	// gen is the repository generation of the last mutation that changed what
	// this replica's snapshots carry (touchLocked).
	gen uint64
}

// Repository is the thread-safe information store for one service. The zero
// value is not usable; construct with New.
type Repository struct {
	mu           sync.RWMutex
	windowSize   int
	gatewayHist  int // gateway-delay window size; 1 = paper behaviour (most recent value only)
	entries      map[methodKey]*entry
	replicas     map[wire.ReplicaID]*replicaState
	updatesByRep map[wire.ReplicaID]uint64 // count of perf reports absorbed, per replica
	// Lifecycle mode (lifecycle.go): health tracking, probation-on-join
	// after the bootstrap view, and probation promotion thresholds.
	lifecycle        bool
	probationSamples int
	requireCaughtUp  bool // ordered mode: Probation→Active needs CaughtUp evidence
	bootstrapped     bool // first non-empty membership view absorbed
	lifeStats        LifecycleStats
	// Digest-tier counters (digest.go), guarded by mu.
	digestAbsorbed uint64
	digestStale    uint64

	// gen is bumped (under mu) by every mutation that changes snapshot
	// content — performance reports, gateway delays, membership, health
	// transitions — but NOT by NoteDispatched/NoteSettled, which only move
	// the atomic inFlight counters. A mutation of one replica stamps that
	// replica with the new value (touchLocked), any other allGen.
	gen    atomic.Uint64
	allGen uint64
	// views holds the per-method view every snapshot reader copies from.
	// Guarded by snapMu, which is taken before mu's read lock and never by a
	// writer.
	snapMu sync.Mutex
	views  map[string]*view
}

// view is one method's snapshot rows in ID order, consistent with generation
// gen, beside each row's live state. refreshLocked rewrites the rows in place,
// so they never leave the repository: readers get copies (SnapshotInto,
// SnapshotShared). The HistView slices the rows reference are published and
// never written again.
type view struct {
	gen    uint64
	rows   []ReplicaSnapshot
	states []*replicaState
	// shared is the last copy SnapshotShared handed out, valid while
	// sharedGen == gen.
	shared    []ReplicaSnapshot
	sharedGen uint64
}

// Option configures a Repository.
type Option func(*Repository)

// WithWindowSize sets the sliding-window size l for service times and
// queuing delays.
func WithWindowSize(l int) Option {
	return func(r *Repository) { r.windowSize = l }
}

// WithGatewayHistory enables a sliding window of size n for the gateway
// delay T, the paper's suggested extension for LANs with fluctuating
// traffic. n = 1 (the default) reproduces the paper: only the most recent
// value is kept.
func WithGatewayHistory(n int) Option {
	return func(r *Repository) { r.gatewayHist = n }
}

// New returns an empty repository.
func New(opts ...Option) *Repository {
	r := &Repository{
		windowSize:   DefaultWindowSize,
		gatewayHist:  1,
		entries:      make(map[methodKey]*entry),
		replicas:     make(map[wire.ReplicaID]*replicaState),
		updatesByRep: make(map[wire.ReplicaID]uint64),
		views:        make(map[string]*view),
	}
	for _, o := range opts {
		o(r)
	}
	if r.windowSize <= 0 {
		r.windowSize = DefaultWindowSize
	}
	if r.gatewayHist <= 0 {
		r.gatewayHist = 1
	}
	return r
}

// WindowSize returns the configured sliding-window size l.
func (r *Repository) WindowSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.windowSize
}

// AddReplica registers a replica (e.g. on a membership view change). It is
// idempotent.
func (r *Repository) AddReplica(id wire.ReplicaID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.replicas[id]; !ok {
		r.replicas[id] = r.newReplicaStateLocked()
		r.touchAllLocked()
	}
}

// touchLocked records a mutation of what st's snapshots carry, touchAllLocked
// one of the member set or of every member. Caller holds r.mu for writing.
func (r *Repository) touchLocked(st *replicaState) { st.gen = r.gen.Add(1) }
func (r *Repository) touchAllLocked()              { r.allGen = r.gen.Add(1) }

// RemoveReplica forgets a replica and all its histories. The timing fault
// handler calls this when Maestro/Ensemble reports the member crashed, so
// failed replicas "will not be considered in the selection process for
// future requests" (§5.4).
func (r *Repository) RemoveReplica(id wire.ReplicaID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.replicas, id)
	r.dropEntriesLocked(id)
	r.touchAllLocked()
}

// SetMembership reconciles the replica set against a full membership view:
// new members are added, departed members are purged.
func (r *Repository) SetMembership(ids []wire.ReplicaID) {
	keep := make(map[wire.ReplicaID]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if _, ok := r.replicas[id]; !ok {
			r.replicas[id] = r.newReplicaStateLocked()
		}
	}
	for id := range r.replicas {
		if !keep[id] {
			delete(r.replicas, id)
			r.dropEntriesLocked(id)
		}
	}
	if len(ids) > 0 {
		// The first non-empty view is the bootstrap: its members entered as
		// Active above (there was no warm pool to protect). Every later
		// joiner is a newcomer with no usable history and goes through
		// probation when the lifecycle is enabled.
		r.bootstrapped = true
	}
	r.touchAllLocked()
}

// Replicas returns the registered replica IDs in deterministic (sorted)
// order.
func (r *Repository) Replicas() []wire.ReplicaID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sortedIDsLocked()
}

func (r *Repository) sortedIDsLocked() []wire.ReplicaID {
	ids := make([]wire.ReplicaID, 0, len(r.replicas))
	for id := range r.replicas {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Len returns the number of registered replicas.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.replicas)
}

func (r *Repository) entryLocked(id wire.ReplicaID, method string) *entry {
	k := methodKey{replica: id, method: method}
	e, ok := r.entries[k]
	if !ok {
		e = &entry{
			service: window.NewHistogrammed(r.windowSize, resolution),
			queue:   window.NewHistogrammed(r.windowSize, resolution),
		}
		r.entries[k] = e
	}
	return e
}

// RecordPerf absorbs a performance report for (replica, method): service
// time and queuing delay enter their sliding windows, and the replica's
// outstanding-queue-length snapshot is refreshed. now is the local receipt
// time used for staleness tracking.
func (r *Repository) RecordPerf(id wire.ReplicaID, method string, p wire.PerfReport, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Reports can race a membership removal; a removed replica stays removed.
	if st, ok := r.replicas[id]; ok {
		r.recordPerfLocked(id, st, method, p, now)
		r.touchLocked(st)
	}
}

// RecordGatewayDelay stores a newly measured two-way gateway-to-gateway
// delay td for a replica (§5.4.1: computed from every reply, including
// discarded duplicates). The delay is per-link state shared by every method
// — probe replies (which carry no method) warm real methods' predictions.
//
// Negative samples are clock-adjustment artifacts. With the paper's
// point-mass window (size 1) they are clamped to 0, so the estimate stays
// fresh; with a history window (WithGatewayHistory > 1) they are dropped
// instead — a fabricated 0 would poison the empirical distribution with
// probability mass at a delay that was never observed.
func (r *Repository) RecordGatewayDelay(id wire.ReplicaID, td time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.replicas[id]; ok && r.recordDelayLocked(st, td) {
		r.touchLocked(st)
	}
}

// RecordReply is RecordPerf and RecordGatewayDelay for one reply as one
// mutation: a snapshot sees the reply's S, W and T together or not at all.
func (r *Repository) RecordReply(id wire.ReplicaID, method string, p wire.PerfReport, td time.Duration, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.replicas[id]; ok {
		r.recordPerfLocked(id, st, method, p, now)
		r.recordDelayLocked(st, td)
		r.touchLocked(st)
	}
}

func (r *Repository) recordPerfLocked(id wire.ReplicaID, st *replicaState, method string, p wire.PerfReport, now time.Time) {
	e := r.entryLocked(id, method)
	e.service.Add(p.ServiceTime)
	e.queue.Add(p.QueueDelay)
	// Local evidence wins: each measured sample displaces one borrowed one,
	// so the merged view converges to purely local data within l reports.
	e.displaceBorrowedLocked(r.windowSize)
	st.queueLength = p.QueueLength
	st.lastUpdate = now
	st.hasUpdate = true
	// Ordered-mode evidence rides on every report; a report from before a
	// crash can only lower the bar transiently, because a restart resets
	// caughtUp via Quarantine and the next live report overwrites it.
	st.caughtUp = p.CaughtUp
	st.orderedTail = p.OrderedTail
	r.updatesByRep[id]++
	r.notePerfLocked(st)
}

// recordDelayLocked adds td to st's T window and reports whether it did.
func (r *Repository) recordDelayLocked(st *replicaState, td time.Duration) bool {
	if td < 0 {
		if r.gatewayHist > 1 {
			return false
		}
		td = 0
	}
	st.gateway.Add(td)
	// A locally measured link delay supersedes any borrowed T seed: T is
	// per-link state, and the peer's link is not ours.
	st.borrowedGateway = nil
	return true
}

// NoteDispatched records that one request copy was sent to the replica and
// has not yet settled: this gateway's own, instantly current contribution to
// the replica's load, beside the replica-reported queue length (which lags by
// one reply). Dispatch/settle accounting is read live (InFlight,
// InFlightSum), never through a snapshot, so it does not bump the snapshot
// generation: it fires on every request and would defeat the snapshot view.
func (r *Repository) NoteDispatched(id wire.ReplicaID) {
	r.mu.RLock()
	if st, ok := r.replicas[id]; ok {
		st.inFlight.Add(1)
	}
	r.mu.RUnlock()
}

// NoteDispatchedAll records one dispatched copy per listed replica under a
// single lock acquisition (the scheduler's per-decision fast path).
func (r *Repository) NoteDispatchedAll(ids []wire.ReplicaID) {
	r.mu.RLock()
	for _, id := range ids {
		if st, ok := r.replicas[id]; ok {
			st.inFlight.Add(1)
		}
	}
	r.mu.RUnlock()
}

// NoteSettled records that a previously dispatched copy resolved: its reply
// arrived, or its tracking state was dropped (deadline sweep, membership
// purge, Forget). Calls for unknown replicas — e.g. settled after a
// membership removal — are no-ops.
func (r *Repository) NoteSettled(id wire.ReplicaID) {
	r.mu.RLock()
	if st, ok := r.replicas[id]; ok {
		// Floor at zero without the write lock: a settle racing a membership
		// re-add must not leave a negative in-flight count.
		for {
			v := st.inFlight.Load()
			if v <= 0 || st.inFlight.CompareAndSwap(v, v-1) {
				break
			}
		}
	}
	r.mu.RUnlock()
}

// InFlight returns the number of unsettled copies dispatched to a replica.
func (r *Repository) InFlight(id wire.ReplicaID) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if st, ok := r.replicas[id]; ok {
		return int(st.inFlight.Load())
	}
	return 0
}

// InFlightSum returns the total live in-flight dispatch count across the
// listed snapshots' replicas, under one read lock: the load input the
// scheduler hands load-conditioned strategies (selection.Input.LiveInFlight).
// Unknown IDs contribute zero.
func (r *Repository) InFlightSum(snaps []ReplicaSnapshot) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for i := range snaps {
		if st, ok := r.replicas[snaps[i].ID]; ok {
			total += int(st.inFlight.Load())
		}
	}
	return total
}

// TotalInFlight sums unsettled dispatched copies across all replicas.
func (r *Repository) TotalInFlight() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, st := range r.replicas {
		total += int(st.inFlight.Load())
	}
	return total
}

// UpdateCount returns how many performance reports have been absorbed for a
// replica across all methods.
func (r *Repository) UpdateCount(id wire.ReplicaID) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.updatesByRep[id]
}

// HistView is an immutable copy of a window's incremental histogram: distinct
// bins in ascending order (quantized at dist.DefaultResolution), their
// positive counts, and the window version the copy was taken at. The zero
// value (empty Bins) means the window holds no sample.
type HistView struct {
	Bins    []int64
	Counts  []int
	Version uint64
}

// OK reports whether the view carries at least one sample.
func (h HistView) OK() bool { return len(h.Bins) > 0 }

// ReplicaSnapshot is an immutable copy of one replica's history handed to
// the response-time predictor, so prediction runs without repository locks.
// Each measurement window is carried once, as its histogram.
type ReplicaSnapshot struct {
	ID          wire.ReplicaID
	Method      string
	QueueLength int
	LastUpdate  time.Time
	// Health is the replica's lifecycle state (lifecycle.go). Replicas whose
	// state is not Selectable() must be excluded from the probability table
	// and from the select-all fallback; the prober keys its cadence off it.
	Health Health
	// CaughtUp and OrderedTail are the replica's latest ordered-mode claims
	// (wire.PerfReport): whether its state machine is current and how many
	// operations it has applied. Stateless replicas report CaughtUp=true
	// and OrderedTail=0 on every reply.
	CaughtUp    bool
	OrderedTail uint64
	// ServiceHist and QueueHist are the service-time and queuing-delay
	// windows (borrowed and local samples merged), pre-quantized and
	// maintained incrementally, so prediction needs neither raw samples nor a
	// per-call sort.
	ServiceHist HistView
	QueueHist   HistView
	// GatewayHist is the T window: the two-way gateway delay of the link to
	// this replica. Per-link state — the same window backs every method's
	// snapshot, so probe-measured delays are visible to methods that have
	// never carried traffic. With the paper-default window of 1 it holds one
	// sample, the most recent delay; empty until a delay is measured. The
	// three views' Versions tell the predictor whether its table is current.
	GatewayHist HistView
	// HasHistory is false until at least one service-time and one queuing
	// delay sample exist; the scheduler must fall back to selecting all
	// replicas (the paper's cold-start rule, §5.4.1).
	HasHistory bool
}

// Snapshot returns prediction-ready copies for all registered replicas for
// the given method, sorted by replica ID for determinism. Every call builds
// every row afresh; the scheduler's hot path uses SnapshotInto instead.
func (r *Repository) Snapshot(method string) []ReplicaSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var v view
	r.rebuildLocked(&v, method)
	return v.rows
}

// SnapshotInto copies the same rows as Snapshot into dst, reusing its
// capacity, and returns the result. The method's view is kept up to date
// rather than rebuilt: a mutation re-exports only the replicas it touched,
// and with the generation unchanged the call is a copy. The caller owns the
// returned rows and may rewrite them; the HistView slices they reference are
// shared and MUST NOT be written.
func (r *Repository) SnapshotInto(method string, dst []ReplicaSnapshot) []ReplicaSnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return append(dst[:0], r.refreshLocked(method).rows...)
}

// SnapshotShared returns a copy of the same view as SnapshotInto, made at most
// once per generation: repeat calls without a mutation in between return the
// identical slice with zero allocation. The slice and everything it
// references are shared and MUST be treated as immutable.
func (r *Repository) SnapshotShared(method string) []ReplicaSnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	v := r.refreshLocked(method)
	if v.shared == nil || v.sharedGen != v.gen {
		v.shared, v.sharedGen = slices.Clone(v.rows), v.gen
	}
	return v.shared
}

// refreshLocked brings the method's view up to generation gen: a membership
// change rebuilds every row, any other mutation re-exports the rows of the
// replicas it touched, in place. Caller holds r.snapMu.
func (r *Repository) refreshLocked(method string) *view {
	v := r.views[method]
	if v != nil && v.gen == r.gen.Load() {
		return v
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v == nil {
		v = &view{}
		r.views[method] = v
	}
	if v.gen < r.allGen {
		r.rebuildLocked(v, method)
	} else {
		for i, st := range v.states {
			if st.gen > v.gen {
				v.rows[i] = r.snapshotReplicaLocked(v.rows[i].ID, st, method, &v.rows[i])
			}
		}
	}
	v.gen = r.gen.Load() // stable: only bumped under the write lock
	return v
}

// rebuildLocked re-exports every replica into v in ID order, reusing v's
// buffers. Caller holds r.mu (read or write).
func (r *Repository) rebuildLocked(v *view, method string) {
	ids := r.sortedIDsLocked()
	v.rows, v.states = slices.Grow(v.rows[:0], len(ids)), slices.Grow(v.states[:0], len(ids))
	for _, id := range ids {
		st := r.replicas[id]
		v.states = append(v.states, st)
		v.rows = append(v.rows, r.snapshotReplicaLocked(id, st, method, &ReplicaSnapshot{}))
	}
}

// snapshotReplicaLocked builds one replica's prediction-ready copy. The T
// fields come from the per-replica (per-link) window, independently of
// whether the method has an entry yet: a probe- or cross-method-measured
// gateway delay is visible to every method's prediction. prev is the copy last
// published for the same (replica, method), or empty (publishHists). Caller
// holds r.mu (read or write).
func (r *Repository) snapshotReplicaLocked(id wire.ReplicaID, st *replicaState, method string, prev *ReplicaSnapshot) ReplicaSnapshot {
	snap := ReplicaSnapshot{
		ID:          id,
		Method:      method,
		QueueLength: st.queueLength,
		LastUpdate:  st.lastUpdate,
		Health:      st.health,
		CaughtUp:    st.caughtUp,
		OrderedTail: st.orderedTail,
	}
	if st.borrowedUpdate.After(snap.LastUpdate) {
		// A peer vouched for this replica more recently than our own traffic:
		// fold that into the freshness marker so staleness probes are shared
		// across the fleet rather than duplicated per gateway.
		snap.LastUpdate = st.borrowedUpdate
	}
	var live [3]HistView // S, W, T as they stand in the windows
	if e, ok := r.entries[methodKey{replica: id, method: method}]; ok {
		live[0] = mergedHistView(e.borrowedService, e.service)
		live[1] = mergedHistView(e.borrowedQueue, e.queue)
	}
	if live[2] = histView(st.gateway); !live[2].OK() && st.borrowedGateway != nil {
		live[2] = histView(st.borrowedGateway) // cold-start T seed, displaced by the first local delay
	}
	hists := publishHists(live, [3]HistView{prev.ServiceHist, prev.QueueHist, prev.GatewayHist})
	snap.ServiceHist, snap.QueueHist, snap.GatewayHist = hists[0], hists[1], hists[2]
	snap.HasHistory = snap.ServiceHist.OK() && snap.QueueHist.OK()
	return snap
}

// publishHists makes views that may alias live windows immutable. A view
// whose contents equal the one last published for its window (was) takes over
// that view's slices — a steady service time, a T window of 1 re-measuring the
// same bin; the others share one bins and one counts allocation.
func publishHists(live, was [3]HistView) [3]HistView {
	var fresh [3]bool
	n := 0
	for i, v := range live {
		if slices.Equal(v.Bins, was[i].Bins) && slices.Equal(v.Counts, was[i].Counts) {
			live[i].Bins, live[i].Counts = was[i].Bins, was[i].Counts
		} else if v.OK() {
			fresh[i] = true
			n += len(v.Bins)
		}
	}
	if n == 0 {
		return live
	}
	b, c := make([]int64, 0, n), make([]int, 0, n)
	for i, v := range live {
		if fresh[i] {
			at := len(b)
			b, c = append(b, v.Bins...), append(c, v.Counts...)
			live[i].Bins, live[i].Counts = b[at:len(b):len(b)], c[at:len(c):len(c)]
		}
	}
	return live
}

// histView is one window's histogram under its version, the zero view for an
// empty window. It aliases the window: valid under r.mu, until publishHists.
func histView(w *window.Window) HistView {
	bins, counts := w.Hist()
	if len(bins) == 0 {
		return HistView{}
	}
	return HistView{Bins: bins, Counts: counts, Version: w.Version()}
}

// mergedHistView returns the union histogram of a borrowed (possibly nil) and
// a local window. Its version is the max of the two windows' versions: window
// versions come from one global monotonic counter, so any mutation of either
// window issues a version above every previously observed max — merged views
// stay sound as the predictor's staleness check without a dedicated counter.
func mergedHistView(borrowed, local *window.Window) HistView {
	l := histView(local)
	if borrowed == nil || borrowed.Len() == 0 {
		return l
	}
	b := histView(borrowed)
	if !l.OK() {
		return b
	}
	ver := l.Version
	if b.Version > ver {
		ver = b.Version
	}
	bBins, bCounts, lBins, lCounts := b.Bins, b.Counts, l.Bins, l.Counts
	bins := make([]int64, 0, len(bBins)+len(lBins))
	counts := make([]int, 0, len(bCounts)+len(lCounts))
	i, j := 0, 0
	for i < len(bBins) || j < len(lBins) {
		switch {
		case j >= len(lBins) || (i < len(bBins) && bBins[i] < lBins[j]):
			bins = append(bins, bBins[i])
			counts = append(counts, bCounts[i])
			i++
		case i >= len(bBins) || lBins[j] < bBins[i]:
			bins = append(bins, lBins[j])
			counts = append(counts, lCounts[j])
			j++
		default:
			bins = append(bins, bBins[i])
			counts = append(counts, bCounts[i]+lCounts[j])
			i++
			j++
		}
	}
	return HistView{Bins: bins, Counts: counts, Version: ver}
}

// SnapshotOne returns the snapshot for a single replica. It builds just that
// replica's entry — cost independent of membership size — so per-replica
// probes and staleness checks stay O(1).
func (r *Repository) SnapshotOne(id wire.ReplicaID, method string) (ReplicaSnapshot, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.replicas[id]
	if !ok {
		return ReplicaSnapshot{}, fmt.Errorf("repository: unknown replica %q", id)
	}
	return r.snapshotReplicaLocked(id, st, method, &ReplicaSnapshot{}), nil
}
