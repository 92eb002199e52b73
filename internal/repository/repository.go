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
	// Digest-borrowed samples (digest.go): the oldest borrowedS samples of
	// service and the oldest borrowedQ of queue came from a peer gateway's
	// digest, measured borrowedAt (absolute freshness; zero once both counts
	// reach 0). Each local sample displaces one, and none is re-exported.
	borrowedS, borrowedQ int
	borrowedAt           time.Time
}

// replicaState is per-replica state independent of the invoked method.
type replicaState struct {
	// gateway is the T_i history: the two-way gateway-to-gateway delay is a
	// property of the link, not of the invoked method, so it lives here and
	// is shared by every method's snapshot. Probe-measured delays (recorded
	// without a method) therefore warm real methods' predictions. Window
	// size 1 (the default) reproduces the paper's point mass at the most
	// recent value. Digests never write it (digest.go): every T sample is a
	// local measurement.
	gateway     *window.Window
	queueLength int // current outstanding requests (replica-reported)
	// inFlight counts requests this gateway has dispatched and not yet
	// settled. It is atomic so the dispatch/settle hot path only needs the
	// repository's read lock (map lookup), never the write lock.
	inFlight atomic.Int64
	// cancels counts the Cancels ClaimCancel granted for this replica's copies
	// since this gateway last measured a round trip to it. Only that resets
	// it: a report pushed by the replica after serving another client says
	// nothing about this gateway's link.
	cancels    atomic.Int64
	lastUpdate time.Time // freshness marker for the staleness probe
	hasUpdate  bool
	// Lifecycle state (lifecycle.go). The zero value, Active, keeps the
	// pre-lifecycle behavior: every member is a selection candidate.
	health       Health
	outcomes     faultWindow // timing outcomes RecordOutcome judges
	probationGot int         // fresh perf reports accumulated on probation
	// Ordered-mode evidence from the replica's performance reports: whether
	// its state machine is current (completed state transfer or fresh boot)
	// and its applied-log length. With the state-transfer gate enabled
	// (Lifecycle.RequireStateTransfer), probation promotion additionally requires
	// caughtUp — fresh timing samples alone no longer re-admit a stateful
	// replica.
	caughtUp    bool
	orderedTail uint64
	// borrowedUpdate is the freshest time a peer's digest vouched for this
	// replica (digest.go), folded into snapshot LastUpdate so staleness
	// probes are shared across the fleet instead of duplicated.
	borrowedUpdate time.Time
	// gen is the repository generation of the last mutation that changed what
	// this replica's snapshots carry (touchLocked).
	gen uint64
}

// Repository is the thread-safe information store for one service. The zero
// value is not usable; construct with New.
type Repository struct {
	mu          sync.RWMutex
	windowSize  int
	gatewayHist int // gateway-delay window size; 1 = paper behaviour (most recent value only)
	entries     map[methodKey]*entry
	replicas    map[wire.ReplicaID]*replicaState
	// Lifecycle mode (lifecycle.go): outcome judging, probation-on-join after
	// the bootstrap view, and probation promotion, configured by life.
	lifecycle    bool
	life         Lifecycle // defaults resolved
	bootstrapped bool      // first non-empty membership view absorbed

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
// gen, beside each row's live state. The view owns its rows and the histogram
// contents they reference: refreshLocked rewrites a touched row's S, W and T
// views into that row's own rooms in hists, in place, so nothing the view
// holds leaves the repository. Readers get deep copies (SnapshotInto,
// SnapshotShared).
type view struct {
	gen    uint64
	rows   []ReplicaSnapshot
	hists  histBlocks
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
		windowSize:  DefaultWindowSize,
		gatewayHist: 1,
		entries:     make(map[methodKey]*entry),
		replicas:    make(map[wire.ReplicaID]*replicaState),
		views:       make(map[string]*view),
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
	// Local evidence wins: each measured sample displaces one borrowed one,
	// so a window converges to purely local data within l reports.
	e := r.entryLocked(id, method)
	addLocal(e.service, &e.borrowedS, p.ServiceTime)
	addLocal(e.queue, &e.borrowedQ, p.QueueDelay)
	if e.borrowedS == 0 && e.borrowedQ == 0 {
		e.borrowedAt = time.Time{}
	}
	st.queueLength = p.QueueLength
	st.lastUpdate = now
	st.hasUpdate = true
	// Ordered-mode evidence rides on every report; a report from before a
	// crash can only lower the bar transiently, because a restart resets
	// caughtUp via Quarantine and the next live report overwrites it.
	st.caughtUp = p.CaughtUp
	st.orderedTail = p.OrderedTail
	r.notePerfLocked(st)
}

// recordDelayLocked adds td to st's T window and reports whether it did. A
// measured round trip also restarts the replica's run of granted Cancels.
func (r *Repository) recordDelayLocked(st *replicaState, td time.Duration) bool {
	st.cancels.Store(0)
	if td < 0 {
		if r.gatewayHist > 1 {
			return false
		}
		td = 0
	}
	st.gateway.Add(td)
	return true
}

// addLocal adds a locally measured sample to w. While any of w's oldest
// samples are borrowed (*borrowed > 0), it first evicts one of them.
func addLocal(w *window.Window, borrowed *int, v time.Duration) {
	if *borrowed > 0 {
		w.TrimOldest()
		*borrowed--
	}
	w.Add(v)
}

// NoteDispatched records that one request copy was sent to the replica and
// has not yet settled: this gateway's own, instantly current contribution to
// the replica's load, beside the replica-reported queue length (which lags by
// one reply). Dispatch/settle accounting is read live (InFlight,
// FillInFlight), never through the view, so it does not bump the snapshot
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

// ClaimCancel reports whether a Cancel for a losing copy of method at replica
// id can still save work, and if so counts it against the replica. All three
// must hold:
//   - the replica has S history for method and T history;
//   - its median S bin exceeds its median T bin: the copy's service is longer
//     than the round trip the Cancel must beat;
//   - fewer than l Cancels were granted since this gateway last measured a
//     round trip to the replica, so its windows still get a fresh sample of
//     this gateway's own link at least once every l + 1 selections. Reports
//     the replica pushes after serving other clients do not count.
//
// It takes only the read lock and allocates nothing.
func (r *Repository) ClaimCancel(id wire.ReplicaID, method string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.replicas[id]
	if !ok {
		return false
	}
	e, ok := r.entries[methodKey{replica: id, method: method}]
	if !ok {
		return false
	}
	s, sok := histView(e.service).MedianBin()
	t, tok := histView(st.gateway).MedianBin()
	if !sok || !tok || s <= t {
		return false
	}
	for {
		n := st.cancels.Load()
		if n >= int64(r.windowSize) {
			return false
		}
		if st.cancels.CompareAndSwap(n, n+1) {
			return true
		}
	}
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

// FillInFlight sets each snapshot's InFlight from the live counters, under
// one read lock, and returns their sum: the per-replica load the predictor
// breaks F_Ri(t) ties by, and the total the scheduler hands load-conditioned
// strategies (selection.Input.LiveInFlight). Unknown IDs read zero.
func (r *Repository) FillInFlight(snaps []ReplicaSnapshot) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for i := range snaps {
		n := 0
		if st, ok := r.replicas[snaps[i].ID]; ok {
			n = int(st.inFlight.Load())
		}
		snaps[i].InFlight = n
		total += n
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

// HistView is a copy of a window's incremental histogram: distinct bins in
// ascending order (quantized at dist.DefaultResolution), their positive
// counts, and the window version the copy was taken at. The zero value (empty
// Bins) means the window holds no sample. Who may write a copy depends on the
// call that made it (SnapshotInto, SnapshotShared).
type HistView struct {
	Bins    []int64
	Counts  []int
	Version uint64
}

// OK reports whether the view carries at least one sample.
func (h HistView) OK() bool { return len(h.Bins) > 0 }

// MedianBin returns the bin of the view's lower median sample; ok is false
// when the view holds no sample.
func (h HistView) MedianBin() (bin int64, ok bool) {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	half, seen := (n+1)/2, 0
	for i, c := range h.Counts {
		if seen += c; seen >= half {
			return h.Bins[i], true
		}
	}
	return 0, false
}

// ReplicaSnapshot is a copy of one replica's history handed to the
// response-time predictor, so prediction runs without repository locks.
// Each measurement window is carried once, as its histogram.
type ReplicaSnapshot struct {
	ID          wire.ReplicaID
	Method      string
	QueueLength int
	// InFlight is the number of copies this gateway has dispatched to the
	// replica and not yet settled. It is a live counter, not part of the
	// snapshot's generation: every snapshot reads 0 until FillInFlight sets
	// it.
	InFlight   int
	LastUpdate time.Time
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
	// windows (any borrowed samples included), pre-quantized and
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
	ids := r.sortedIDsLocked()
	rows := make([]ReplicaSnapshot, len(ids))
	for i, id := range ids {
		rows[i] = r.snapshotReplicaLocked(id, r.replicas[id], method)
	}
	detach(rows)
	return rows
}

// SnapshotBuf is a caller's reusable destination for SnapshotInto: the rows
// and the histogram contents they reference. The zero value is ready to use;
// a SnapshotBuf is not safe for concurrent use.
type SnapshotBuf struct {
	rows  []ReplicaSnapshot
	hists histBlocks
	// tmpl is view from's rows at generation gen, pointed at hists: a copy
	// from an unchanged view copies tmpl instead of pointing every row again.
	tmpl []ReplicaSnapshot
	from *view
	gen  uint64
}

// SnapshotInto deep-copies the same rows as Snapshot into buf and returns
// them. The method's view is kept up to date rather than rebuilt: a mutation
// re-exports only the replicas it touched, and with the generation unchanged
// the call is a copy of the rows and of the view's two histogram blocks, one
// move each, so once buf has grown the call allocates nothing. The caller
// owns the returned rows and everything they reference: it may compact or
// rewrite them, histogram contents included. They stay valid until the
// caller's next SnapshotInto on buf, which rewrites them all.
func (r *Repository) SnapshotInto(method string, buf *SnapshotBuf) []ReplicaSnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	v, b := r.refreshLocked(method), &buf.hists
	b.bins, b.counts = append(b.bins[:0], v.hists.bins...), append(b.counts[:0], v.hists.counts...)
	if buf.from != v || buf.gen != v.gen {
		buf.tmpl = append(buf.tmpl[:0], v.rows...)
		for i := range buf.tmpl {
			b.place(i, &buf.tmpl[i], r.room(), false)
		}
		buf.from, buf.gen = v, v.gen
	}
	buf.rows = append(buf.rows[:0], buf.tmpl...)
	return buf.rows
}

// room is how many bins each of a row's S, W and T views can hold: the
// capacity of its window, which no window's distinct bins exceed.
func (r *Repository) room() [3]int { return [3]int{r.windowSize, r.windowSize, r.gatewayHist} }

// histBlocks holds the S, W and T histogram contents of a run of rows in one
// bins block and one counts block, where each row position has a room of
// fixed size and place for each of its three views.
type histBlocks struct {
	bins   []int64
	counts []int
}

// place points row's S, W and T views at their rooms in b for row position
// i, copying the contents in first when fill is set. Rooms belong to
// positions, not to rows: every copy points each row at its own position's
// rooms, so a caller that compacted its rows cannot make two of them share
// one at the next copy.
func (b *histBlocks) place(i int, row *ReplicaSnapshot, room [3]int, fill bool) {
	at := i * (room[0] + room[1] + room[2])
	b.put(&row.ServiceHist, at, room[0], fill)
	b.put(&row.QueueHist, at+room[0], room[1], fill)
	b.put(&row.GatewayHist, at+room[0]+room[1], room[2], fill)
}

// put points h at the room of room bins starting at at, copying h into it
// first when fill is set. An empty view stays the zero view; one larger than
// its room fails the slice bounds.
func (b *histBlocks) put(h *HistView, at, room int, fill bool) {
	if n := len(h.Bins); n > 0 {
		bins, counts := b.bins[at:at+n:at+room], b.counts[at:at+n:at+room]
		if fill {
			copy(bins, h.Bins)
			copy(counts, h.Counts)
		}
		h.Bins, h.Counts = bins, counts
	}
}

// SnapshotShared returns a copy of the same view as SnapshotInto, made at most
// once per generation into one bins block and one counts block: repeat calls
// without a mutation in between return the identical slice with zero
// allocation. The slice and everything it references are shared and MUST be
// treated as immutable.
func (r *Repository) SnapshotShared(method string) []ReplicaSnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	v := r.refreshLocked(method)
	if v.shared == nil || v.sharedGen != v.gen {
		v.shared, v.sharedGen = slices.Clone(v.rows), v.gen
		detach(v.shared)
	}
	return v.shared
}

// refreshLocked brings the method's view up to generation gen: a membership
// change rebuilds every row, any other mutation re-exports the rows of the
// replicas it touched, in place, each into its own room in the view's
// histogram blocks. Caller holds r.snapMu.
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
	room := r.room()
	if v.gen < r.allGen {
		ids := r.sortedIDsLocked()
		n := len(ids) * (room[0] + room[1] + room[2])
		v.hists.bins, v.hists.counts = slices.Grow(v.hists.bins[:0], n)[:n], slices.Grow(v.hists.counts[:0], n)[:n]
		v.rows, v.states = v.rows[:0], v.states[:0]
		for i, id := range ids {
			st := r.replicas[id]
			v.states = append(v.states, st)
			v.rows = append(v.rows, r.snapshotReplicaLocked(id, st, method))
			v.hists.place(i, &v.rows[i], room, true)
		}
	} else {
		for i, st := range v.states {
			if st.gen > v.gen {
				v.rows[i] = r.snapshotReplicaLocked(v.rows[i].ID, st, method)
				v.hists.place(i, &v.rows[i], room, true)
			}
		}
	}
	v.gen = r.gen.Load() // stable: only bumped under the write lock
	return v
}

// snapshotReplicaLocked builds one replica's prediction-ready row. The T view
// comes from the per-replica (per-link) window, whether or not the method has
// an entry yet: a probe- or cross-method-measured gateway delay is visible to
// every method's prediction. The S, W and T views alias the windows, so they
// are valid only under r.mu, until they are copied (place, detach). Caller
// holds r.mu (read or write).
func (r *Repository) snapshotReplicaLocked(id wire.ReplicaID, st *replicaState, method string) ReplicaSnapshot {
	snap := ReplicaSnapshot{
		ID:          id,
		Method:      method,
		QueueLength: st.queueLength,
		LastUpdate:  st.lastUpdate,
		Health:      st.health,
		CaughtUp:    st.caughtUp,
		OrderedTail: st.orderedTail,
		GatewayHist: histView(st.gateway),
	}
	if st.borrowedUpdate.After(snap.LastUpdate) {
		// A peer vouched for this replica more recently than our own traffic:
		// fold that into the freshness marker so staleness probes are shared
		// across the fleet rather than duplicated per gateway.
		snap.LastUpdate = st.borrowedUpdate
	}
	if e, ok := r.entries[methodKey{replica: id, method: method}]; ok {
		snap.ServiceHist, snap.QueueHist = histView(e.service), histView(e.queue)
	}
	snap.HasHistory = snap.ServiceHist.OK() && snap.QueueHist.OK()
	return snap
}

// hists returns pointers to s's S, W and T views.
func (s *ReplicaSnapshot) hists() [3]*HistView {
	return [3]*HistView{&s.ServiceHist, &s.QueueHist, &s.GatewayHist}
}

// detach copies the histogram contents rows reference into one bins block and
// one counts block of exact size, so the rows alias nothing else.
func detach(rows []ReplicaSnapshot) {
	n := 0
	for i := range rows {
		for _, h := range rows[i].hists() {
			n += len(h.Bins)
		}
	}
	if n == 0 {
		return
	}
	b, c := make([]int64, 0, n), make([]int, 0, n)
	for i := range rows {
		for _, h := range rows[i].hists() {
			if h.OK() {
				at := len(b)
				b, c = append(b, h.Bins...), append(c, h.Counts...)
				h.Bins, h.Counts = b[at:len(b):len(b)], c[at:len(c):len(c)]
			}
		}
	}
}

// histView is one window's histogram under its version, the zero view for an
// empty window. It aliases the window: valid under r.mu, until it is copied.
func histView(w *window.Window) HistView {
	bins, counts := w.Hist()
	if len(bins) == 0 {
		return HistView{}
	}
	return HistView{Bins: bins, Counts: counts, Version: w.Version()}
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
	row := [1]ReplicaSnapshot{r.snapshotReplicaLocked(id, st, method)}
	detach(row[:])
	return row[0], nil
}
