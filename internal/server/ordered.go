package server

// Ordered service mode: the server half of state-machine replication layered
// over the paper's timing-fault-tolerant selection.
//
// Gateways stamp each request with a per-client logical timestamp (1, 2, 3,
// … contiguous per client gateway). This file implements the replica side of
// the Schneider-style discipline those stamps enable:
//
//   - a stable-delivery hold-back queue: a stamped request is released into
//     the FIFO service queue only when every smaller stamp from the same
//     client has been released, so the worker applies each client's
//     operations to the state machine in stamp order;
//   - gap refill: a replica that skips a stamp (dropped frame, or it was
//     simply outside the scheduler's multicast subset) asks the stamping
//     gateway to re-send the missing range (wire.StateRequest with Gap set);
//     the gateway replays the original frames through the normal path;
//   - duplicate suppression and re-replies: a stamp below the release cursor
//     is answered from a bounded per-client result cache (no re-execution),
//     so a client that re-sends after losing our reply still gets its
//     acknowledged result;
//   - crash recovery by state transfer: a replica started with
//     Config.Recovering pulls a snapshot + log suffix + delivery cursors
//     from an Active peer (wire.StateRequest{WantSnapshot} →
//     wire.StateChunk) before it reports CaughtUp in its performance
//     reports. Repositories running the state-transfer lifecycle gate
//     refuse to promote a replica Probation→Active until that bit is set —
//     fresh timing samples alone no longer re-admit a stateful replica.
//
// Everything here hangs off the ordered struct, guarded by one mutex; the
// receive loop routes frames into it and the worker applies through it, so
// the state machine itself is never called concurrently.

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/transport"
	"aqua/internal/wire"
)

// StateMachine is the replicated application of an ordered service: Apply
// executes one operation and returns its result, Snapshot serializes the
// full state, and Restore replaces the state from a snapshot — a nil
// snapshot must reset the machine to its initial state. The replica runtime
// serializes all three — implementations need no internal locking for
// runtime calls (Snapshot must still be safe to call on the state Restore
// produced, and vice versa).
type StateMachine interface {
	Apply(method string, payload []byte) ([]byte, error)
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
}

// SnapshotEvery is the apply cadence at which the runtime takes a
// state-machine snapshot and truncates the replay log to the suffix: a state
// transfer carries a snapshot only once the responder has applied this many
// operations.
const SnapshotEvery = 64

const (
	// resultCacheSize bounds the per-client re-reply cache.
	resultCacheSize = 128
	// maxChunkEntries bounds the log-suffix slice carried by one StateChunk.
	maxChunkEntries = 1024
	// recoveryRetry is how often a recovering replica re-asks a peer for
	// state until a transfer completes.
	recoveryRetry = 75 * time.Millisecond
)

// errSuperseded marks an ordered request whose stamp was already covered by
// a state transfer (or a duplicate release across a recovery reset): the
// worker drops it without replying, exactly like a cancelled serve.
var errSuperseded = errors.New("server: ordered request superseded by state transfer")

// cachedResult is one re-replyable applied operation.
type cachedResult struct {
	stamp   uint64
	seq     wire.SeqNo
	payload []byte
	errMsg  string
	perf    wire.PerfReport
}

// heldReq is one hold-back entry awaiting its predecessors.
type heldReq struct {
	req  wire.Request
	from string
	at   time.Time
}

// ordered is the per-replica ordered-mode state.
type ordered struct {
	r   *Replica
	sm  StateMachine
	mu  sync.Mutex
	gen atomic.Uint64 // bumped on every recovery reset; tags dedup entries

	// Replay log: the suffix of applied entries after snapIndex. The total
	// log length (applied operation count) is snapIndex + len(log).
	log       []wire.LogEntry
	snap      []byte
	snapIndex uint64
	tail      atomic.Uint64 // == snapIndex + len(log); lock-free for perf reports

	// Stable delivery. next is the per-client release cursor (next expected
	// stamp); applied is the per-client apply cursor (highest stamp the
	// worker has run through the state machine). held is the hold-back
	// queue; refillFrom remembers which gateway last stamped each client's
	// traffic, so gap refills have an address.
	next       map[wire.ClientID]uint64
	applied    map[wire.ClientID]uint64
	held       map[wire.ClientID]map[uint64]heldReq
	results    map[wire.ClientID][]cachedResult
	refillFrom map[wire.ClientID]transport.Addr

	// Recovery. xferFrom is the peer the current transfer attempt targets
	// (chunks from anyone else are ignored, so two peers answering a
	// round-robin retry cannot interleave); xferStarted marks that the
	// attempt's first chunk has reset and restored the state machine.
	recovered   atomic.Bool
	recovering  bool
	peers       map[wire.ReplicaID]transport.Addr
	peerOrder   []wire.ReplicaID
	peerNext    int
	xferFrom    wire.ReplicaID
	xferStarted bool

	transfers   atomic.Uint64 // completed inbound state transfers
	refillsSent atomic.Uint64
	refillHits  atomic.Uint64 // refill requests served (responder side: gateway counts its own)
	heldNow     int
	replayed    atomic.Uint64 // re-replies served from the result cache
}

func newOrdered(r *Replica, sm StateMachine, recovering bool) *ordered {
	o := &ordered{
		r:          r,
		sm:         sm,
		next:       make(map[wire.ClientID]uint64),
		applied:    make(map[wire.ClientID]uint64),
		held:       make(map[wire.ClientID]map[uint64]heldReq),
		results:    make(map[wire.ClientID][]cachedResult),
		refillFrom: make(map[wire.ClientID]transport.Addr),
		peers:      make(map[wire.ReplicaID]transport.Addr),
	}
	o.recovering = recovering
	o.recovered.Store(!recovering)
	return o
}

// caughtUp reports whether the state machine is current (fresh boot or
// completed state transfer). Piggybacked on every performance report.
func (o *ordered) caughtUp() bool { return o.recovered.Load() }

// generation returns the dedup-window generation: entries recorded under an
// older generation no longer count as duplicates (the ordered state that saw
// them was discarded by a recovery reset).
func (o *ordered) generation() uint64 { return o.gen.Load() }

// route decides what to do with one incoming stamped request: release it
// (and any now-contiguous held successors) into the FIFO queue in stamp
// order, hold it back while predecessors are missing, answer a duplicate
// from the result cache, or drop it. Called from the receive loop only.
func (o *ordered) route(req wire.Request, from string, now time.Time) {
	o.mu.Lock()
	o.refillFrom[req.Client] = transport.Addr(from)
	next := o.nextLocked(req.Client)
	switch {
	case req.Stamp < next:
		// Already released: answer from the result cache if the apply is
		// still there, otherwise drop — some other replica carried it.
		res, ok := o.cachedLocked(req.Client, req.Stamp)
		o.mu.Unlock()
		if ok {
			o.replayed.Add(1)
			resp := wire.Response{
				Client:  req.Client,
				Seq:     res.seq,
				Replica: o.r.cfg.ID,
				Service: o.r.cfg.Service,
				Payload: res.payload,
				Err:     res.errMsg,
				Perf:    res.perf,
				SentAt:  req.SentAt,
			}
			resp.Perf.OrderedTail = o.tail.Load()
			resp.Perf.CaughtUp = o.caughtUp()
			_ = o.r.ep.Send(transport.Addr(from), resp)
		}
	case req.Stamp == next && o.recovered.Load():
		o.releaseLocked(req, from, now)
		o.releaseHeldLocked(req.Client, now)
		o.mu.Unlock()
	default:
		// A future stamp (or any stamp while recovering): hold it and, when
		// a gap is the cause, ask the stamping gateway to re-send the
		// missing range. While recovering we hold everything — the state
		// machine is not current yet.
		hm := o.held[req.Client]
		if hm == nil {
			hm = make(map[uint64]heldReq)
			o.held[req.Client] = hm
		}
		if _, dup := hm[req.Stamp]; !dup {
			hm[req.Stamp] = heldReq{req: req, from: from, at: now}
			o.heldNow++
		}
		var gap *wire.StateRequest
		if o.recovered.Load() && req.Stamp > next {
			gap = &wire.StateRequest{
				Replica:   o.r.cfg.ID,
				Service:   o.r.cfg.Service,
				Gap:       req.Client,
				FromStamp: next,
				ToStamp:   req.Stamp - 1,
			}
		}
		o.mu.Unlock()
		if gap != nil {
			o.refillsSent.Add(1)
			_ = o.r.ep.Send(transport.Addr(from), *gap)
		}
	}
}

func (o *ordered) nextLocked(c wire.ClientID) uint64 {
	if n, ok := o.next[c]; ok {
		return n
	}
	o.next[c] = 1
	return 1
}

func (o *ordered) cachedLocked(c wire.ClientID, stamp uint64) (cachedResult, bool) {
	for _, res := range o.results[c] {
		if res.stamp == stamp {
			return res, true
		}
	}
	return cachedResult{}, false
}

// releaseLocked moves one stable request into the FIFO service queue and
// advances the release cursor. Caller holds o.mu.
func (o *ordered) releaseLocked(req wire.Request, from string, now time.Time) {
	o.next[req.Client] = req.Stamp + 1
	o.r.queue.Enqueue(req, from, now)
}

// releaseHeldLocked drains the hold-back queue for a client while it stays
// contiguous with the release cursor. Caller holds o.mu.
func (o *ordered) releaseHeldLocked(c wire.ClientID, now time.Time) {
	hm := o.held[c]
	for len(hm) > 0 {
		h, ok := hm[o.next[c]]
		if !ok {
			return
		}
		delete(hm, h.req.Stamp)
		o.heldNow--
		o.releaseLocked(h.req, h.from, now)
	}
	delete(o.held, c)
}

// apply runs one released ordered request through the state machine, appends
// it to the replay log, caches the result for re-replies, and snapshots on
// cadence. Called from the worker goroutine.
func (o *ordered) apply(req wire.Request) (payload []byte, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.applied[req.Client]+1 != req.Stamp {
		// Covered by a state transfer that happened between release and
		// service (the transferred log already contains this operation) —
		// drop without replying; the peers that executed it answered.
		return nil, errSuperseded
	}
	payload, err = o.sm.Apply(req.Method, req.Payload)
	o.applied[req.Client] = req.Stamp
	o.log = append(o.log, wire.LogEntry{
		Stamp:   req.Stamp,
		Client:  req.Client,
		Seq:     req.Seq,
		Method:  req.Method,
		Payload: req.Payload,
	})
	o.tail.Store(o.snapIndex + uint64(len(o.log)))

	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	cache := append(o.results[req.Client], cachedResult{
		stamp: req.Stamp, seq: req.Seq, payload: payload, errMsg: errMsg,
	})
	if len(cache) > resultCacheSize {
		cache = cache[len(cache)-resultCacheSize:]
	}
	o.results[req.Client] = cache

	if len(o.log) >= SnapshotEvery {
		o.snapshotLocked()
	}
	return payload, err
}

// rememberPerf back-fills the measured performance report into the re-reply
// cache, so a replayed reply carries plausible (if slightly stale) timing
// data instead of zeros that would poison a repository window.
func (o *ordered) rememberPerf(client wire.ClientID, stamp uint64, perf wire.PerfReport) {
	o.mu.Lock()
	cache := o.results[client]
	for i := range cache {
		if cache[i].stamp == stamp {
			cache[i].perf = perf
			break
		}
	}
	o.mu.Unlock()
}

// snapshotLocked takes a state-machine snapshot and truncates the replay log
// to the (now empty) suffix. A snapshot failure keeps the log — transfer
// then ships the longer suffix instead. Caller holds o.mu.
func (o *ordered) snapshotLocked() {
	snap, err := o.sm.Snapshot()
	if err != nil {
		return
	}
	o.snap = snap
	o.snapIndex += uint64(len(o.log))
	o.log = o.log[:0:0]
}

// UpdatePeers installs the replica peer table (pushed by the cluster on
// every membership change). A recovering replica uses it to pick a transfer
// source; learning that it has no peers at all means there is nothing to
// recover from, so it boots fresh.
func (r *Replica) UpdatePeers(peers map[wire.ReplicaID]transport.Addr) {
	o := r.ord
	if o == nil {
		return
	}
	o.mu.Lock()
	o.peers = make(map[wire.ReplicaID]transport.Addr, len(peers))
	o.peerOrder = o.peerOrder[:0]
	for id, addr := range peers {
		if id == r.cfg.ID {
			continue
		}
		o.peers[id] = addr
		o.peerOrder = append(o.peerOrder, id)
	}
	slices.Sort(o.peerOrder)
	soleSurvivor := o.recovering && len(o.peerOrder) == 0
	if soleSurvivor {
		o.recovering = false
		o.recovered.Store(true)
	}
	o.mu.Unlock()
	if !soleSurvivor {
		o.kickRecovery()
	}
}

// kickRecovery sends one StateRequest to the next peer in round-robin order
// if the replica is still recovering. The recovery loop re-kicks on a timer
// until a transfer completes.
func (o *ordered) kickRecovery() {
	o.mu.Lock()
	if !o.recovering || len(o.peerOrder) == 0 {
		o.mu.Unlock()
		return
	}
	id := o.peerOrder[o.peerNext%len(o.peerOrder)]
	o.peerNext++
	addr := o.peers[id]
	o.xferFrom = id
	o.xferStarted = false
	req := wire.StateRequest{
		Replica:      o.r.cfg.ID,
		Service:      o.r.cfg.Service,
		WantSnapshot: true,
		SinceIndex:   o.tail.Load(),
	}
	o.mu.Unlock()
	_ = o.r.ep.Send(addr, req)
}

// recoveryLoop retries state transfer until it completes or the replica
// stops. Started only for replicas created with Config.Recovering.
func (o *ordered) recoveryLoop() {
	defer o.r.wg.Done()
	t := time.NewTicker(recoveryRetry)
	defer t.Stop()
	for {
		select {
		case <-o.r.stop:
			return
		case <-t.C:
			if o.recovered.Load() {
				return
			}
			o.kickRecovery()
		}
	}
}

// enterRecovery discards the ordered state and re-runs state transfer — the
// fallback when a gap refill comes back Pruned (the gateway no longer holds
// the range) and the only way forward is a peer's snapshot. Bumps the dedup
// generation so frames the discarded state had seen may be re-sent.
func (o *ordered) enterRecovery() {
	o.mu.Lock()
	already := o.recovering
	if !already {
		o.recovering = true
		o.recovered.Store(false)
		o.gen.Add(1)
		o.xferStarted = false
	}
	o.mu.Unlock()
	if !already {
		o.r.wg.Add(1)
		go o.recoveryLoop()
		o.kickRecovery()
	}
}

// handleStateRequest serves both StateRequest flavors a replica can receive:
// a peer's recovery pull (WantSnapshot). Gap refills (Gap set) are addressed
// to gateways, not replicas; a replica that receives one ignores it.
func (o *ordered) handleStateRequest(m wire.StateRequest, from transport.Addr) {
	if !m.WantSnapshot {
		return
	}
	if !o.recovered.Load() {
		_ = o.r.ep.Send(from, wire.StateChunk{
			Replica: o.r.cfg.ID,
			Service: o.r.cfg.Service,
			Err:     "not caught up",
		})
		return
	}
	o.mu.Lock()
	chunks := o.buildTransferLocked()
	o.mu.Unlock()
	for _, c := range chunks {
		if o.r.ep.Send(from, c) != nil {
			return
		}
	}
}

// buildTransferLocked assembles the full transfer as StateChunk frames:
// snapshot on the first, the log suffix split across chunks, cursors and
// Done on the last. Caller holds o.mu.
func (o *ordered) buildTransferLocked() []wire.StateChunk {
	tail := o.snapIndex + uint64(len(o.log))
	base := wire.StateChunk{Replica: o.r.cfg.ID, Service: o.r.cfg.Service, Tail: tail}
	var chunks []wire.StateChunk
	first := base
	first.SnapshotIndex = o.snapIndex
	if o.snapIndex > 0 || o.snap != nil {
		first.Snapshot = append([]byte(nil), o.snap...)
	}
	n := len(o.log)
	if n > maxChunkEntries {
		n = maxChunkEntries
	}
	first.Entries = append([]wire.LogEntry(nil), o.log[:n]...)
	chunks = append(chunks, first)
	for off := n; off < len(o.log); off += maxChunkEntries {
		end := off + maxChunkEntries
		if end > len(o.log) {
			end = len(o.log)
		}
		c := base
		c.Entries = append([]wire.LogEntry(nil), o.log[off:end]...)
		chunks = append(chunks, c)
	}
	last := &chunks[len(chunks)-1]
	last.Done = true
	// Cursors must describe the *applied* state the transfer ships, not the
	// release cursors: a stamp released into our FIFO queue but not yet
	// applied is in neither the snapshot nor the log, and a cursor past it
	// would make the receiver skip it forever. With Next = applied+1 the
	// receiver gap-refills anything between our applied state and the live
	// stream instead.
	last.Cursors = make([]wire.ClientCursor, 0, len(o.applied))
	for c, applied := range o.applied {
		last.Cursors = append(last.Cursors, wire.ClientCursor{Client: c, Next: applied + 1})
	}
	return chunks
}

// handleStateChunk applies one inbound transfer chunk. Only chunks from the
// peer the current attempt targets are accepted; the attempt's first chunk
// resets and restores the state machine, so a torn or abandoned previous
// attempt can never leak partial state into this one. A transfer whose
// entry count disagrees with the responder's Tail on Done is discarded and
// the retry ticker asks again.
func (o *ordered) handleStateChunk(m wire.StateChunk) {
	if m.Pruned {
		// A gap refill we asked a gateway for is no longer available: the
		// stamped history has moved past what anyone will re-send, so pull
		// a full snapshot from a peer instead.
		o.enterRecovery()
		return
	}
	o.mu.Lock()
	if !o.recovering || m.Err != "" || m.Replica != o.xferFrom {
		o.mu.Unlock()
		return // the retry ticker will ask another peer
	}
	if !o.xferStarted {
		// First chunk of this attempt: adopt the responder's snapshot
		// wholesale (nil resets to the initial state).
		if err := o.sm.Restore(m.Snapshot); err != nil {
			o.mu.Unlock()
			return
		}
		o.xferStarted = true
		o.snap = append([]byte(nil), m.Snapshot...)
		o.snapIndex = m.SnapshotIndex
		o.log = o.log[:0:0]
		o.tail.Store(o.snapIndex)
	}
	for _, e := range m.Entries {
		if _, err := o.sm.Apply(e.Method, e.Payload); err != nil {
			// Replay must be deterministic; an application error is part of
			// the replicated history, not a transfer failure.
			_ = err
		}
		o.log = append(o.log, e)
	}
	o.tail.Store(o.snapIndex + uint64(len(o.log)))
	if !m.Done {
		o.mu.Unlock()
		return
	}
	if o.tail.Load() != m.Tail {
		// Torn transfer (lost chunk): discard the attempt and let the retry
		// ticker start over.
		o.xferStarted = false
		o.mu.Unlock()
		return
	}
	for _, cur := range m.Cursors {
		o.next[cur.Client] = cur.Next
		if cur.Next > 0 {
			o.applied[cur.Client] = cur.Next - 1
		}
		// Anything held at or below the transferred cursor is already in
		// the transferred state.
		if hm := o.held[cur.Client]; hm != nil {
			for stamp := range hm {
				if stamp < cur.Next {
					delete(hm, stamp)
					o.heldNow--
				}
			}
		}
	}
	o.recovering = false
	// Count the transfer before flipping recovered: an external observer that
	// sees CaughtUp must also see the completed transfer that earned it.
	o.transfers.Add(1)
	o.recovered.Store(true)
	// Release whatever held traffic became contiguous with the transferred
	// cursors.
	now := time.Now()
	for c := range o.held {
		o.releaseHeldLocked(c, now)
	}
	o.mu.Unlock()
}

// OrderedTail returns how many ordered operations the replica has applied.
func (r *Replica) OrderedTail() uint64 {
	if r.ord == nil {
		return 0
	}
	return r.ord.tail.Load()
}

// CaughtUp reports whether the replica's state machine is current. True for
// stateless replicas.
func (r *Replica) CaughtUp() bool {
	if r.ord == nil {
		return true
	}
	return r.ord.caughtUp()
}

// StateTransfers returns how many inbound state transfers completed.
func (r *Replica) StateTransfers() uint64 {
	if r.ord == nil {
		return 0
	}
	return r.ord.transfers.Load()
}

// RefillsRequested returns how many gap-refill StateRequests this replica
// sent to gateways.
func (r *Replica) RefillsRequested() uint64 {
	if r.ord == nil {
		return 0
	}
	return r.ord.refillsSent.Load()
}

// Replayed returns how many duplicate ordered requests were answered from
// the result cache instead of re-executed.
func (r *Replica) Replayed() uint64 {
	if r.ord == nil {
		return 0
	}
	return r.ord.replayed.Load()
}

// HeldBack returns the current hold-back queue population.
func (r *Replica) HeldBack() int {
	if r.ord == nil {
		return 0
	}
	r.ord.mu.Lock()
	defer r.ord.mu.Unlock()
	return r.ord.heldNow
}
