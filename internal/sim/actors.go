package sim

import (
	"errors"
	"time"

	"aqua/internal/core"
	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// NetworkModel draws one-way message delays: a base LAN delay plus
// occasional high-traffic spikes, matching the paper's assumption that LAN
// links "do not experience frequent fluctuations in traffic [but] may
// experience occasional periods of high traffic" (§3).
type NetworkModel struct {
	// Base is the usual one-way delay; nil means zero delay.
	Base stats.DelayDist
	// SpikeProb is the per-message probability of a high-traffic delay.
	SpikeProb float64
	// Spike is the delay drawn during a spike; nil disables spikes.
	Spike stats.DelayDist
}

// delay draws one one-way latency.
func (n NetworkModel) delay(r *stats.Rand) time.Duration {
	if n.Spike != nil && n.SpikeProb > 0 && r.Float64() < n.SpikeProb {
		return n.Spike.Sample(r)
	}
	if n.Base == nil {
		return 0
	}
	return n.Base.Sample(r)
}

// Replica simulates one server replica as the paper's §6 load model: a FIFO
// queue in front of ReplicaSpec.Workers workers (one by default), each copy's
// service time drawn from a delay distribution when it starts. It runs on the
// kernel, so a Cancel can still purge a queued copy or abort one in service,
// and a crash loses every copy it holds.
type Replica struct {
	ID     wire.ReplicaID
	index  int // position in Scenario.Replicas, for link-fault matching
	spec   ReplicaSpec
	kernel *Kernel
	rng    *stats.Rand

	queue   []*job // accepted copies waiting for a worker, in arrival order
	workers []*job // the copy each worker serves; nil when idle
	crashed bool
	served  int // copies completed and answered
	purged  int // queued copies removed by a Cancel
	aborted int // copies in service stopped by a Cancel

	// caughtUpAt models ordered-mode state transfer (Scenario.StateTransfer):
	// performance reports claim CaughtUp only for work completed at or after
	// this virtual time. Zero — the boot-time state of every first
	// incarnation — means always caught up, matching a stateless service.
	caughtUpAt time.Duration
}

// jobKey identifies one dispatched request copy: (client, seq) is globally
// unique because sequence numbers are never reused. Probes carry the zero
// key, which no Cancel names.
type jobKey struct {
	client wire.ClientID
	seq    wire.SeqNo
}

// job is one request copy a replica accepted.
type job struct {
	key     jobKey
	arrived time.Duration
	// backlog is PerfReport.QueueLength: the queued copies plus the busy
	// workers whose copy ends strictly after this one arrived.
	backlog int
	end     time.Duration // completion time, set when service starts
	reply   func(perf wire.PerfReport)
}

// newReplica constructs the incarnation id of host index.
func newReplica(k *Kernel, id wire.ReplicaID, index int, spec ReplicaSpec, rng *stats.Rand) *Replica {
	return &Replica{
		ID:      id,
		index:   index,
		spec:    spec,
		kernel:  k,
		rng:     rng,
		workers: make([]*job, max(spec.Workers, 1)),
	}
}

// submit accepts one request copy now. reply runs when its service completes,
// unless a cancel or a crash takes the copy first.
func (r *Replica) submit(key jobKey, reply func(perf wire.PerfReport)) {
	if r.crashed {
		return
	}
	now := r.kernel.Now()
	backlog := len(r.queue)
	for _, j := range r.workers {
		if j != nil && j.end > now {
			backlog++
		}
	}
	r.queue = append(r.queue, &job{key: key, arrived: now, backlog: backlog, reply: reply})
	r.dispatch()
}

// dispatch hands queued copies to idle workers in FIFO order.
func (r *Replica) dispatch() {
	for w := range r.workers {
		if len(r.queue) == 0 {
			return
		}
		if r.workers[w] == nil {
			r.start(w)
		}
	}
}

// start puts the queue head on worker w and schedules its completion. The
// service time is drawn now, from the slow distribution when the slow window
// covers this start.
func (r *Replica) start(w int) {
	j := r.queue[0]
	r.queue[0] = nil
	r.queue = r.queue[1:]
	now := r.kernel.Now()
	dist := r.spec.Service
	if r.slowAt(now) {
		dist = r.spec.Slow
	}
	ts := dist.Sample(r.rng)
	j.end = now + ts
	r.workers[w] = j
	r.kernel.After(ts, func() {
		if r.workers[w] != j {
			return // aborted by a cancel, or lost in a crash
		}
		r.workers[w] = nil
		r.served++
		j.reply(wire.PerfReport{
			ServiceTime: ts,
			QueueDelay:  now - j.arrived,
			QueueLength: j.backlog,
			CaughtUp:    j.end >= r.caughtUpAt,
		})
		r.dispatch()
	})
}

// cancel drops the copy named by key: one in service is aborted and its
// worker takes the next queued copy now, a queued one is purged, and a key the
// replica never saw, or already finished, is a no-op, like the real server's
// unmatched path.
func (r *Replica) cancel(key jobKey) {
	for w, j := range r.workers {
		if j != nil && j.key == key {
			r.workers[w] = nil
			r.aborted++
			r.dispatch()
			return
		}
	}
	for i, j := range r.queue {
		if j.key == key {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			r.purged++
			return
		}
	}
}

// crash stops the replica for good: the copies it queued or was serving are
// lost without a reply, and it accepts nothing more.
func (r *Replica) crash() {
	r.crashed = true
	r.queue = nil
	clear(r.workers)
}

// slowAt reports whether the performance fault is active for work starting
// at virtual time t.
func (r *Replica) slowAt(t time.Duration) bool {
	s := r.spec
	return s.Slow != nil && t >= s.SlowFrom && (s.SlowUntil <= 0 || t < s.SlowUntil)
}

// RequestRecord captures one simulated request for experiment analysis.
type RequestRecord struct {
	Seq          wire.SeqNo
	IssuedAt     time.Duration
	NumSelected  int
	Predicted    float64
	UsedAll      bool
	ColdStart    bool
	ResponseTime time.Duration // 0 when no reply ever arrived
	GotReply     bool
	Failure      bool // tr > deadline, or no reply by deadline
	Shed         bool // refused by admission control (core.ErrOverloaded)
	Mode         core.Mode
	Budget       int  // redundancy budget applied (0 = unbounded)
	BudgetCapped bool // budget or best-effort cap truncated the selection
}

// Timely reports whether the request got a reply within its deadline.
func (r RequestRecord) Timely() bool { return r.GotReply && !r.Failure }

// Client simulates one client gateway running the timing fault handler: it
// issues Requests requests with a think-time delay between receiving a
// response and issuing the next request (the paper uses one second).
type Client struct {
	ID       wire.ClientID
	kernel   *Kernel
	sched    *core.Scheduler
	network  NetworkModel
	faults   []LinkFault
	rng      *stats.Rand
	replicas map[wire.ReplicaID]*Replica

	// WAN mode (Scenario.WAN): per-replica one-way delay distributions by
	// host index, request and response directions. When set they replace
	// the shared NetworkModel for this client's traffic.
	linkTo   []stats.DelayDist
	linkFrom []stats.DelayDist

	think    time.Duration
	total    int
	giveUp   time.Duration // no-reply fallback so the loop always advances
	arrival  stats.DelayDist
	issued   int
	records  []RequestRecord
	pendRec  map[wire.SeqNo]*RequestRecord
	startAt  time.Duration
	finished func()
	rec      *trace.Recorder // nil-safe

	// Lifecycle (Scenario.Lifecycle): probe probation replicas back to
	// admission and audit every selection for probation violations.
	lifecycle           bool
	probeEvery          time.Duration
	probationViolations int

	// Cancellation (Scenario.Cancellation): fan a cancel to the losing
	// replicas when the first reply arrives. cancelBuf is reused across
	// requests (CancelTargets appends into it).
	cancellation bool
	cancelsSent  int
	cancelBuf    []wire.ReplicaID
}

// probeLoop is the gateway prober's warm-up role inside the kernel: every
// probeEvery of virtual time, send a probe to each replica this client
// holds on probation so its window accumulates the MinSamples needed for
// re-admission without serving live traffic. The loop stops once the
// client has finished its workload (so the kernel can drain).
func (c *Client) probeLoop() {
	if c.finished == nil {
		return
	}
	for _, snap := range c.sched.Repository().Snapshot("") {
		if snap.Health != repository.Probation {
			continue
		}
		rep, ok := c.replicas[snap.ID]
		if !ok {
			continue // left the view (or was retired) since the snapshot
		}
		c.request(rep, jobKey{}, func(perf wire.PerfReport) {
			c.sched.OnPerfUpdate(wire.PerfUpdate{Replica: rep.ID, Perf: perf}, c.kernel.NowTime())
		})
	}
	c.kernel.After(c.probeEvery, c.probeLoop)
}

// noteProbationViolations audits one selection: any target that was not
// selectable while at least one selectable member existed is a lifecycle
// leak (the a14 guardrail). The all-sick fallback — no selectable member
// anywhere — is legitimate and not counted.
func (c *Client) noteProbationViolations(targets []wire.ReplicaID) {
	health := make(map[wire.ReplicaID]repository.Health)
	anySelectable := false
	for _, snap := range c.sched.Repository().Snapshot("") {
		health[snap.ID] = snap.Health
		if snap.Health.Selectable() {
			anySelectable = true
		}
	}
	if !anySelectable {
		return
	}
	for _, id := range targets {
		if h, ok := health[id]; ok && !h.Selectable() {
			c.probationViolations++
		}
	}
}

// issueOpenLoop drives an open-loop workload: requests fire at drawn
// inter-arrival times independent of replies, so queueing pressure builds
// when the pool saturates. Completion is still tracked per request; the
// client finishes when every record closes.
func (c *Client) issueOpenLoop() {
	if c.issued >= c.total {
		return
	}
	c.issueOne()
	if c.issued < c.total {
		c.kernel.After(c.arrival.Sample(c.rng), c.issueOpenLoop)
	}
}

// issueNext drives the paper's closed-loop workload: the follow-up request
// is scheduled only after the current one resolves, plus a think time.
func (c *Client) issueNext() {
	if c.issued >= c.total {
		if c.finished != nil {
			c.finished()
			c.finished = nil
		}
		return
	}
	c.issueOne()
}

// issueOne fires a single request with full lifecycle tracking.
func (c *Client) issueOne() {
	c.issued++
	t0v := c.kernel.Now()
	t0 := c.kernel.NowTime()
	d, err := c.sched.Schedule(t0, "")
	if err != nil {
		// Admission control refused the request: count it as shed — not a
		// timing failure, and not silently dropped. Any other error means no
		// replicas are left; record a failed request. Either way the closed
		// loop retries after the think time — load or membership may recover.
		shed := errors.Is(err, core.ErrOverloaded)
		c.records = append(c.records, RequestRecord{IssuedAt: t0v, Failure: !shed, Shed: shed, Mode: d.Mode})
		if c.arrival == nil {
			c.kernel.After(c.think, c.issueNext)
		} else if c.issued >= c.total && len(c.pendRec) == 0 && c.finished != nil {
			c.finished()
			c.finished = nil
		}
		return
	}
	rec := &RequestRecord{
		Seq:          d.Seq,
		IssuedAt:     t0v,
		NumSelected:  len(d.Targets),
		Predicted:    d.Predicted,
		UsedAll:      d.UsedAll,
		ColdStart:    d.ColdStart,
		Mode:         d.Mode,
		Budget:       d.Budget,
		BudgetCapped: d.BudgetCapped,
	}
	c.pendRec[d.Seq] = rec
	c.rec.Record(trace.Event{
		At: t0v, Kind: trace.KindSchedule, Client: c.ID, Seq: d.Seq,
		Targets: d.Targets, Value: d.Predicted,
	})
	if c.lifecycle {
		c.noteProbationViolations(d.Targets)
	}

	// Dispatch: one multicast, stamped t1 = now (the virtual gateway hands
	// the message to the network immediately after selection).
	if err := c.sched.Dispatched(d.Seq, c.kernel.NowTime()); err != nil {
		// Unreachable by construction; fall through to the deadline path.
		_ = err
	}
	key := jobKey{client: c.ID, seq: d.Seq}
	for _, id := range d.Targets {
		rep, ok := c.replicas[id]
		if !ok {
			continue
		}
		c.request(rep, key, func(perf wire.PerfReport) { c.onReply(key.seq, rep.ID, perf) })
	}

	// Deadline watchdog: charge the failure the moment the deadline passes
	// with no reply.
	qos := c.sched.QoS()
	seq := d.Seq
	c.kernel.At(t0v+qos.Deadline, func() {
		c.sched.OnDeadlineExpired(seq)
		if rec, ok := c.pendRec[seq]; ok && !rec.GotReply {
			rec.Failure = true
		}
	})
	// Give-up fallback, and straggler grace: a pending entry is only
	// self-cleaning when every target replies, so a request with a crashed
	// (or drop-faulted) target would leak its entry forever. By giveUp every
	// reply that will ever come has come — Forget whatever is left. Then, if
	// no reply arrived at all, close the record and resume the loop.
	c.kernel.At(t0v+c.giveUp, func() {
		c.sched.Forget(seq)
		rec, ok := c.pendRec[seq]
		if !ok || rec.GotReply {
			return
		}
		c.closeRecord(seq)
		if c.arrival == nil {
			c.kernel.After(c.think, c.issueNext)
		}
	})
}

// request sends the copy key to rep and hands the performance report of its
// reply to answer, once that reply is back. A copy or reply lost on the link,
// or a copy the replica loses, is never answered.
func (c *Client) request(rep *Replica, key jobKey, answer func(perf wire.PerfReport)) {
	c.send(rep, c.linkTo, func() {
		rep.submit(key, func(perf wire.PerfReport) {
			c.send(rep, c.linkFrom, func() { answer(perf) })
		})
	})
}

// send carries one message across rep's link, leaving now: links holds this
// client's WAN delays in the message's direction (nil on the shared network).
// It draws the one-way delay, adds the extra delay of every link fault active
// now, and runs deliver on arrival. It reports false when a fault drops the
// message, which is then never delivered.
func (c *Client) send(rep *Replica, links []stats.DelayDist, deliver func()) bool {
	var d time.Duration
	if links == nil {
		d = c.network.delay(c.rng)
	} else if l := links[rep.index]; l != nil {
		d = l.Sample(c.rng)
	}
	now := c.kernel.Now()
	drop := false
	for _, f := range c.faults {
		if !f.active(rep.index, now) {
			continue
		}
		if f.Loss > 0 && c.rng.Float64() < f.Loss {
			drop = true
		}
		if f.ExtraDelay != nil {
			d += f.ExtraDelay.Sample(c.rng)
		}
	}
	if drop {
		return false
	}
	c.kernel.After(d, deliver)
	return true
}

// onReply delivers one replica reply to the shared scheduler code.
func (c *Client) onReply(seq wire.SeqNo, replica wire.ReplicaID, perf wire.PerfReport) {
	out := c.sched.OnReply(seq, replica, c.kernel.NowTime(), perf)
	c.rec.Record(trace.Event{
		At: c.kernel.Now(), Kind: trace.KindReply, Client: c.ID, Seq: seq,
		Replica: replica, Duration: out.ResponseTime,
	})
	if out.Violation != nil {
		c.rec.Record(trace.Event{
			At: c.kernel.Now(), Kind: trace.KindViolation, Client: c.ID, Seq: seq,
			Value: out.Violation.ObservedTimely,
		})
	}
	if !out.First {
		return
	}
	if c.cancellation {
		c.fanCancel(seq)
	}
	rec, ok := c.pendRec[seq]
	if !ok {
		return
	}
	rec.GotReply = true
	rec.ResponseTime = out.ResponseTime
	rec.Failure = out.TimingFailure
	if out.TimingFailure {
		c.rec.Record(trace.Event{
			At: c.kernel.Now(), Kind: trace.KindFailure, Client: c.ID, Seq: seq,
			Duration: out.ResponseTime,
		})
	}
	c.closeRecord(seq)
	if c.arrival == nil {
		// Think, then issue the next request (paper: "a one second delay
		// between receiving a response and issuing the next request").
		c.kernel.After(c.think, c.issueNext)
	}
}

// fanCancel mirrors the gateway's first-response-wins fan-out inside the
// kernel: the scheduler settles the losers' bookkeeping, then each loser
// receives a Cancel one network delay later (subject to the same link
// faults as any other message — a lost Cancel just means that replica
// serves its duplicate, as before).
func (c *Client) fanCancel(seq wire.SeqNo) {
	c.cancelBuf = c.sched.CancelTargets(seq, c.cancelBuf[:0])
	if len(c.cancelBuf) == 0 {
		return
	}
	key := jobKey{client: c.ID, seq: seq}
	for _, id := range c.cancelBuf {
		// A lost Cancel just means that replica serves its duplicate.
		if rep, ok := c.replicas[id]; ok && c.send(rep, c.linkTo, func() { rep.cancel(key) }) {
			c.cancelsSent++
		}
	}
}

// closeRecord finalizes a request record. In open-loop mode the client is
// finished once every issued request has resolved.
func (c *Client) closeRecord(seq wire.SeqNo) {
	rec, ok := c.pendRec[seq]
	if !ok {
		return
	}
	delete(c.pendRec, seq)
	c.records = append(c.records, *rec)
	if c.arrival != nil && c.issued >= c.total && len(c.pendRec) == 0 && c.finished != nil {
		c.finished()
		c.finished = nil
	}
}
