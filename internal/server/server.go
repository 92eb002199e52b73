// Package server implements the server-side half of the timing fault
// handler (§5.4.1): a replica runtime that receives requests through its
// gateway endpoint, queues them FIFO (stamping t2), serves them on a worker
// (stamping t3 and measuring the service duration ts), replies with the
// performance report piggybacked, and publishes the same report to every
// subscribed client gateway.
//
// A configurable load injector reproduces the paper's experimental setup, in
// which each replica "respond[s] to a request after a delay that was
// normally distributed".
//
// The replica also speaks the first-response-wins cancel protocol: a
// wire.Cancel purges the matching queued request in O(1), or aborts the
// request currently being served (the injected load delay stops early and
// its reply is dropped).
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/group"
	"aqua/internal/metrics"
	"aqua/internal/queue"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// Handler is the application logic of a replica: it receives the request
// payload and returns the response payload.
type Handler func(method string, payload []byte) ([]byte, error)

// Config configures a replica.
type Config struct {
	// ID is the replica's identity in the group.
	ID wire.ReplicaID
	// Service is the replicated service this replica offers.
	Service wire.Service
	// Handler is the application logic; required.
	Handler Handler
	// LoadDelay, when set, injects an artificial service delay drawn per
	// request — the paper's simulated load. The delay is added to the
	// measured service time (the worker really sleeps).
	LoadDelay stats.DelayDist
	// Seed seeds the load injector.
	Seed int64
	// Group, when set, announces this replica via the group-communication
	// layer (heartbeats + views). Leave nil for driver-managed membership
	// in tests.
	Group *group.Config
	// Metrics receives the replica's counters; nil uses the Default
	// registry.
	Metrics *metrics.Registry
	// StateMachine enables ordered service mode: stamped requests are held
	// in a stable-delivery queue and applied to this machine in per-client
	// stamp order (see ordered.go). Unstamped requests and probes keep
	// using Handler. Optional.
	StateMachine StateMachine
	// Recovering marks a stateful replica that restarted into an existing
	// group: it must complete state transfer from a peer (UpdatePeers
	// supplies candidates) before it reports CaughtUp. Ignored without a
	// StateMachine.
	Recovering bool
}

// dedupWindow is the size of the recent-(Client, Seq) window
// recvLoop keeps to drop duplicate request frames re-delivered by the
// network (e.g. transport.Faulty's duplicate policy). A client gateway never
// reuses a key for *new* work, so a key seen inside the window is a true
// duplicate — unless the replica's ordered state has been reset since the
// key was recorded (recovery discards held requests the gateway may
// legitimately re-send). Each window entry therefore carries the ordered
// layer's generation; a hit recorded under an older generation is not a
// duplicate. A duplicate older than the window is harvested client-side
// like any stray reply.
const dedupWindow = 512

// Replica is a running server replica. Create with Start; stop with Stop.
type Replica struct {
	cfg   Config
	ep    transport.Endpoint
	queue *queue.Queue
	node  *group.Node
	rng   *stats.Rand
	ord   *ordered // nil for stateless replicas

	views group.Fence // in front of UpdatePeers: peer tables apply in order

	mu          sync.Mutex
	subscribers map[wire.ClientID]transport.Addr

	// Serving state for mid-service aborts: at most one request is in
	// service at a time, registered here by the worker and matched by
	// abortServing. Guarded by serveMu (never held across user code).
	serveMu    sync.Mutex
	servingOn  bool
	servingKey queue.Key
	// servingAbort is the one abort signal for every serve: capacity 1, never
	// closed. abortServing puts a token in it for the serve in progress, and
	// beginServe drains a token left by an earlier serve before it registers
	// the next.
	servingAbort chan struct{}

	served          atomic.Uint64
	cancelAborted   atomic.Uint64
	cancelUnmatched atomic.Uint64
	dupDropped      atomic.Uint64

	metPurged    *metrics.Counter
	metAborted   *metrics.Counter
	metUnmatched *metrics.Counter
	metDupFrames *metrics.Counter

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// Start launches the replica's receive and worker loops on ep. The replica
// owns ep's receive stream; Stop closes the endpoint.
func Start(ep transport.Endpoint, cfg Config) (*Replica, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("server: replica ID is required")
	}
	if cfg.Service == "" {
		return nil, fmt.Errorf("server: service name is required")
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("server: handler is required")
	}
	r := &Replica{
		cfg:          cfg,
		ep:           ep,
		queue:        queue.New(),
		rng:          stats.NewRand(cfg.Seed),
		subscribers:  make(map[wire.ClientID]transport.Addr),
		servingAbort: make(chan struct{}, 1),
		stop:         make(chan struct{}),
	}
	met := metrics.OrDefault(cfg.Metrics)
	r.metPurged = met.Counter(metrics.ServerCancelPurged)
	r.metAborted = met.Counter(metrics.ServerCancelAborted)
	r.metUnmatched = met.Counter(metrics.ServerCancelUnmatched)
	r.metDupFrames = met.Counter(metrics.ServerDupFrames)
	if cfg.StateMachine != nil {
		r.ord = newOrdered(r, cfg.StateMachine, cfg.Recovering)
	}
	if cfg.Group != nil {
		gcfg := *cfg.Group
		gcfg.Role = group.Member
		gcfg.Self = cfg.ID
		gcfg.Group = cfg.Service
		node, err := group.Join(ep, gcfg)
		if err != nil {
			return nil, fmt.Errorf("server: joining group: %w", err)
		}
		r.node = node
	}
	r.wg.Add(2)
	go r.recvLoop()
	go r.workerLoop()
	if r.ord != nil && cfg.Recovering {
		r.wg.Add(1)
		go r.ord.recoveryLoop()
	}
	return r, nil
}

// ID returns the replica's identity.
func (r *Replica) ID() wire.ReplicaID { return r.cfg.ID }

// Addr returns the replica's transport address.
func (r *Replica) Addr() transport.Addr { return r.ep.Addr() }

// QueueLen returns the current number of outstanding requests.
func (r *Replica) QueueLen() int { return r.queue.Len() }

// Served returns the number of requests processed.
func (r *Replica) Served() uint64 { return r.served.Load() }

// CancelStats returns the replica's cancel accounting: queued requests
// purged before service, mid-service aborts, and cancels that matched
// nothing (already served or never seen).
func (r *Replica) CancelStats() (purged, aborted, unmatched uint64) {
	return r.queue.Purged(), r.cancelAborted.Load(), r.cancelUnmatched.Load()
}

// DupFramesDropped returns the number of duplicate request frames the
// dedup window discarded.
func (r *Replica) DupFramesDropped() uint64 { return r.dupDropped.Load() }

// Stop terminates the replica: it leaves the group, closes the endpoint,
// and waits for the loops to exit.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		if r.node != nil {
			r.node.Leave()
		}
		r.queue.Close()
		_ = r.ep.Close()
		r.wg.Wait()
	})
}

// recvLoop routes incoming messages: requests to the FIFO queue (stamping
// t2, behind the duplicate-frame window), cancels to the queue index or the
// in-service abort, subscriptions to the subscriber table, heartbeats to
// the group node.
func (r *Replica) recvLoop() {
	defer r.wg.Done()
	// Recent-(Client, Seq) dedup window: a fixed ring plus a set, both
	// local to this goroutine. Without it a frame duplicated in flight is
	// re-enqueued and burns a second full service time. Each entry records
	// the ordered-layer generation it was seen under: a recovery reset
	// bumps the generation, so a request the discarded state had seen can
	// be legitimately re-sent (gap refill) without being swallowed here.
	var (
		dedupRing = make([]queue.Key, dedupWindow)
		dedupSet  = make(map[queue.Key]uint64, dedupWindow)
		dedupPos  int
	)
	for msg := range r.ep.Recv() {
		switch m := msg.Payload.(type) {
		case wire.Request:
			if m.Service != r.cfg.Service {
				continue
			}
			var gen uint64
			if r.ord != nil {
				gen = r.ord.generation()
			}
			key := queue.Key{Client: m.Client, Seq: m.Seq}
			if seenGen, dup := dedupSet[key]; dup && seenGen == gen {
				r.dupDropped.Add(1)
				r.metDupFrames.Inc()
				continue
			} else if !dup {
				if len(dedupSet) == dedupWindow {
					delete(dedupSet, dedupRing[dedupPos])
				}
				dedupRing[dedupPos] = key
				dedupPos = (dedupPos + 1) % dedupWindow
			}
			dedupSet[key] = gen
			if r.ord != nil && m.Stamp > 0 {
				r.ord.route(m, string(msg.From), time.Now())
				continue
			}
			r.queue.Enqueue(m, string(msg.From), time.Now())
		case wire.StateRequest:
			if r.ord == nil || m.Service != r.cfg.Service {
				continue
			}
			r.ord.handleStateRequest(m, msg.From)
		case wire.StateChunk:
			if r.ord == nil || m.Service != r.cfg.Service {
				continue
			}
			r.ord.handleStateChunk(m)
		case wire.Cancel:
			if m.Service != r.cfg.Service {
				continue
			}
			if r.ord != nil {
				// An ordered replica must not purge or abort: dropping a
				// released stamped request would hole the apply sequence and
				// stall the state machine. Cancel stays advisory-unmatched.
				r.cancelUnmatched.Add(1)
				r.metUnmatched.Inc()
				continue
			}
			if r.queue.Cancel(m.Client, m.Seq) {
				r.metPurged.Inc()
			} else if r.abortServing(m.Client, m.Seq) {
				r.cancelAborted.Add(1)
				r.metAborted.Inc()
			} else {
				r.cancelUnmatched.Add(1)
				r.metUnmatched.Inc()
			}
		case wire.Subscribe:
			r.mu.Lock()
			r.subscribers[m.Client] = msg.From
			r.mu.Unlock()
		case wire.Unsubscribe:
			r.mu.Lock()
			delete(r.subscribers, m.Client)
			r.mu.Unlock()
		case wire.Heartbeat:
			if r.node != nil {
				r.node.HandleHeartbeat(m, msg.From, time.Now())
			}
		default:
			// Unknown message kinds are ignored; the transport is shared
			// with future protocol extensions.
		}
	}
}

// abortServing aborts the in-service request if it matches (client, seq):
// the worker's injected delay wakes immediately and no reply is sent.
// Reports whether a serve was aborted.
func (r *Replica) abortServing(client wire.ClientID, seq wire.SeqNo) bool {
	key := queue.Key{Client: client, Seq: seq}
	r.serveMu.Lock()
	match := r.servingOn && r.servingKey == key
	if match {
		r.servingOn = false
		// beginServe drained the buffer and a serve is aborted at most
		// once, so the token always fits; never block under serveMu.
		select {
		case r.servingAbort <- struct{}{}:
		default:
		}
	}
	r.serveMu.Unlock()
	return match
}

// beginServe registers the request the worker is about to serve and returns
// the abort signal. A token an abort left after its serve stopped waiting is
// drained first, so a stale abort never wakes the next serve; nothing is
// allocated per serve or per abort.
func (r *Replica) beginServe(req wire.Request) <-chan struct{} {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	select {
	case <-r.servingAbort:
	default:
	}
	r.servingOn = true
	r.servingKey = queue.Key{Client: req.Client, Seq: req.Seq}
	return r.servingAbort
}

// endServe deregisters the in-service request, reporting whether it was
// aborted while being served.
func (r *Replica) endServe() (aborted bool) {
	r.serveMu.Lock()
	aborted = !r.servingOn
	r.servingOn = false
	r.serveMu.Unlock()
	return aborted
}

// subEntry is one subscriber snapshot row (flat slice instead of a copied
// map: the snapshot is iterated once and reused across requests).
type subEntry struct {
	client wire.ClientID
	addr   transport.Addr
}

// snapshotSubscribers fills buf with the current subscribers, excluding the
// requester (who gets the report piggybacked on its response). With no
// subscribers it returns buf[:0] without touching the map contents — the
// common path allocates nothing (fenced by BenchmarkSnapshotSubscribers).
func (r *Replica) snapshotSubscribers(buf []subEntry, exclude wire.ClientID) []subEntry {
	buf = buf[:0]
	r.mu.Lock()
	for c, a := range r.subscribers {
		if c == exclude {
			continue
		}
		buf = append(buf, subEntry{client: c, addr: a})
	}
	r.mu.Unlock()
	return buf
}

// workerLoop serves the queue FIFO: dequeue (t3), compute tq, run the
// handler measuring ts, reply with the perf report, publish the update.
// A request cancelled mid-service produces no reply and no publication.
func (r *Replica) workerLoop() {
	defer r.wg.Done()
	var subScratch []subEntry
	var timer *time.Timer // the load delay's, re-armed by every serve that sleeps
	if r.cfg.LoadDelay != nil {
		timer = time.NewTimer(time.Hour)
		timer.Stop()
	}
	for {
		item, ok := r.queue.Dequeue()
		if !ok {
			return
		}
		t3 := time.Now()
		tq := t3.Sub(item.EnqueuedAt)

		abort := r.beginServe(item.Req)
		if r.cfg.LoadDelay != nil {
			delay := r.cfg.LoadDelay.Sample(r.rng)
			stopped, cancelled := r.sleep(timer, delay, abort)
			if stopped {
				return
			}
			if cancelled {
				r.endServe()
				continue
			}
		}
		var payload []byte
		var err error
		if !item.Req.Probe {
			if r.ord != nil && item.Req.Stamp > 0 {
				payload, err = r.ord.apply(item.Req)
			} else {
				payload, err = r.cfg.Handler(item.Req.Method, item.Req.Payload)
			}
		}
		ts := time.Since(t3)
		if r.endServe() {
			// Cancelled while the handler ran: the client already has its
			// first reply, so drop ours.
			continue
		}
		if errors.Is(err, errSuperseded) {
			// The operation is already part of the state transferred from a
			// peer; the replicas that executed it replied. Stay silent.
			continue
		}

		perf := wire.PerfReport{
			ServiceTime: ts,
			QueueDelay:  tq,
			QueueLength: r.queue.Len(),
		}
		if r.ord != nil {
			perf.OrderedTail = r.ord.tail.Load()
			perf.CaughtUp = r.ord.caughtUp()
			if item.Req.Stamp > 0 {
				r.ord.rememberPerf(item.Req.Client, item.Req.Stamp, perf)
			}
		} else {
			perf.CaughtUp = true
		}
		resp := wire.Response{
			Client:  item.Req.Client,
			Seq:     item.Req.Seq,
			Replica: r.cfg.ID,
			Service: r.cfg.Service,
			Payload: payload,
			Perf:    perf,
			SentAt:  item.Req.SentAt,
			Probe:   item.Req.Probe,
		}
		if err != nil {
			resp.Err = err.Error()
		}
		// Counted before the reply goes out, so a client that has the reply
		// also sees the count.
		r.served.Add(1)
		// Reply to the requesting gateway; a send failure means the client
		// is gone, which the client-side deadline machinery absorbs.
		_ = r.ep.Send(transport.Addr(item.From), resp)

		subScratch = r.snapshotSubscribers(subScratch, item.Req.Client)
		if len(subScratch) == 0 {
			continue
		}

		// Publish the performance update to all subscribers each time a
		// request is processed (§5.4.1). The requester already has the data
		// piggybacked on its response.
		update := wire.PerfUpdate{
			Replica: r.cfg.ID,
			Service: r.cfg.Service,
			Method:  item.Req.Method,
			Perf:    perf,
		}
		for _, s := range subScratch {
			_ = r.ep.Send(s.addr, update)
		}
	}
}

// sleep waits for d on the worker's timer t unless the replica stops or the
// in-service request is cancelled first. stopped reports replica shutdown;
// cancelled reports a mid-service abort. Every serve re-arms the same timer
// and stops it on the way out; under Go 1.23 timer semantics (go.mod) a
// stopped or reset timer delivers no stale tick, so the next serve cannot
// wake on this one's.
func (r *Replica) sleep(t *time.Timer, d time.Duration, abort <-chan struct{}) (stopped, cancelled bool) {
	if d <= 0 {
		return false, false
	}
	t.Reset(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false, false
	case <-r.stop:
		return true, false
	case <-abort:
		return false, true
	}
}
