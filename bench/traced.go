package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"aqua/internal/core"
	"aqua/internal/gateway"
	"aqua/internal/metrics"
	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// The traced run rebuilds the paper's t0..t4 timeline from outside the
// program: the same stack aqua.NewCluster and NewClient assemble is built
// here from internal/server and internal/gateway, over a transport.Network
// whose endpoints record a span around every Send and a timestamp for every
// delivered message. The extra hop on Recv is the tracing overhead, which is
// why end-to-end numbers never come from this run.

type stampKind uint8

const (
	reqSend     stampKind = iota // client endpoint: Send or SendMulticast of a wire.Request
	reqDeliver                   // replica endpoint: a wire.Request arrived
	respSend                     // replica endpoint: Send of a wire.Response
	respDeliver                  // client endpoint: a wire.Response arrived
)

// stamp is one span (start..end) or instant (start == end) at an endpoint,
// keyed by the request's sequence number. Times are nanoseconds since the
// tracer's base.
type stamp struct {
	kind       stampKind
	replica    wire.ReplicaID // the replica end of the hop
	seq        wire.SeqNo
	nonce      uint64 // reqSend: ties the sequence number to the caller's span
	start, end int64
	tq, ts     int64 // respSend: the PerfReport the reply carries
}

type callSpan struct {
	nonce      uint64
	start, end int64
	ok         bool
}

type tracer struct {
	base time.Time
	rec  *trace.Recorder

	mu    sync.Mutex
	calls []callSpan
	eps   []*tracedEndpoint
}

func newTracer() *tracer {
	// The ring must hold every event of a run: a schedule event and up to one
	// reply event per selected replica for each call.
	return &tracer{base: time.Now(), rec: trace.New(trace.WithCapacity(16 << 20))}
}

func (t *tracer) since() int64 { return int64(time.Since(t.base)) }

// tracedNetwork decorates a transport.Network so that every endpoint it
// creates records stamps.
type tracedNetwork struct {
	inner transport.Network
	tr    *tracer
}

func (n *tracedNetwork) Listen(addr transport.Addr) (transport.Endpoint, error) {
	return n.listen(addr, "")
}

// listen creates the endpoint of the named replica, or the client's when
// replica is empty.
func (n *tracedNetwork) listen(addr transport.Addr, replica wire.ReplicaID) (*tracedEndpoint, error) {
	inner, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	ep := &tracedEndpoint{
		inner:   inner,
		tr:      n.tr,
		replica: replica,
		// Same depth as the inner endpoints' own queues, so the decorator adds
		// a hop but no new place to drop a message.
		out:    make(chan transport.Message, 1024),
		done:   make(chan struct{}),
		pumped: make(chan struct{}),
	}
	n.tr.mu.Lock()
	n.tr.eps = append(n.tr.eps, ep)
	n.tr.mu.Unlock()
	go ep.pump()
	return ep, nil
}

type tracedEndpoint struct {
	inner   transport.Endpoint
	tr      *tracer
	replica wire.ReplicaID // set for a replica's endpoint, empty for the client's

	out       chan transport.Message
	done      chan struct{}
	pumped    chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	stamps []stamp
}

// tracedEndpoint always offers SendMulticast and forwards it through
// transport.Multicast, which uses the inner endpoint's MultiSender when it
// has one: single-encode multicast over TCP is not lost, and the in-memory
// endpoint still gets one Send per target.
var (
	_ transport.Endpoint    = (*tracedEndpoint)(nil)
	_ transport.MultiSender = (*tracedEndpoint)(nil)
)

func (e *tracedEndpoint) Addr() transport.Addr           { return e.inner.Addr() }
func (e *tracedEndpoint) Recv() <-chan transport.Message { return e.out }

func (e *tracedEndpoint) record(s stamp) {
	e.mu.Lock()
	e.stamps = append(e.stamps, s)
	e.mu.Unlock()
}

func (e *tracedEndpoint) Send(to transport.Addr, payload any) error {
	start := e.tr.since()
	err := e.inner.Send(to, payload)
	e.sent(payload, start)
	return err
}

func (e *tracedEndpoint) SendMulticast(to []transport.Addr, payload any) error {
	start := e.tr.since()
	err := transport.Multicast(e.inner, to, payload)
	e.sent(payload, start)
	return err
}

func (e *tracedEndpoint) sent(payload any, start int64) {
	switch m := payload.(type) {
	case wire.Request:
		if len(m.Payload) >= nonceLen {
			e.record(stamp{kind: reqSend, seq: m.Seq, nonce: binary.LittleEndian.Uint64(m.Payload), start: start, end: e.tr.since()})
		}
	case wire.Response:
		e.record(stamp{kind: respSend, replica: e.replica, seq: m.Seq, start: start, end: e.tr.since(),
			tq: int64(m.Perf.QueueDelay), ts: int64(m.Perf.ServiceTime)})
	}
}

// pump forwards delivered messages to the endpoint's owner, stamping
// requests and responses on the way.
func (e *tracedEndpoint) pump() {
	defer close(e.pumped)
	defer close(e.out)
	for m := range e.inner.Recv() {
		at := e.tr.since()
		switch p := m.Payload.(type) {
		case wire.Request:
			e.record(stamp{kind: reqDeliver, replica: e.replica, seq: p.Seq, start: at, end: at})
		case wire.Response:
			e.record(stamp{kind: respDeliver, replica: p.Replica, seq: p.Seq, start: at, end: at})
		}
		select {
		case e.out <- m:
		case <-e.done:
			return
		}
	}
}

func (e *tracedEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		err = e.inner.Close()
		close(e.done)
		<-e.pumped
	})
	return err
}

// buildTraced assembles the workload's stack from the internal packages,
// mirroring aqua.NewCluster and Cluster.NewClient (replica names, seeds,
// recovery of late-joining stateful replicas, the client configuration), on
// endpoints that record stamps into tr.
func buildTraced(tr *tracer) func(workload, int64) (*system, error) {
	return func(w workload, seed int64) (*system, error) {
		reg := metrics.NewRegistry()
		var inner transport.Network
		var inmem *transport.InMem
		if w.tcp {
			inner = transport.NewTCPWithMetrics(reg)
		} else {
			inmem = transport.NewInMem(transport.WithMetrics(reg))
			inner = inmem
		}
		net := &tracedNetwork{inner: inner, tr: tr}
		listen := func(name string, replica wire.ReplicaID) (*tracedEndpoint, error) {
			addr := transport.Addr(name)
			if w.tcp {
				addr = "127.0.0.1:0"
			}
			return net.listen(addr, replica)
		}

		var servers []*server.Replica
		var handler *gateway.TimingFaultHandler
		closeAll := func() {
			if handler != nil {
				handler.Close()
			}
			for _, s := range servers {
				s.Stop()
			}
			if inmem != nil {
				_ = inmem.Close()
			}
		}
		var logs *logSet
		if w.ordered {
			logs = &logSet{}
		}
		members := make(map[wire.ReplicaID]transport.Addr, w.replicas)
		for i := 1; i <= w.replicas; i++ {
			id := wire.ReplicaID(fmt.Sprintf("%s-r%d", service, i))
			ep, err := listen(string(id), id)
			if err != nil {
				closeAll()
				return nil, err
			}
			cfg := server.Config{ID: id, Service: service, Handler: echoHandler, Seed: seed + int64(i)}
			if w.loadMean > 0 {
				cfg.LoadDelay = stats.Normal{Mu: w.loadMean, Sigma: w.loadSigma}
			}
			if w.ordered {
				cfg.StateMachine = logs.newMachine()
				cfg.Recovering = i > 1
			}
			srv, err := server.Start(ep, cfg)
			if err != nil {
				_ = ep.Close()
				closeAll()
				return nil, err
			}
			servers = append(servers, srv)
			members[id] = srv.Addr()
			if w.ordered {
				for _, s := range servers {
					s.UpdatePeers(members)
				}
			}
		}

		ep, err := listen("client:"+clientName, "")
		if err != nil {
			closeAll()
			return nil, err
		}
		cfg := gateway.Config{
			Client:         clientName,
			Service:        service,
			QoS:            w.qos,
			Ordered:        w.ordered,
			StaticReplicas: members,
			Metrics:        reg,
			Trace:          tr.rec,
		}
		if !w.closed {
			cfg.MaxWait = openMaxWait
		}
		if w.guarded {
			cfg.Strategy = selection.NewBudgeted()
			cfg.Controller = core.NewAdaptiveBudget(core.AdaptiveBudgetConfig{MaxK: w.replicas})
			cfg.CancelOnFirstReply = true
			cfg.Overload.MaxInFlight = 64
			cfg.ShedRetryDelay = -1
		}
		if handler, err = gateway.NewTimingFaultHandler(ep, cfg); err != nil {
			_ = ep.Close()
			closeAll()
			return nil, err
		}
		h := handler
		return &system{
			call: func(p []byte) ([]byte, error) {
				span := callSpan{nonce: binary.LittleEndian.Uint64(p), start: tr.since()}
				out, err := h.Call(context.Background(), "", p)
				span.end, span.ok = tr.since(), err == nil
				tr.mu.Lock()
				tr.calls = append(tr.calls, span)
				tr.mu.Unlock()
				return out, err
			},
			observe: func(c *counters) {
				c.stats = h.Stats()
				c.served = make([]uint64, len(servers))
				for i, s := range servers {
					c.served[i] = s.Served()
				}
				c.refills = h.RefillsServed()
				c.reg = reg.Snapshot()
			},
			progress: func() (sent, served uint64) {
				for _, s := range servers {
					served += s.Served()
				}
				return h.Stats().SelectedTotal, served
			},
			logs:  logs,
			close: closeAll,
		}, nil
	}
}

// span is one assembled child of a call span, as written with -spans.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// callTrace is one call with the stages along its winning replica's chain.
type callTrace struct {
	Client  string         `json:"client"`
	Seq     wire.SeqNo     `json:"seq"`
	Winner  wire.ReplicaID `json:"winner"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Spans   []span         `json:"spans"`
}

type hop struct {
	seq     wire.SeqNo
	replica wire.ReplicaID
}

// joinCheck says how the stamps of a traced run joined into chains. The five
// stages telescope to the call's own duration whenever a chain is complete,
// so trace.stage_sum_frac alone cannot see a stage joined to the wrong stamp
// (a wrong winner, a refill re-send taken for the first send): that shows as
// a stage of negative length, and a lost stamp as an incomplete chain.
type joinCheck struct {
	calls      int // successful calls of the measured window
	incomplete int // of them, calls that lack a stamp along the winner's chain
	negative   int // of the complete ones, calls with a stage that ends before it starts
}

// maxIncompleteShare is the share of successful calls that may lack a stamp
// before the stage table is called invalid.
const maxIncompleteShare = 0.01

func (j joinCheck) String() string {
	return fmt.Sprintf("%d successful calls, %d with an incomplete chain, %d with a negative stage", j.calls, j.incomplete, j.negative)
}

func (j joinCheck) valid() bool {
	return j.negative == 0 && float64(j.incomplete) <= maxIncompleteShare*float64(j.calls)
}

// assemble joins the stamps of every successful call that started at or after
// from into the five stages that partition it — pre_send, req_wire, replica
// (delivery to reply Send start), reply_wire, post_recv, all along the
// winning replica's chain — plus δ (a child of pre_send) and the reported tq
// and ts (children of the replica stage), and returns the traced metrics, the
// assembled calls and how the join went.
func (t *tracer) assemble(from time.Time) (values, []callTrace, joinCheck) {
	fromNs := int64(from.Sub(t.base))
	delta := map[wire.SeqNo]int64{}
	for _, e := range t.rec.Filter(trace.KindSchedule) {
		delta[e.Seq] = int64(e.Duration)
	}
	type sendInfo struct {
		seq   wire.SeqNo
		start int64
	}
	firstSend := map[uint64]sendInfo{}   // nonce → earliest request Send (refills re-send later)
	firstReply := map[wire.SeqNo]stamp{} // seq → earliest delivered reply: the winner
	delivered := map[hop]int64{}         // request arrival at a replica
	replied := map[hop]stamp{}           // earliest reply Send at a replica (a refilled frame is answered again)
	t.mu.Lock()
	eps, calls := t.eps, t.calls
	t.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		for _, s := range ep.stamps {
			switch s.kind {
			case reqSend:
				if old, ok := firstSend[s.nonce]; !ok || s.start < old.start {
					firstSend[s.nonce] = sendInfo{s.seq, s.start}
				}
			case reqDeliver:
				k := hop{s.seq, s.replica}
				if old, ok := delivered[k]; !ok || s.start < old {
					delivered[k] = s.start
				}
			case respSend:
				k := hop{s.seq, s.replica}
				if old, ok := replied[k]; !ok || s.start < old.start {
					replied[k] = s
				}
			case respDeliver:
				if old, ok := firstReply[s.seq]; !ok || s.start < old.start {
					firstReply[s.seq] = s
				}
			}
		}
		ep.mu.Unlock()
	}

	names := []string{"gateway.pre_send_us", "core.delta_us", "transport.req_wire_us", "queue.wait_us",
		"server.service_us", "server.overhead_us", "transport.reply_wire_us", "gateway.post_recv_us", "gateway.call_us"}
	series := map[string][]int64{}
	var traces []callTrace
	var join joinCheck
	var stageSum, callSum float64
	for _, c := range calls {
		if !c.ok || c.start < fromNs {
			continue
		}
		join.calls++
		callSum += float64(c.end - c.start)
		series["gateway.call_us"] = append(series["gateway.call_us"], c.end-c.start)
		snd, ok := firstSend[c.nonce]
		win, ok0 := firstReply[snd.seq]
		k := hop{snd.seq, win.replica}
		arrived, ok1 := delivered[k]
		reply, ok2 := replied[k]
		d, ok3 := delta[snd.seq]
		if !ok || !ok0 || !ok1 || !ok2 || !ok3 {
			join.incomplete++
			continue
		}
		stages := []span{
			{"gateway.pre_send", "call", c.start, snd.start},
			{"core.delta", "gateway.pre_send", c.start, c.start + d},
			{"transport.req_wire", "call", snd.start, arrived},
			{"server.replica", "call", arrived, reply.start},
			{"queue.wait", "server.replica", arrived, arrived + reply.tq},
			{"server.service", "server.replica", arrived + reply.tq, arrived + reply.tq + reply.ts},
			{"transport.reply_wire", "call", reply.start, win.start},
			{"gateway.post_recv", "call", win.start, c.end},
		}
		negative := d < 0
		for _, s := range stages {
			if s.Parent == "call" {
				stageSum += float64(s.EndNs - s.StartNs)
				negative = negative || s.EndNs < s.StartNs
			}
		}
		if negative {
			join.negative++
		}
		series["gateway.pre_send_us"] = append(series["gateway.pre_send_us"], snd.start-c.start)
		series["core.delta_us"] = append(series["core.delta_us"], d)
		series["transport.req_wire_us"] = append(series["transport.req_wire_us"], arrived-snd.start)
		series["queue.wait_us"] = append(series["queue.wait_us"], reply.tq)
		series["server.service_us"] = append(series["server.service_us"], reply.ts)
		series["server.overhead_us"] = append(series["server.overhead_us"], reply.start-arrived-reply.tq-reply.ts)
		series["transport.reply_wire_us"] = append(series["transport.reply_wire_us"], win.start-reply.start)
		series["gateway.post_recv_us"] = append(series["gateway.post_recv_us"], c.end-win.start)
		if len(traces) < maxSpansWritten {
			traces = append(traces, callTrace{Client: clientName, Seq: snd.seq, Winner: win.replica,
				StartNs: c.start, EndNs: c.end, Spans: stages})
		}
	}

	v := values{"trace.stage_sum_frac": ratio(stageSum, callSum)}
	for _, name := range names {
		us := nsToSortedUs(series[name])
		v[name+"_p50"] = percentile(us, 0.50)
		if name != "server.service_us" { // the simulated load: only its median is of interest
			v[name+"_p99"] = percentile(us, 0.99)
		}
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].StartNs < traces[j].StartNs })
	return v, traces, join
}

// maxSpansWritten bounds the -spans file: enough calls to read a timeline,
// not the tens of megabytes a whole closed-loop run would take.
const maxSpansWritten = 10000

// writeSpans writes one JSON object per traced call.
func writeSpans(path string, traces []callTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range traces {
		if err := enc.Encode(&traces[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
