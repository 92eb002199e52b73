package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aqua/internal/core"
	"aqua/internal/gateway"
	"aqua/internal/metrics"
	"aqua/internal/model"
	"aqua/internal/queue"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// The probe stage times direct calls into each module's exported API on
// fixed inputs: 8 replicas, window l = 5, deadline 15 ms, windows filled from
// the seed. It is workload-independent.
const (
	probeReplicas = 8
	probeReps     = 5 // each probe reports the median of this many loops
	// probeLoops is the number of measure calls below; it turns a probe-stage
	// budget into a loop length, and runProbes checks it.
	probeLoops = 17
)

// probe is one timed operation. before and after run around every op and are
// not timed; when either is set each op is timed on its own.
type probe struct {
	before, op, after func()
	allocs            bool // also count allocations per op
}

// cost is what one op costs.
type cost struct{ us, allocs, bytes float64 }

// probeRun is one pass over the probes: how long each loop lasts and how many
// have been measured.
type probeRun struct {
	loop     time.Duration
	measured int
}

// measure loops p for about r.loop per repetition and reports the median time
// per op and, when asked, the process-wide allocations per op from a separate
// pass (so a responder goroutine's share of a round trip is included).
func (r *probeRun) measure(p probe) cost {
	r.measured++
	loop := r.loop
	hooks := p.before != nil || p.after != nil
	before, after := p.before, p.after
	if before == nil {
		before = func() {}
	}
	if after == nil {
		after = func() {}
	}
	before() // first use pays for lazy set-up (dials, pools, memo entries)
	p.op()
	after()

	perOp := make([]float64, probeReps)
	ops := 0
	for rep := range perOp {
		n, busy := 0, time.Duration(0)
		for start := time.Now(); time.Since(start) < loop || n == 0; {
			if hooks {
				before()
				t := time.Now()
				p.op()
				busy += time.Since(t)
				after()
				n++
				continue
			}
			t := time.Now()
			for i := 0; i < 16; i++ {
				p.op()
			}
			busy += time.Since(t)
			n += 16
		}
		perOp[rep] = float64(busy.Nanoseconds()) / float64(n) / 1e3
		ops = n
	}
	c := cost{us: median(perOp)}
	if !p.allocs {
		return c
	}

	runs := ops
	if runs > 2000 {
		runs = 2000
	}
	var a, b runtime.MemStats
	var mallocs, bytes uint64
	if !hooks {
		runtime.ReadMemStats(&a)
		for i := 0; i < runs; i++ {
			p.op()
		}
		runtime.ReadMemStats(&b)
		mallocs, bytes = b.Mallocs-a.Mallocs, b.TotalAlloc-a.TotalAlloc
	} else {
		// The hooks allocate too, and what they cost depends on op having
		// run, so the counters are read around each op on its own.
		for i := 0; i < runs; i++ {
			before()
			runtime.ReadMemStats(&a)
			p.op()
			runtime.ReadMemStats(&b)
			after()
			mallocs, bytes = mallocs+b.Mallocs-a.Mallocs, bytes+b.TotalAlloc-a.TotalAlloc
		}
	}
	c.allocs, c.bytes = float64(mallocs)/float64(runs), float64(bytes)/float64(runs)
	return c
}

// probeInputs is the fixed model state the core, model, selection and
// repository probes share.
type probeInputs struct {
	rng   *rand.Rand
	ids   []wire.ReplicaID
	perfs []wire.PerfReport // a ring of plausible reports drawn from the seed
	next  int
	now   time.Time
}

func newProbeInputs(seed int64) *probeInputs {
	in := &probeInputs{rng: rand.New(rand.NewSource(seed)), now: time.Now()}
	for i := 0; i < probeReplicas; i++ {
		in.ids = append(in.ids, wire.ReplicaID(fmt.Sprintf("probe-r%d", i+1)))
	}
	for i := 0; i < 256; i++ {
		ts := simulatedMean + time.Duration(in.rng.NormFloat64()*float64(simulatedSD))
		if ts < 0 {
			ts = 0
		}
		in.perfs = append(in.perfs, wire.PerfReport{
			ServiceTime: ts,
			QueueDelay:  time.Duration(in.rng.ExpFloat64() * float64(time.Millisecond)),
			QueueLength: in.rng.Intn(3),
			CaughtUp:    true,
		})
	}
	return in
}

func (in *probeInputs) perf() wire.PerfReport {
	in.next++
	return in.perfs[in.next%len(in.perfs)]
}

// repo returns a repository whose windows are full.
func (in *probeInputs) repo() *repository.Repository {
	r := repository.New(repository.WithWindowSize(5))
	for _, id := range in.ids {
		r.AddReplica(id)
		for j := 0; j < 5; j++ {
			r.RecordPerf(id, "", in.perf(), in.now)
		}
		r.RecordGatewayDelay(id, 100*time.Microsecond)
	}
	return r
}

func (in *probeInputs) scheduler(repo *repository.Repository) (*core.Scheduler, error) {
	return core.NewScheduler(core.Config{
		Service:    service,
		QoS:        paperQoS,
		Predictor:  model.NewPredictor(),
		Repository: repo,
		Metrics:    metrics.NewRegistry(),
	})
}

// runProbes runs every probe, spending about loop per repetition of each.
func runProbes(seed int64, loop time.Duration) (values, error) {
	v := values{}
	run := &probeRun{loop: loop}
	for _, f := range []func(*probeInputs, *probeRun, values) error{
		probeCore, probeModel, probeRepository, probeQueue, probeTransport, probeServerGateway,
	} {
		if err := f(newProbeInputs(seed), run, v); err != nil {
			return nil, err
		}
	}
	if run.measured != probeLoops {
		return nil, fmt.Errorf("probe: %d loops measured, probeLoops says %d: the time budget is split wrongly", run.measured, probeLoops)
	}
	return v, nil
}

func probeCore(in *probeInputs, run *probeRun, v values) error {
	repo := in.repo()
	sched, err := in.scheduler(repo)
	if err != nil {
		return err
	}
	var failed error
	var d core.Decision
	schedule := func() {
		var err error
		if d, err = sched.Schedule(in.now, ""); err != nil {
			failed = err
		}
	}
	forget := func() {
		sched.Forget(d.Seq)
		d.Release()
	}

	// Windows unchanged between decisions: the cached path the fences quote.
	c := run.measure(probe{op: func() { schedule(); forget() }, allocs: true})
	v["core.schedule_cached_us"], v["core.schedule_cached_allocs"] = c.us, c.allocs

	// One performance report per selected replica before each decision: what
	// every real call sees.
	var last []wire.ReplicaID
	c = run.measure(probe{
		before: func() {
			for _, id := range last {
				repo.RecordPerf(id, "", in.perf(), in.now)
			}
		},
		op: schedule,
		after: func() {
			last = append(last[:0], d.Targets...)
			forget()
		},
		allocs: true,
	})
	v["core.schedule_fresh_us"], v["core.schedule_fresh_allocs"] = c.us, c.allocs

	c = run.measure(probe{
		before: func() {
			schedule()
			if last = append(last[:0], d.Targets...); len(last) < 2 {
				failed = fmt.Errorf("probe: decision selected %d replicas, need 2 replies", len(last))
				last = append(last, in.ids[:2]...)
			}
		},
		op: func() {
			if err := sched.Dispatched(d.Seq, in.now); err != nil {
				failed = err
			}
			for _, id := range last[:2] {
				sched.OnReply(d.Seq, id, in.now, in.perf())
			}
		},
		after:  forget,
		allocs: true,
	})
	v["core.reply_us"], v["core.reply_allocs"] = c.us, c.allocs
	return failed
}

func probeModel(in *probeInputs, run *probeRun, v values) error {
	repo := in.repo()
	pred := model.NewPredictor()
	snaps := repo.SnapshotShared("")
	var table []model.ReplicaProbability
	var cold []repository.ReplicaSnapshot
	var failed error
	build := func() {
		var err error
		if table, cold, err = pred.ProbabilityTableInto(snaps, paperQoS.Deadline, table[:0], cold[:0]); err != nil {
			failed = err
		}
	}
	c := run.measure(probe{op: build})
	v["model.table_cached_us"] = c.us

	turn := 0
	c = run.measure(probe{
		before: func() { // two replicas replied since the last decision
			for i := 0; i < 2; i++ {
				turn++
				repo.RecordPerf(in.ids[turn%len(in.ids)], "", in.perf(), in.now)
			}
			snaps = repo.SnapshotShared("")
		},
		op:     build,
		allocs: true,
	})
	v["model.table_fresh_us"], v["model.table_fresh_allocs"] = c.us, c.allocs
	if failed != nil {
		return failed
	}
	if len(table) != probeReplicas {
		return fmt.Errorf("probe: probability table has %d of %d rows", len(table), probeReplicas)
	}

	sel := selection.NewDynamic()
	input := selection.Input{Table: table, QoS: paperQoS}
	c = run.measure(probe{op: func() { sel.Select(input) }, allocs: true})
	v["selection.select_us"], v["selection.select_allocs"] = c.us, c.allocs
	return nil
}

func probeRepository(in *probeInputs, run *probeRun, v values) error {
	repo := in.repo()
	turn := 0
	record := func() {
		turn++
		repo.RecordPerf(in.ids[turn%len(in.ids)], "", in.perf(), in.now)
	}
	v["repository.record_us"] = run.measure(probe{op: record}).us
	// A snapshot after a report is the rebuild a fresh decision pays for.
	v["repository.snapshot_us"] = run.measure(probe{before: record, op: func() { repo.SnapshotShared("") }}).us
	return nil
}

func probeQueue(in *probeInputs, run *probeRun, v values) error {
	q := queue.New()
	defer q.Close()
	req := wire.Request{Client: clientName, Service: service, Payload: makeFiller(smallPayload, 1)}
	v["queue.enq_deq_us"] = run.measure(probe{op: func() {
		req.Seq++
		q.Enqueue(req, clientName, in.now)
		q.Dequeue()
	}}).us
	v["queue.cancel_us"] = run.measure(probe{op: func() {
		req.Seq++
		q.Enqueue(req, clientName, in.now)
		q.Cancel(req.Client, req.Seq)
		if req.Seq%256 == 0 { // a purged slot is reclaimed only when a dequeue skips it
			q.Enqueue(req, clientName, in.now)
			q.Dequeue()
		}
	}}).us
	return nil
}

// echoPeer answers every wire.Request on ep with a wire.Response carrying the
// same payload, until ep closes.
func echoPeer(ep transport.Endpoint, done chan<- struct{}) {
	defer close(done)
	for m := range ep.Recv() {
		if req, ok := m.Payload.(wire.Request); ok {
			_ = ep.Send(m.From, wire.Response{Client: req.Client, Seq: req.Seq, Service: req.Service, Payload: req.Payload})
		}
	}
}

// pingNet is one caller endpoint and n echoing peers on a network.
type pingNet struct {
	caller transport.Endpoint
	peers  []transport.Addr
	close  func()
}

func newPingNet(net transport.Network, addr func(i int) transport.Addr, n int) (*pingNet, error) {
	caller, err := net.Listen(addr(0))
	if err != nil {
		return nil, err
	}
	p := &pingNet{caller: caller}
	var eps []transport.Endpoint
	var dones []chan struct{}
	p.close = func() {
		_ = caller.Close()
		for i, ep := range eps {
			_ = ep.Close()
			<-dones[i]
		}
	}
	for i := 1; i <= n; i++ {
		ep, err := net.Listen(addr(i))
		if err != nil {
			p.close()
			return nil, err
		}
		done := make(chan struct{})
		go echoPeer(ep, done)
		eps, dones = append(eps, ep), append(dones, done)
		p.peers = append(p.peers, ep.Addr())
	}
	return p, nil
}

func probeTransport(_ *probeInputs, run *probeRun, v values) error {
	reg := metrics.NewRegistry()
	inmem := transport.NewInMem(transport.WithMetrics(reg))
	defer func() { _ = inmem.Close() }()
	mem, err := newPingNet(inmem, func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("probe-%d", i)) }, 1)
	if err != nil {
		return err
	}
	defer mem.close()
	tcp, err := newPingNet(transport.NewTCPWithMetrics(reg), func(int) transport.Addr { return "127.0.0.1:0" }, 3)
	if err != nil {
		return err
	}
	defer tcp.close()

	var failed error
	req := wire.Request{Client: clientName, Service: service, Payload: makeFiller(smallPayload, 1)}
	send := func(p *pingNet) func() {
		return func() {
			req.Seq++
			if err := p.caller.Send(p.peers[0], req); err != nil {
				failed = err
			}
		}
	}
	await := func(p *pingNet, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				if _, ok := <-p.caller.Recv(); !ok {
					failed = transport.ErrClosed
				}
			}
		}
	}
	rtt := func(p *pingNet) func() {
		s, a := send(p), await(p, 1)
		return func() { s(); a() }
	}

	c := run.measure(probe{op: rtt(mem), allocs: true})
	v["transport.inmem_rtt_us"], v["transport.inmem_rtt_allocs"] = c.us, c.allocs
	c = run.measure(probe{op: rtt(tcp), allocs: true})
	v["transport.tcp_rtt_us"], v["transport.tcp_rtt_allocs"] = c.us, c.allocs
	v["transport.tcp_send_us"] = run.measure(probe{op: send(tcp), after: await(tcp, 1)}).us
	v["transport.tcp_mcast3_us"] = run.measure(probe{
		op: func() {
			req.Seq++
			if err := transport.Multicast(tcp.caller, tcp.peers, req); err != nil {
				failed = err
			}
		},
		after: await(tcp, len(tcp.peers)),
	}).us

	req.Payload = makeFiller(bulkPayload, 1)
	c = run.measure(probe{op: rtt(tcp), allocs: true})
	v["transport.tcp_rtt_32k_us"] = c.us
	v["transport.tcp_bytes_per_frame_32k"] = c.bytes / 2 // a round trip is two frames
	return failed
}

func probeServerGateway(_ *probeInputs, run *probeRun, v values) error {
	inmem := transport.NewInMem(transport.WithMetrics(metrics.NewRegistry()))
	defer func() { _ = inmem.Close() }()
	const replica = wire.ReplicaID("probe-r1")
	srvEP, err := inmem.Listen(transport.Addr(replica))
	if err != nil {
		return err
	}
	srv, err := server.Start(srvEP, server.Config{ID: replica, Service: service, Handler: echoHandler})
	if err != nil {
		return err
	}
	defer srv.Stop()

	// A bare endpoint talking to the replica: no gateway in the path.
	bare, err := inmem.Listen("probe-bare")
	if err != nil {
		return err
	}
	defer func() { _ = bare.Close() }()
	var failed error
	req := wire.Request{Client: "probe-bare", Service: service, Payload: makeFiller(smallPayload, 1)}
	c := run.measure(probe{op: func() {
		req.Seq++
		if err := bare.Send(srv.Addr(), req); err != nil {
			failed = err
		}
		if _, ok := <-bare.Recv(); !ok {
			failed = transport.ErrClosed
		}
	}, allocs: true})
	v["server.echo_rtt_us"], v["server.echo_allocs"] = c.us, c.allocs

	// The whole handler against one static replica (ROADMAP's 21 us / 40 allocs row).
	gwEP, err := inmem.Listen("client:probe")
	if err != nil {
		return err
	}
	h, err := gateway.NewTimingFaultHandler(gwEP, gateway.Config{
		Client:         "probe",
		Service:        service,
		QoS:            floorQoS,
		StaticReplicas: map[wire.ReplicaID]transport.Addr{replica: srv.Addr()},
		Metrics:        metrics.NewRegistry(),
	})
	if err != nil {
		_ = gwEP.Close()
		return err
	}
	defer h.Close()
	payload := makeFiller(smallPayload, 1)
	c = run.measure(probe{op: func() {
		// The known Dispatched race is counted by the workloads and tolerated
		// here at any share: under the race detector it hits a sixth of these
		// calls, and a probe that gated on it would make the package's tests flaky.
		if _, err := h.Call(context.Background(), "", payload); err != nil && classify(err) != errRace {
			failed = err
		}
	}, allocs: true})
	v["gateway.call_1r_us"], v["gateway.call_1r_allocs"] = c.us, c.allocs
	return failed
}
