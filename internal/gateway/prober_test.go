package gateway

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

func TestProberRefreshesStaleReplicas(t *testing.T) {
	f := newFixture(t, 3, stats.Constant{Delay: 3 * ms})
	h := f.handler(Config{
		Client: "probing", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		ProbeInterval:  20 * ms,
		StalenessBound: 50 * ms,
	})
	// One bootstrap request warms everyone, then the client goes idle.
	if _, err := h.Call(context.Background(), "", nil); err != nil {
		t.Fatal(err)
	}
	repo := h.Scheduler().Repository()
	baseline := make(map[wire.ReplicaID]uint64)
	for _, id := range repo.Replicas() {
		baseline[id] = repo.UpdateCount(id)
	}

	// While idle, probes must keep every replica's history fresh.
	waitFor(t, 2*time.Second, func() bool {
		for _, id := range repo.Replicas() {
			if repo.UpdateCount(id) <= baseline[id] {
				return false
			}
		}
		return true
	}, "all replicas refreshed by probes while client idle")

	if h.ProbesSent() == 0 {
		t.Fatal("ProbesSent() = 0 despite refreshes")
	}
	// Probes never count in the client's request statistics.
	st := h.Stats()
	if st.Requests != 1 || st.Completed != 1 {
		t.Errorf("stats polluted by probes: %+v", st)
	}
	// The application handler is never invoked for probes: replicas serve
	// probes (Served advances) but their app payload path was skipped —
	// verified implicitly by Stats above and the server test below.
}

func TestProberRespectsFreshHistory(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: 3 * ms})
	h := f.handler(Config{
		Client: "busy", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval:  25 * ms,
		StalenessBound: 10 * time.Second, // never stale during the test
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * ms)
	}
	if got := h.ProbesSent(); got != 0 {
		t.Errorf("ProbesSent = %d with fresh history, want 0", got)
	}
}

func TestProbesDisabledByDefault(t *testing.T) {
	f := newFixture(t, 1, nil)
	h := f.handler(Config{
		Client: "noprobe", Service: "svc",
		QoS: wire.QoS{Deadline: 300 * ms, MinProbability: 0},
	})
	if h.ProbesSent() != 0 {
		t.Error("probes active without ProbeInterval")
	}
}

func TestProbeSkipsApplicationHandler(t *testing.T) {
	// Direct server-level check: a probe request returns a perf report but
	// never runs the app handler.
	f := newFixture(t, 1, nil)
	called := false
	// Re-use the fixture's transport with a custom replica.
	ep, err := f.net.Listen("probe-replica")
	if err != nil {
		t.Fatal(err)
	}
	srv := startCustomReplica(t, ep, func(string, []byte) ([]byte, error) {
		called = true
		return []byte("real"), nil
	})
	cli, err := f.net.Listen("probe-cli")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(srv.Addr(), wire.Request{
		Client: "c", Seq: 1, Service: "probe-svc", Probe: true, SentAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-cli.Recv():
		resp, ok := m.Payload.(wire.Response)
		if !ok {
			t.Fatalf("got %T", m.Payload)
		}
		if !resp.Probe {
			t.Error("probe flag not echoed")
		}
		if len(resp.Payload) != 0 {
			t.Errorf("probe returned payload %q", resp.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("no probe response")
	}
	if called {
		t.Error("application handler invoked for a probe")
	}
}

// TestProberPrunesRemovedReplicas is the regression fence for the sentAt
// leak: a probe sent to a replica that then leaves the view can never be
// answered, so without pruning on membership change the outstanding-probe
// map grows monotonically under churn.
func TestProberPrunesRemovedReplicas(t *testing.T) {
	f := newFixture(t, 2, nil)
	// r1 goes dark before probing starts: probes to it are never answered,
	// so its guard entry can only be cleared by the membership prune.
	f.replicas["r1"].Stop()
	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "prune", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval:  10 * ms,
		StalenessBound: 10 * time.Second, // in-flight probes never age out
		Metrics:        reg,
	})
	outstandingTo := func(id wire.ReplicaID) bool {
		h.prober.mu.Lock()
		defer h.prober.mu.Unlock()
		_, ok := h.prober.sentAt[id]
		return ok
	}
	waitFor(t, 2*time.Second, func() bool { return outstandingTo("r1") },
		"probe outstanding to the dead replica")

	// Shrink the view to r0 only. Re-applying the update inside the poll
	// makes the check immune to a sweep that snapshotted the old view
	// concurrently with the first call.
	view := map[wire.ReplicaID]transport.Addr{"r0": f.replicas["r0"].Addr()}
	waitFor(t, 2*time.Second, func() bool {
		h.UpdateMembership(view)
		return !outstandingTo("r1")
	}, "sentAt entry for the removed replica pruned")

	// The pruned probe is accounted as lost, and the outstanding gauge only
	// reflects live-view replicas from here on.
	snap := reg.Snapshot()
	if snap.Counter(metrics.ProbeLost) == 0 {
		t.Error("pruned probe not counted as lost")
	}
	if n := h.prober.Outstanding(); n > 1 {
		t.Errorf("Outstanding = %d after prune, want <= 1 (only r0 can be in flight)", n)
	}
}

// TestProbeSeqSpaceDisjoint fences the satellite audit: scheduler call
// sequence numbers count up from 0 and probe sequence numbers from
// probeSeqBase, so the two spaces cannot collide for any realistic volume.
func TestProbeSeqSpaceDisjoint(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: ms})
	h := f.handler(Config{
		Client: "seqspace", Service: "svc",
		QoS:           wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval: 5 * ms,
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return h.ProbesSent() > 0 },
		"at least one probe dispatched")

	// The scheduler's next sequence number is still tiny...
	d, err := h.sched.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	h.sched.Forget(d.Seq)
	if d.Seq >= probeSeqBase {
		t.Errorf("call seq %d reached the probe space (base %d)", d.Seq, probeSeqBase)
	}
	// ...while every probe sequence number sits at or above the base.
	h.prober.mu.Lock()
	next := h.prober.nextSeq
	sent := h.prober.sent
	h.prober.mu.Unlock()
	if next < probeSeqBase {
		t.Errorf("probe nextSeq %d below probeSeqBase %d", next, probeSeqBase)
	}
	if got := next - probeSeqBase; uint64(got) != sent {
		t.Errorf("probe seqs consumed = %d, probes sent = %d", got, sent)
	}
}

// TestProbeReplyCannotCompleteCall checks the other half of the collision
// defense: even if a probe reply carried a sequence number equal to a
// pending call's, the Probe flag demultiplexes it into the repository path
// before sequence matching, so it can never complete the call.
func TestProbeReplyCannotCompleteCall(t *testing.T) {
	f := newFixture(t, 1, nil)
	h := f.handler(Config{
		Client: "demux", Service: "svc",
		QoS:           wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval: time.Hour, // prober exists but never sweeps
	})
	d, err := h.sched.Schedule(time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.sched.Dispatched(d.Seq, time.Now()); err != nil {
		t.Fatal(err)
	}
	repo := h.sched.Repository()
	before := repo.UpdateCount("r0")

	// A probe reply forged with the pending call's sequence number.
	h.handleMessage(transport.Message{From: "r0", Payload: wire.Response{
		Client: "demux", Seq: d.Seq, Replica: "r0", Probe: true,
		Perf:   wire.PerfReport{ServiceTime: ms, QueueDelay: ms},
		SentAt: time.Now().Add(-5 * ms),
	}}, time.Now())

	if st := h.Stats(); st.Completed != 0 {
		t.Errorf("probe reply completed a call: %+v", st)
	}
	if repo.UpdateCount("r0") <= before {
		t.Error("probe reply did not refresh the repository")
	}

	// The genuine reply (Probe false) still completes the call.
	h.handleMessage(transport.Message{From: "r0", Payload: wire.Response{
		Client: "demux", Seq: d.Seq, Replica: "r0",
		Perf: wire.PerfReport{ServiceTime: ms, QueueDelay: ms},
	}}, time.Now())
	if st := h.Stats(); st.Completed != 1 {
		t.Errorf("real reply did not complete the call: %+v", st)
	}
}

// TestProbeGatewayDelayReachesMethodSnapshots is the regression test for the
// T-routing bug: probe replies carry no method, and the measured gateway
// delay used to be filed under a per-(replica, method:"") entry that no
// named method's snapshot ever read. The delay is per-link state now, so a
// probe-warmed T must appear in Snapshot("someMethod") and shift that
// method's F_Ri(t).
func TestProbeGatewayDelayReachesMethodSnapshots(t *testing.T) {
	// A symmetric 10ms injected link delay makes the probe's measured
	// two-way gateway delay ≈ 20ms — far above anything the in-memory
	// transport contributes on its own.
	inj := transport.NewInjector(1)
	inj.SetDefault(transport.FaultPolicy{Delay: stats.Constant{Delay: 10 * ms}})
	net := transport.NewFaulty(transport.NewInMem(), inj)
	t.Cleanup(func() { _ = net.Inner().(*transport.InMem).Close() })

	sep, err := net.Listen("r0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Start(sep, server.Config{
		ID: "r0", Service: "svc",
		Handler: func(string, []byte) ([]byte, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	cep, err := net.Listen("client:probe-t")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewTimingFaultHandler(cep, Config{
		Client: "probe-t", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		ProbeInterval:  10 * ms,
		StalenessBound: 20 * ms,
		StaticReplicas: map[wire.ReplicaID]transport.Addr{"r0": srv.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	// No real traffic at all: only probes feed the repository.
	repo := h.Scheduler().Repository()
	waitFor(t, 2*time.Second, func() bool {
		return repo.UpdateCount("r0") > 0
	}, "probe reply absorbed")

	snap, err := repo.SnapshotOne("r0", "someMethod")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.GatewayHist; len(got.Bins) != 1 || time.Duration(got.Bins[0])*ms < 10*ms {
		t.Fatalf("Snapshot(someMethod) T window = %+v, want the probe-measured ≈20ms link delay", got)
	}

	// The probe-measured T must shift the method's F_Ri(t): give the method
	// S/W history and compare against the same snapshot with T erased.
	repo.RecordPerf("r0", "someMethod", wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms}, time.Now())
	snap, err = repo.SnapshotOne("r0", "someMethod")
	if err != nil {
		t.Fatal(err)
	}
	pred := model.NewPredictor()
	withT, err := pred.Probability(snap, 15*ms)
	if err != nil {
		t.Fatal(err)
	}
	noT := snap
	noT.GatewayHist = repository.HistView{}
	withoutT, err := pred.Probability(noT, 15*ms)
	if err != nil {
		t.Fatal(err)
	}
	if !(withT < withoutT) {
		t.Errorf("F_Ri(15ms) with probe T = %v, without = %v; want the probe-measured delay to shift F right", withT, withoutT)
	}
}

// TestProbeReplyIsOneRepositoryMutation: a probe reply's S, W and T enter
// the repository together, so a concurrent snapshot never pairs one probe's
// service time with the previous probe's gateway delay. Every reply here has
// td equal to its service time, and the window holds one sample, so the S
// and T bins of any snapshot must match.
func TestProbeReplyIsOneRepositoryMutation(t *testing.T) {
	f := newFixture(t, 1, nil)
	h := f.handler(Config{
		Client: "probe-atomic", Service: "svc",
		QoS:           wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		WindowSize:    1,
		ProbeInterval: time.Hour, // prober exists but never sweeps
	})
	repo := h.Scheduler().Repository()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := repo.SnapshotShared("")[0]
			if !snap.HasHistory {
				continue
			}
			if sb, tb := snap.ServiceHist.Bins, snap.GatewayHist.Bins; len(tb) != 1 || sb[0] != tb[0] {
				t.Errorf("snapshot holds S bins %v beside T bins %v: half a probe reply", sb, tb)
				return
			}
		}
	}()
	t4 := time.Now()
	for i := 1; i <= 20000; i++ {
		ts := time.Duration(i) * ms
		h.prober.onProbeReply(wire.Response{
			Client: "probe-atomic", Replica: "r0", Probe: true,
			Perf:   wire.PerfReport{ServiceTime: ts, QueueDelay: ts},
			SentAt: t4.Add(-3 * ts),
		}, t4)
	}
	close(stop)
	<-done
}

// TestProberSuspectedLostProbeBacksOff is the regression fence for the
// age-out cadence bug: the in-flight guard used to expire unanswered probes
// at the full staleness bound even for Suspected replicas, so a dead suspect
// was re-probed (and a loss counted) at full cadence while the staleness
// check had backed off to suspectedProbeBackoff × bound. Both checks now
// share the per-health cadence.
func TestProberSuspectedLostProbeBacksOff(t *testing.T) {
	f := newFixture(t, 1, nil)
	// The replica is dark from the start: its probes are never answered, so
	// the only way a second probe goes out is the in-flight age-out.
	f.replicas["r0"].Stop()
	reg := metrics.NewRegistry()
	const bound = 60 * ms
	h := f.handler(Config{
		Client: "backoff", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval:  5 * ms,
		StalenessBound: bound,
		Metrics:        reg,
	})
	repo := h.Scheduler().Repository()
	repo.EnableLifecycle(0)
	if !repo.Suspect("r0") {
		t.Fatal("could not move r0 to Suspected")
	}
	waitFor(t, 2*time.Second, func() bool { return h.ProbesSent() >= 1 },
		"first probe to the suspected replica")
	start := time.Now()

	// Two full staleness bounds elapse — under the bug the unanswered probe
	// has aged out (a loss counted, a re-probe sent) by now; with the shared
	// cadence nothing may happen before suspectedProbeBackoff × bound.
	time.Sleep(2 * bound)
	if lost := reg.Snapshot().Counter(metrics.ProbeLost); lost != 0 {
		t.Fatalf("probe counted lost %v after send, before the suspected backoff (%v)",
			time.Since(start), suspectedProbeBackoff*bound)
	}
	if got := h.ProbesSent(); got != 1 {
		t.Fatalf("ProbesSent = %d before the suspected backoff, want 1", got)
	}

	// The loss is still detected — just on the backed-off cadence.
	waitFor(t, 2*time.Second, func() bool {
		return reg.Snapshot().Counter(metrics.ProbeLost) >= 1
	}, "lost probe aged out at the backed-off cadence")
}

// BenchmarkProberSweep fences the sweep's read path: freshness and health
// checks need no private history copies, so the sweep copies the
// repository's view into its own buffer and an idle sweep over a fresh
// repository stays allocation-free.
func BenchmarkProberSweep(b *testing.B) {
	net := transport.NewInMem()
	defer net.Close()
	// The replicas are never dialed: fresh history means the sweep only
	// reads, which is exactly the path being measured.
	static := make(map[wire.ReplicaID]transport.Addr, 32)
	for i := 0; i < 32; i++ {
		id := wire.ReplicaID(fmt.Sprintf("r%02d", i))
		static[id] = transport.Addr(id)
	}
	ep, err := net.Listen("client:bench")
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewTimingFaultHandler(ep, Config{
		Client: "bench", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		ProbeInterval:  time.Hour, // loop idles; sweep is driven by hand
		StalenessBound: time.Hour,
		StaticReplicas: static,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	repo := h.sched.Repository()
	now := time.Now()
	for id := range static {
		repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: ms, QueueDelay: ms}, now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.prober.sweep(now)
	}
}

// startCustomReplica starts a replica with a bespoke handler on ep.
func startCustomReplica(t *testing.T, ep transport.Endpoint, h server.Handler) *server.Replica {
	t.Helper()
	srv, err := server.Start(ep, server.Config{
		ID: wire.ReplicaID(ep.Addr()), Service: "probe-svc", Handler: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}
