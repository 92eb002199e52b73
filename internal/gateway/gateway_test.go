package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

const ms = time.Millisecond

// fixture is a running in-memory cluster plus helpers.
type fixture struct {
	t        *testing.T
	net      *transport.InMem
	replicas map[wire.ReplicaID]*server.Replica
}

func newFixture(t *testing.T, n int, load stats.DelayDist) *fixture {
	t.Helper()
	f := &fixture{
		t:        t,
		net:      transport.NewInMem(),
		replicas: make(map[wire.ReplicaID]*server.Replica),
	}
	t.Cleanup(func() { _ = f.net.Close() })
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(fmt.Sprintf("r%d", i))
		ep, err := f.net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID:      id,
			Service: "svc",
			Handler: func(method string, payload []byte) ([]byte, error) {
				return append([]byte(string(id)+":"), payload...), nil
			},
			LoadDelay: load,
			Seed:      int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		f.replicas[id] = srv
	}
	return f
}

func (f *fixture) static() map[wire.ReplicaID]transport.Addr {
	m := make(map[wire.ReplicaID]transport.Addr, len(f.replicas))
	for id, r := range f.replicas {
		m[id] = r.Addr()
	}
	return m
}

func (f *fixture) handler(cfg Config) *TimingFaultHandler {
	f.t.Helper()
	ep, err := f.net.Listen(transport.Addr("client:" + string(cfg.Client)))
	if err != nil {
		f.t.Fatal(err)
	}
	if cfg.StaticReplicas == nil && cfg.Group == nil {
		cfg.StaticReplicas = f.static()
	}
	h, err := NewTimingFaultHandler(ep, cfg)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(h.Close)
	return h
}

func TestHandlerValidation(t *testing.T) {
	f := newFixture(t, 1, nil)
	ep, _ := f.net.Listen("v1")
	if _, err := NewTimingFaultHandler(ep, Config{
		Service: "svc", QoS: wire.QoS{Deadline: time.Second},
		StaticReplicas: f.static(),
	}); err == nil {
		t.Error("want error for missing client ID")
	}
	ep2, _ := f.net.Listen("v2")
	if _, err := NewTimingFaultHandler(ep2, Config{
		Client: "c", Service: "svc", QoS: wire.QoS{Deadline: time.Second},
	}); err == nil {
		t.Error("want error for neither group nor static replicas")
	}
}

func TestCallDeliversEarliestReply(t *testing.T) {
	f := newFixture(t, 3, nil)
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	out, err := h.Call(context.Background(), "m", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty reply")
	}
	st := h.Stats()
	if st.Requests != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFirstRequestGoesToAllReplicas(t *testing.T) {
	f := newFixture(t, 4, nil)
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 500 * ms, MinProbability: 0},
	})
	if _, err := h.Call(context.Background(), "", nil); err != nil {
		t.Fatal(err)
	}
	// Cold start: the paper's rule selects every replica so they all
	// publish initial performance data.
	waitFor(t, time.Second, func() bool {
		total := uint64(0)
		for _, r := range f.replicas {
			total += r.Served()
		}
		return total == 4
	}, "all replicas served the bootstrap request")
}

func TestSteadyStateUsesSubset(t *testing.T) {
	f := newFixture(t, 5, stats.Constant{Delay: 5 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0.5},
	})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	// First request: 5 replicas. Subsequent: the deadline is generous, so
	// Algorithm 1's floor of 2 applies.
	if got := st.MeanRedundancy(); got > 3 {
		t.Errorf("mean redundancy %v, want close to 2 after warmup", got)
	}
	if st.Duplicates == 0 {
		t.Error("no duplicate replies harvested despite redundancy >= 2")
	}
}

func TestTimingFailureAndViolationCallback(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: 60 * ms})
	var mu sync.Mutex
	var reports []core.ViolationReport
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 20 * ms, MinProbability: 0.9}, // infeasible
		OnViolation: func(v core.ViolationReport) {
			mu.Lock()
			reports = append(reports, v)
			mu.Unlock()
		},
	})
	ctx := context.Background()
	for i := 0; i < core.DefaultMinSamplesForViolation+2; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.TimingFailures == 0 {
		t.Fatal("no timing failures with a 20ms deadline and 60ms servers")
	}
	mu.Lock()
	n := len(reports)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("violation callback fired %d times, want exactly 1", n)
	}
}

func TestLateReplyStillDelivered(t *testing.T) {
	f := newFixture(t, 1, stats.Constant{Delay: 80 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 30 * ms, MinProbability: 0},
	})
	start := time.Now()
	out, err := h.Call(context.Background(), "", []byte("x"))
	if err != nil {
		t.Fatalf("late reply not delivered: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty reply")
	}
	if elapsed := time.Since(start); elapsed < 70*ms {
		t.Errorf("returned after %v, want to wait for the late reply", elapsed)
	}
	st := h.Stats()
	if st.TimingFailures != 1 {
		t.Errorf("TimingFailures = %d, want 1", st.TimingFailures)
	}
}

func TestCrashedReplicaAbsorbedByRedundancy(t *testing.T) {
	f := newFixture(t, 3, stats.Constant{Delay: 10 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0.9},
	})
	ctx := context.Background()
	// Warm up so histories exist.
	for i := 0; i < 3; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Crash one replica abruptly — no membership notification at all. The
	// remaining members of every selected subset still answer.
	f.replicas["r0"].Stop()
	for i := 0; i < 3; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatalf("call after crash: %v", err)
		}
	}
}

func TestUpdateMembershipPrunesCrashed(t *testing.T) {
	f := newFixture(t, 3, nil)
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0},
	})
	ctx := context.Background()
	if _, err := h.Call(ctx, "", nil); err != nil {
		t.Fatal(err)
	}
	// Remove r0 from membership (as a view change would).
	m := f.static()
	delete(m, "r0")
	h.UpdateMembership(m)
	// The cold-start call above went to every replica and returned on the
	// first reply; let r0 finish its copy before taking the baseline.
	waitFor(t, 2*time.Second, func() bool { return f.replicas["r0"].Served() >= 1 }, "r0 to serve the cold-start request")
	served0 := f.replicas["r0"].Served()
	for i := 0; i < 5; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.replicas["r0"].Served(); got != served0 {
		t.Errorf("pruned replica served %d more requests", got-served0)
	}
}

func TestPerfUpdatesFlowToOtherClients(t *testing.T) {
	f := newFixture(t, 2, nil)
	h1 := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0},
	})
	h2 := f.handler(Config{
		Client: "c2", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0},
	})
	// c1 does the work; c2 subscribed at construction and must absorb the
	// published updates into its repository without issuing any request.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := h1.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool {
		for _, id := range []wire.ReplicaID{"r0", "r1"} {
			if h2.Scheduler().Repository().UpdateCount(id) == 0 {
				return false
			}
		}
		return true
	}, "c2's repository populated via pushed PerfUpdates")
}

func TestCanceledContext(t *testing.T) {
	f := newFixture(t, 1, stats.Constant{Delay: 200 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*ms)
	defer cancel()
	if _, err := h.Call(ctx, "", nil); err == nil {
		t.Fatal("want error for canceled context")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestMaxWaitGivesUp(t *testing.T) {
	// One replica that never answers (stopped before the call).
	f := newFixture(t, 1, nil)
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:     wire.QoS{Deadline: 30 * ms, MinProbability: 0},
		MaxWait: 80 * ms,
	})
	f.replicas["r0"].Stop()
	start := time.Now()
	_, err := h.Call(context.Background(), "", nil)
	if err == nil {
		t.Fatal("want error when no replica can answer")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("gave up after %v, want ~MaxWait", elapsed)
	}
	st := h.Stats()
	if st.DeadlineExpiries != 1 {
		t.Errorf("DeadlineExpiries = %d, want 1", st.DeadlineExpiries)
	}
}

func TestRenegotiateChangesBehaviour(t *testing.T) {
	f := newFixture(t, 3, stats.Constant{Delay: 30 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 10 * ms, MinProbability: 0}, // everything late
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	failuresBefore := h.Stats().TimingFailures
	if failuresBefore == 0 {
		t.Fatal("expected failures before renegotiation")
	}
	if err := h.Renegotiate(wire.QoS{Deadline: 300 * ms, MinProbability: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().TimingFailures; got != failuresBefore {
		t.Errorf("failures kept accruing after renegotiation: %d -> %d", failuresBefore, got)
	}
}

func TestActiveHandlerSendsToAll(t *testing.T) {
	f := newFixture(t, 3, nil)
	ep, _ := f.net.Listen("client:active")
	h, err := NewActiveHandler(ep, Config{
		Client: "active", Service: "svc",
		QoS:            wire.QoS{Deadline: 400 * ms, MinProbability: 0},
		StaticReplicas: f.static(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every replica must (eventually — replies are concurrent) serve every
	// request.
	waitFor(t, time.Second, func() bool {
		for _, r := range f.replicas {
			if r.Served() != 3 {
				return false
			}
		}
		return true
	}, "every replica served all 3 requests (active replication)")
}

func TestGroupDiscoveredMembership(t *testing.T) {
	// Full integration: replicas heartbeat through the group layer, the
	// handler discovers them with no static table, and a crash is pruned.
	net := transport.NewInMem()
	t.Cleanup(func() { _ = net.Close() })
	gcfg := &group.Config{
		HeartbeatInterval: 5 * ms,
		FailureTimeout:    40 * ms,
	}
	var srvs []*server.Replica
	for i := 0; i < 3; i++ {
		id := wire.ReplicaID(fmt.Sprintf("g%d", i))
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		g := *gcfg
		g.Seeds = []transport.Addr{"client:disco", "g0", "g1", "g2"}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler: func(string, []byte) ([]byte, error) { return []byte("ok"), nil },
			Group:   &g,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		srvs = append(srvs, srv)
	}
	ep, err := net.Listen("client:disco")
	if err != nil {
		t.Fatal(err)
	}
	g := *gcfg
	h, err := NewTimingFaultHandler(ep, Config{
		Client: "disco", Service: "svc",
		QoS:   wire.QoS{Deadline: 400 * ms, MinProbability: 0.5},
		Group: &g,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	waitFor(t, 2*time.Second, func() bool {
		return h.Scheduler().Repository().Len() == 3
	}, "handler discovered all three replicas via heartbeats")

	if _, err := h.Call(context.Background(), "", nil); err != nil {
		t.Fatal(err)
	}

	// Crash g0; the failure detector must prune it.
	srvs[0].Stop()
	waitFor(t, 2*time.Second, func() bool {
		return h.Scheduler().Repository().Len() == 2
	}, "crashed replica pruned from the repository")

	if _, err := h.Call(context.Background(), "", nil); err != nil {
		t.Fatalf("call after crash: %v", err)
	}
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * ms)
	}
	t.Fatalf("timed out waiting for: %s", what)
}

func TestPerMethodHistoriesDriveSelection(t *testing.T) {
	// The §8 multi-interface extension: performance data is classified per
	// method, so a slow method needs more redundancy than a fast one at the
	// same deadline.
	net := transport.NewInMem()
	t.Cleanup(func() { _ = net.Close() })
	replicas := make(map[wire.ReplicaID]transport.Addr)
	for i := 0; i < 4; i++ {
		id := wire.ReplicaID(fmt.Sprintf("pm%d", i))
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler: func(method string, payload []byte) ([]byte, error) {
				if method == "slow" {
					time.Sleep(60 * ms)
				}
				return []byte(method), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		replicas[id] = srv.Addr()
	}
	ep, err := net.Listen("client:pm")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewTimingFaultHandler(ep, Config{
		Client: "pm", Service: "svc",
		QoS:            wire.QoS{Deadline: 40 * ms, MinProbability: 0.5},
		StaticReplicas: replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := h.Call(ctx, "fast", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Call(ctx, "slow", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Histories are classified per method.
	repo := h.Scheduler().Repository()
	for id := range replicas {
		fast, err := repo.SnapshotOne(id, "fast")
		if err != nil {
			t.Fatal(err)
		}
		slow, err := repo.SnapshotOne(id, "slow")
		if err != nil {
			t.Fatal(err)
		}
		if !fast.HasHistory || !slow.HasHistory {
			continue // this replica may not have been selected for both yet
		}
		for _, b := range fast.ServiceHist.Bins {
			if s := time.Duration(b) * ms; s > 30*ms {
				t.Errorf("fast history of %s contains %v", id, s)
			}
		}
		for _, b := range slow.ServiceHist.Bins {
			if s := time.Duration(b) * ms; s < 40*ms {
				t.Errorf("slow history of %s contains %v", id, s)
			}
		}
	}

	// The selection decisions must differ: "fast" satisfies the 40ms
	// deadline with the 2-replica floor; "slow" (~60ms >> 40ms) cannot, so
	// Algorithm 1 falls back to all replicas with history.
	dFast, err := h.Scheduler().Schedule(time.Now(), "fast")
	if err != nil {
		t.Fatal(err)
	}
	h.Scheduler().Forget(dFast.Seq)
	dSlow, err := h.Scheduler().Schedule(time.Now(), "slow")
	if err != nil {
		t.Fatal(err)
	}
	h.Scheduler().Forget(dSlow.Seq)
	if !dSlow.UsedAll {
		t.Errorf("slow method selection = %v (usedAll=%v), want fallback to all", dSlow.Targets, dSlow.UsedAll)
	}
	if len(dFast.Targets) >= len(dSlow.Targets) {
		t.Errorf("fast selected %d >= slow %d; per-method histories not driving selection",
			len(dFast.Targets), len(dSlow.Targets))
	}
}

func TestTraceRecordsRealGateway(t *testing.T) {
	rec := trace.New()
	f := newFixture(t, 3, stats.Constant{Delay: 5 * ms})
	h := f.handler(Config{
		Client: "traced", Service: "svc",
		QoS:   wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
		Trace: rec,
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	sum := rec.Summarize()
	if sum.Requests != 4 {
		t.Errorf("trace requests = %d, want 4", sum.Requests)
	}
	if sum.Replies < 4 {
		t.Errorf("trace replies = %d, want >= 4", sum.Replies)
	}
	// Schedule events carry the selected targets.
	for _, e := range rec.Filter(trace.KindSchedule) {
		if len(e.Targets) == 0 {
			t.Error("schedule event without targets")
		}
	}
}

func TestGatewayOverLossyNetwork(t *testing.T) {
	// 20% message loss: redundancy must still deliver most requests, and
	// lost requests must resolve via deadline expiry rather than wedging.
	net := transport.NewInMem(transport.WithLinkPolicy(transport.LinkPolicy{LossProb: 0.2}, 5))
	t.Cleanup(func() { _ = net.Close() })
	replicas := make(map[wire.ReplicaID]transport.Addr)
	for i := 0; i < 5; i++ {
		id := wire.ReplicaID(fmt.Sprintf("lossy%d", i))
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc",
			Handler: func(string, []byte) ([]byte, error) { return []byte("ok"), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		replicas[id] = srv.Addr()
	}
	ep, err := net.Listen("client:lossy")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewTimingFaultHandler(ep, Config{
		Client: "lossy", Service: "svc",
		QoS:            wire.QoS{Deadline: 100 * ms, MinProbability: 0.5},
		StaticReplicas: replicas,
		MaxWait:        150 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)

	ctx := context.Background()
	succeeded := 0
	for i := 0; i < 20; i++ {
		if _, err := h.Call(ctx, "", nil); err == nil {
			succeeded++
		}
	}
	// With >= 2 replicas per request at 20% loss, the both-paths-lost
	// probability per replica is ~0.36; across 2+ replicas < 0.13, so the
	// vast majority of calls must succeed.
	if succeeded < 14 {
		t.Errorf("only %d/20 calls succeeded under 20%% loss", succeeded)
	}
	if h.Stats().Completed != 20 {
		t.Errorf("Completed = %d, want 20 (no wedged requests)", h.Stats().Completed)
	}
}

func TestConcurrentCallsOnOneHandler(t *testing.T) {
	// The paper's handler serializes one client's requests, but the Go API
	// allows concurrent Calls; the waiter table must route each reply to
	// its own caller.
	f := newFixture(t, 4, stats.Constant{Delay: 8 * ms})
	h := f.handler(Config{
		Client: "conc", Service: "svc",
		QoS: wire.QoS{Deadline: 400 * ms, MinProbability: 0.5},
	})
	ctx := context.Background()
	const callers, perCaller = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perCaller; j++ {
				payload := []byte(fmt.Sprintf("%d-%d", i, j))
				out, err := h.Call(ctx, "", payload)
				if err != nil {
					errs <- err
					return
				}
				// Echo handler prefixes the replica ID; the payload tail
				// must be ours, proving no cross-delivery.
				if got := string(out); len(got) < len(payload) || got[len(got)-len(payload):] != string(payload) {
					errs <- fmt.Errorf("reply %q does not match request %q", got, payload)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Requests != callers*perCaller {
		t.Errorf("Requests = %d, want %d", st.Requests, callers*perCaller)
	}
}

// With ShedRetryDelay < 0 the bounded retry is disabled: a call refused by
// admission control surfaces ErrOverloaded directly to the caller.
func TestCallShedWithoutRetrySurfacesErrOverloaded(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: 80 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:            wire.QoS{Deadline: 400 * ms, MinProbability: 0.9},
		Overload:       core.OverloadConfig{MaxInFlight: 1},
		ShedRetryDelay: -1,
	})
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := h.Call(ctx, "", []byte("first"))
		done <- err
	}()
	time.Sleep(30 * ms) // first call is in flight, holding the only slot

	_, err := h.Call(ctx, "", []byte("second"))
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("second call: err = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first call: %v", err)
	}
	if st := h.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
}

// With a retry delay long enough for the backlog to drain, a shed call is
// retried once and succeeds instead of surfacing ErrOverloaded.
func TestCallRetriesOnceAfterShed(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: 80 * ms})
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS:            wire.QoS{Deadline: 400 * ms, MinProbability: 0.9},
		Overload:       core.OverloadConfig{MaxInFlight: 1},
		ShedRetryDelay: 150 * ms, // first call completes in ~80ms
	})
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := h.Call(ctx, "", []byte("first"))
		done <- err
	}()
	time.Sleep(30 * ms)

	out, err := h.Call(ctx, "", []byte("second"))
	if err != nil {
		t.Fatalf("second call should succeed after retry, got %v", err)
	}
	if len(out) == 0 {
		t.Fatal("second call returned empty payload")
	}
	if err := <-done; err != nil {
		t.Fatalf("first call: %v", err)
	}
	st := h.Stats()
	if st.Shed != 1 {
		t.Errorf("Shed = %d, want 1 (the refused first attempt)", st.Shed)
	}
	if st.Completed < 2 {
		t.Errorf("Completed = %d, want >= 2", st.Completed)
	}
}

// TestReplyCannotBeatDispatched is the regression test for the dispatch
// race: with a single zero-service replica, the reply settles the request and
// drops its pending entry almost as soon as the frame is sent, so t1 must be
// recorded before the send. Recorded after it, a few of these calls fail with
// "core: dispatched unknown request" (most readily under -race).
func TestReplyCannotBeatDispatched(t *testing.T) {
	f := newFixture(t, 1, nil)
	h := f.handler(Config{
		Client: "c1", Service: "svc",
		QoS: wire.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	for i := 0; i < 3000; i++ {
		if _, err := h.Call(context.Background(), "m", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}
