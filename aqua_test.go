package aqua_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"aqua"
	"aqua/internal/proteus"
	"aqua/internal/stats"
	"aqua/internal/transport"
)

const ms = time.Millisecond

func echo(method string, payload []byte) ([]byte, error) {
	return append([]byte(method+":"), payload...), nil
}

func newTestCluster(t *testing.T, n int, opts ...aqua.ClusterOption) *aqua.Cluster {
	t.Helper()
	c, err := aqua.NewCluster("svc", n, echo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := aqua.NewCluster("", 1, echo); err == nil {
		t.Error("want error for empty service")
	}
	if _, err := aqua.NewCluster("svc", 0, echo); err == nil {
		t.Error("want error for zero replicas")
	}
	if _, err := aqua.NewCluster("svc", 1, nil); err == nil {
		t.Error("want error for nil handler")
	}
}

func TestClusterCallRoundTrip(t *testing.T) {
	c := newTestCluster(t, 3)
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "t1",
		QoS:  aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := client.Call(context.Background(), "hello", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(out), "world") {
		t.Errorf("reply = %q", out)
	}
}

// TestCancelAndAdaptiveBudgetThroughPublicAPI exercises the facade wiring:
// AdaptiveBudget on ClientConfig must reach the handler (controller stats
// become visible, calls still round-trip) beside the CancelOnFirstReply field
// that is now ignored, and AdaptiveBudget alone must default the strategy to
// BudgetedSelection.
func TestCancelAndAdaptiveBudgetThroughPublicAPI(t *testing.T) {
	c := newTestCluster(t, 3, aqua.WithSimulatedLoad(5*ms, 1*ms), aqua.WithSeed(7))
	client, err := c.NewClient(aqua.ClientConfig{
		Name:               "cancel",
		QoS:                aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
		CancelOnFirstReply: true,
		AdaptiveBudget:     &aqua.AdaptiveBudgetConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	cs, ok := client.ControllerStats()
	if !ok {
		t.Fatal("controller stats not exposed despite AdaptiveBudget")
	}
	if cs.Selected == 0 {
		t.Error("controller saw no dispatches — not wired into the scheduler")
	}
	if cs.Budget < 2 || cs.Budget > 3 {
		t.Errorf("budget %d escaped [2, pool=3]", cs.Budget)
	}

	plain, err := c.NewClient(aqua.ClientConfig{
		Name: "plain",
		QoS:  aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, ok := plain.ControllerStats(); ok {
		t.Error("controller stats reported without AdaptiveBudget")
	}
}

func TestClusterQoSInvalid(t *testing.T) {
	c := newTestCluster(t, 1)
	if _, err := c.NewClient(aqua.ClientConfig{Name: "bad", QoS: aqua.QoS{Deadline: -1}}); err == nil {
		t.Error("want error for invalid QoS")
	}
}

func TestReplicaCrashToleratedAndPruned(t *testing.T) {
	c := newTestCluster(t, 4, aqua.WithSimulatedLoad(10*ms, 2*ms), aqua.WithSeed(2))
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "t2",
		QoS:  aqua.QoS{Deadline: 300 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Replicas()[0]
	if err := c.StopReplica(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if err := c.StopReplica(victim.ID()); err == nil {
		t.Error("want error stopping an already-stopped replica")
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatalf("call after crash: %v", err)
		}
	}
	if got := len(c.Replicas()); got != 3 {
		t.Errorf("Replicas() = %d, want 3", got)
	}
}

func TestViolationCallbackThroughPublicAPI(t *testing.T) {
	c := newTestCluster(t, 2, aqua.WithSimulatedLoad(50*ms, 5*ms), aqua.WithSeed(3))
	var mu sync.Mutex
	var got []aqua.ViolationReport
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "t4",
		QoS:  aqua.QoS{Deadline: 10 * ms, MinProbability: 0.9},
		// Generous reply window: the 10ms deadline is intentionally
		// infeasible, but a loaded CI machine must not turn slow replies
		// into transport errors.
		MaxWait: 5 * time.Second,
		OnViolation: func(v aqua.ViolationReport) {
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("violations = %d, want 1", len(got))
	}
	if got[0].RequiredTimely != 0.9 {
		t.Errorf("report = %+v", got[0])
	}
}

func TestRenegotiateThroughPublicAPI(t *testing.T) {
	c := newTestCluster(t, 3, aqua.WithSimulatedLoad(30*ms, 5*ms), aqua.WithSeed(4))
	client, err := c.NewClient(aqua.ClientConfig{
		Name:    "t5",
		QoS:     aqua.QoS{Deadline: 5 * ms, MinProbability: 0},
		MaxWait: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	before := client.Stats().TimingFailures
	if before == 0 {
		t.Fatal("want failures before renegotiation")
	}
	if err := client.Renegotiate(aqua.QoS{Deadline: 400 * ms, MinProbability: 0.9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := client.Stats().TimingFailures; got != before {
		t.Errorf("failures after renegotiation: %d -> %d", before, got)
	}
}

func TestStrategiesExposed(t *testing.T) {
	names := map[string]aqua.Strategy{
		"dynamic":     aqua.DynamicSelection(),
		"dynamic-f2":  aqua.DynamicSelectionMulti(2),
		"single-best": aqua.SingleBestSelection(),
		"all":         aqua.AllSelection(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestTCPCluster(t *testing.T) {
	c := newTestCluster(t, 2, aqua.WithTCP())
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "t6",
		QoS:  aqua.QoS{Deadline: time.Second, MinProbability: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := client.Call(context.Background(), "m", []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(out), "tcp") {
		t.Errorf("reply = %q", out)
	}
	for _, r := range c.Replicas() {
		if !strings.Contains(r.Addr(), ":") {
			t.Errorf("replica addr %q does not look like host:port", r.Addr())
		}
	}
}

func TestCustomLoadDistribution(t *testing.T) {
	c := newTestCluster(t, 2, aqua.WithLoadDistribution(stats.Constant{Delay: 30 * ms}))
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "t7",
		QoS:  aqua.QoS{Deadline: 500 * ms, MinProbability: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Call(context.Background(), "", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*ms {
		t.Errorf("call returned in %v, want >= ~30ms with constant load", elapsed)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newTestCluster(t, 5, aqua.WithSimulatedLoad(5*ms, ms), aqua.WithSeed(6))
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := c.NewClient(aqua.ClientConfig{
				Name: fmt.Sprintf("cc-%d", i),
				QoS:  aqua.QoS{Deadline: 300 * ms, MinProbability: 0.5},
			})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			ctx := context.Background()
			for j := 0; j < 10; j++ {
				if _, err := client.Call(ctx, "", nil); err != nil {
					errs <- err
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
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := newTestCluster(t, 1)
	c.Close()
	c.Close()
	if _, err := c.AddReplica(); err == nil {
		t.Error("want error adding replica to closed cluster")
	}
}

func TestSelfHealingReplacesCrashedReplica(t *testing.T) {
	c := newTestCluster(t, 3, aqua.WithSelfHealing(), aqua.WithSimulatedLoad(5*ms, ms))
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "heal",
		QoS:  aqua.QoS{Deadline: 300 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	if _, err := client.Call(ctx, "", nil); err != nil {
		t.Fatal(err)
	}
	victim := c.Replicas()[0]
	if err := c.StopReplica(victim.ID()); err != nil {
		t.Fatal(err)
	}
	// The dependability manager must bring the pool back to 3.
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Replicas()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * ms)
	}
	if got := len(c.Replicas()); got != 3 {
		t.Fatalf("pool = %d replicas after crash, want restored to 3", got)
	}
	if c.Manager() == nil {
		t.Fatal("Manager() = nil with self-healing on")
	}
	if c.Manager().StartedCount() == 0 {
		t.Error("manager started no replicas")
	}
	// The pool must not over-provision.
	time.Sleep(100 * ms)
	if got := len(c.Replicas()); got != 3 {
		t.Errorf("pool drifted to %d replicas", got)
	}
	// Calls keep working against the healed pool.
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatalf("call after heal: %v", err)
		}
	}
}

func TestSelfHealingOffByDefault(t *testing.T) {
	c := newTestCluster(t, 2)
	if c.Manager() != nil {
		t.Error("manager exists without WithSelfHealing")
	}
	victim := c.Replicas()[0]
	if err := c.StopReplica(victim.ID()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * ms)
	if got := len(c.Replicas()); got != 1 {
		t.Errorf("pool = %d, want 1 (no healing)", got)
	}
}

func TestLifecycleQuarantineTriggersReplacement(t *testing.T) {
	// Close the §5.4 loop through the public API: a replica made persistently
	// late by a link fault is suspected, quarantined, retired by the
	// dependability manager, and replaced by a fresh replica.
	inj := aqua.NewFaultInjector(11)
	var (
		mu      sync.Mutex
		reports []aqua.SuspectReport
	)
	c := newTestCluster(t, 4,
		aqua.WithSimulatedLoad(5*ms, ms),
		aqua.WithSelfHealing(),
		aqua.WithFaultInjection(inj),
		aqua.WithSeed(11),
		aqua.WithLifecycle(aqua.LifecycleConfig{
			WindowSize:      8,
			MinObservations: 4,
			OnSuspect: func(r aqua.SuspectReport) {
				mu.Lock()
				reports = append(reports, r)
				mu.Unlock()
			},
		}),
	)
	victim := c.Replicas()[0]
	inj.SetLink(aqua.AnyAddr, transport.Addr(victim.Addr()), aqua.FaultPolicy{
		Delay: stats.Constant{Delay: 250 * ms},
	})

	client, err := c.NewClient(aqua.ClientConfig{
		Name: "lc",
		QoS:  aqua.QoS{Deadline: 60 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	quarantined := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range reports {
			if r.Replica == victim.ID() && r.To == aqua.HealthQuarantined {
				return true
			}
		}
		return false
	}
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for !quarantined() && time.Now().Before(deadline) {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	if !quarantined() {
		t.Fatal("slow replica was never quarantined")
	}

	// The manager must retire the quarantined replica and restore the pool
	// with a fresh one (bounded by the restart-storm window).
	healthy := func() bool {
		reps := c.Replicas()
		if len(reps) != 4 {
			return false
		}
		for _, r := range reps {
			if r.ID() == victim.ID() {
				return false
			}
		}
		return true
	}
	healDeadline := time.Now().Add(proteus.DefaultRestartWindow + 2*time.Second)
	for !healthy() && time.Now().Before(healDeadline) {
		time.Sleep(5 * ms)
	}
	if !healthy() {
		t.Fatalf("pool not healed: %d replicas, victim retired = %v",
			len(c.Replicas()), !func() bool {
				for _, r := range c.Replicas() {
					if r.ID() == victim.ID() {
						return true
					}
				}
				return false
			}())
	}
	if c.Manager().StartedCount() == 0 {
		t.Error("manager started no replacement")
	}
	// Calls keep meeting the deadline against the healed pool.
	for i := 0; i < 5; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatalf("call after heal: %v", err)
		}
	}
}

// TestGatewayHandlerHonoursProbeIntervalAndMaxWait is the regression fence
// for NewGateway's drifted copy of the ClientConfig translation, which dropped
// ProbeInterval and MaxWait: a handler loaded through NewGateway must probe
// idle replicas and give up on a silent one at MaxWait, exactly as a
// NewClient handler given the same ClientConfig does.
func TestGatewayHandlerHonoursProbeIntervalAndMaxWait(t *testing.T) {
	reg := aqua.NewMetricsRegistry()
	stall := make(chan struct{})
	c, err := aqua.NewCluster("stalled", 2, func(string, []byte) ([]byte, error) {
		<-stall
		return nil, nil
	}, aqua.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(func() { close(stall) })

	g, err := aqua.NewGateway("prober", map[*aqua.Cluster]aqua.ClientConfig{c: {
		QoS:           aqua.QoS{Deadline: 2 * time.Second, MinProbability: 0.9},
		ProbeInterval: 5 * ms,
		MaxWait:       100 * ms,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	deadline := time.Now().Add(2 * time.Second)
	for c.Metrics().Counter("aqua_probe_sent_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway handler sent no probe in 2s with ProbeInterval = 5ms")
		}
		time.Sleep(5 * ms)
	}

	// The default give-up is 10 deadlines (20s); MaxWait must cut it to 100ms.
	start := time.Now()
	if _, err := g.Call(context.Background(), "stalled", "m", nil); err == nil {
		t.Fatal("call to a stalled service returned no error")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("call gave up after %v, want about MaxWait = 100ms", waited)
	}
}

func TestGatewayMultiService(t *testing.T) {
	// Two services on one shared in-memory network; one Gateway carries a
	// handler (and QoS contract) for each.
	fast, err := aqua.NewCluster("fastsvc", 3, echo,
		aqua.WithSimulatedLoad(10*ms, 3*ms))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fast.Close)
	// The slow service shares fast's network so one gateway can front both.
	slow, err := aqua.NewCluster("slowsvc", 3, echo,
		aqua.WithSimulatedLoad(60*ms, 10*ms),
		aqua.WithSharedNetwork(fast))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)

	// A cluster on a truly separate network is rejected.
	other, err := aqua.NewCluster("othersvc", 1, echo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	if _, err := aqua.NewGateway("mixed", map[*aqua.Cluster]aqua.ClientConfig{
		fast:  {QoS: aqua.QoS{Deadline: 50 * ms, MinProbability: 0.9}},
		other: {QoS: aqua.QoS{Deadline: 200 * ms, MinProbability: 0.9}},
	}); err == nil {
		t.Fatal("want error for clusters on different networks")
	}

	g, err := aqua.NewGateway("duo", map[*aqua.Cluster]aqua.ClientConfig{
		fast: {QoS: aqua.QoS{Deadline: 100 * ms, MinProbability: 0.9}},
		slow: {QoS: aqua.QoS{Deadline: 250 * ms, MinProbability: 0.8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := g.Call(ctx, "fastsvc", "m", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Call(ctx, "slowsvc", "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := g.Stats("fastsvc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 5 {
		t.Errorf("fastsvc Requests = %d, want 5", st.Requests)
	}
	st, err = g.Stats("slowsvc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 5 {
		t.Errorf("slowsvc Requests = %d, want 5", st.Requests)
	}
	if _, err := g.Stats("nope"); err == nil {
		t.Error("want error for unknown service")
	}
	if err := g.Renegotiate("fastsvc", aqua.QoS{Deadline: 200 * ms, MinProbability: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := g.Renegotiate("nope", aqua.QoS{Deadline: ms}); err == nil {
		t.Error("want error renegotiating unknown service")
	}
	if _, err := g.Call(ctx, "nope", "m", nil); err == nil {
		t.Error("want error calling unknown service")
	}
}

func TestGatewayTracksViewChanges(t *testing.T) {
	// Regression: gateway handlers must be registered for membership updates.
	// Before the fix they kept the static replica snapshot forever, so a
	// stopped replica stayed in the selection pool and a newcomer was never
	// considered.
	c := newTestCluster(t, 2, aqua.WithSimulatedLoad(5*ms, ms))
	g, err := aqua.NewGateway("vc", map[*aqua.Cluster]aqua.ClientConfig{
		c: {
			QoS:      aqua.QoS{Deadline: 300 * ms, MinProbability: 0.9},
			Strategy: aqua.AllSelection(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	call := func() {
		t.Helper()
		if _, err := g.Call(ctx, "svc", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	st0, err := g.Stats("svc")
	if err != nil {
		t.Fatal(err)
	}
	if st0.SelectedTotal != 2 {
		t.Fatalf("SelectedTotal = %d after one all-replica call, want 2", st0.SelectedTotal)
	}
	// Crash one replica: with the All strategy, each call now selects exactly
	// the one survivor — if the stopped replica were still in the gateway's
	// view it would keep being selected.
	if err := c.StopReplica(c.Replicas()[0].ID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		call()
	}
	st1, err := g.Stats("svc")
	if err != nil {
		t.Fatal(err)
	}
	if got := st1.SelectedTotal - st0.SelectedTotal; got != 3 {
		t.Errorf("gateway selected %d replica slots over 3 calls after the crash, want 3 (stopped replica still in view)", got)
	}
	// The reverse direction: a newcomer must become visible too.
	if _, err := c.AddReplica(); err != nil {
		t.Fatal(err)
	}
	call()
	st2, err := g.Stats("svc")
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.SelectedTotal - st1.SelectedTotal; got != 2 {
		t.Errorf("gateway selected %d replica slots after the join, want 2 (newcomer invisible)", got)
	}
}

func TestAddReplicaCloseRaceLeavesNoOrphans(t *testing.T) {
	// Regression: AddReplica drops the cluster lock to start the server. If
	// Close runs in that window, the new replica must be stopped and must not
	// be re-inserted into the membership table Close already emptied.
	for i := 0; i < 20; i++ {
		c, err := aqua.NewCluster("race", 1, echo)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				if _, err := c.AddReplica(); err != nil {
					return // cluster closed underneath us: expected
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			c.Close()
		}()
		close(start)
		wg.Wait()
		if got := len(c.Replicas()); got != 0 {
			t.Fatalf("iteration %d: %d replicas survive Close", i, got)
		}
	}
}

func TestPartitionedReplicaDoesNotBlockCalls(t *testing.T) {
	// Acceptance: one blackholed replica — alive but unreachable, the worst
	// case for a synchronous transport — must not push end-to-end calls past
	// their deadline. Runs over real TCP sockets with the fault injector
	// supplying the blackhole.
	inj := aqua.NewFaultInjector(1)
	c := newTestCluster(t, 3,
		aqua.WithTCP(),
		aqua.WithFaultInjection(inj),
		aqua.WithSimulatedLoad(5*ms, ms),
		aqua.WithSeed(9))
	if c.FaultInjector() != inj {
		t.Fatal("FaultInjector() does not return the attached injector")
	}
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "blackhole",
		QoS:  aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}

	victim := c.Replicas()[0]
	inj.Partition(aqua.Addr(victim.Addr()))
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := client.Call(ctx, "", nil); err != nil {
			t.Fatalf("call %d with blackholed replica: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 500*ms {
			t.Errorf("call %d took %v with one blackholed replica, want sub-deadline", i, elapsed)
		}
	}

	// Healing mid-run brings the replica back into service.
	served := victim.Served()
	inj.Heal(aqua.Addr(victim.Addr()))
	all, err := c.NewClient(aqua.ClientConfig{
		Name:     "post-heal",
		QoS:      aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
		Strategy: aqua.AllSelection(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	deadline := time.Now().Add(3 * time.Second)
	for victim.Served() == served && time.Now().Before(deadline) {
		if _, err := all.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if victim.Served() == served {
		t.Error("healed replica never served a request")
	}
}

func TestGatewayValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	if _, err := aqua.NewGateway("", map[*aqua.Cluster]aqua.ClientConfig{
		c: {QoS: aqua.QoS{Deadline: time.Second}},
	}); err == nil {
		t.Error("want error for empty name")
	}
	if _, err := aqua.NewGateway("g", nil); err == nil {
		t.Error("want error for no clusters")
	}
}

func TestPassiveClientFailover(t *testing.T) {
	c := newTestCluster(t, 3, aqua.WithSimulatedLoad(5*ms, ms))
	pc, err := c.NewPassiveClient("passive", 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx := context.Background()
	if _, err := pc.Call(ctx, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	primary, ok := pc.Primary()
	if !ok {
		t.Fatal("no primary")
	}
	// Crash the primary; the next call fails over.
	if err := c.StopReplica(primary); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Call(ctx, "m", []byte("y")); err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if _, err := c.NewPassiveClient("", time.Second); err == nil {
		t.Error("want error for empty name")
	}
}

// TestPassiveClientFollowsViewChanges: a crash-stopped primary leaves a
// passive client's failover order with the view change, so the next call
// goes straight to a live replica instead of first waiting out an attempt
// timeout on the dead one (the in-memory network drops frames to an unknown
// address silently).
func TestPassiveClientFollowsViewChanges(t *testing.T) {
	const attempt = 500 * ms
	c := newTestCluster(t, 3)
	pc, err := c.NewPassiveClient("passive", attempt)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx := context.Background()
	if _, err := pc.Call(ctx, "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	primary, ok := pc.Primary()
	if !ok {
		t.Fatal("no primary")
	}
	if err := c.StopReplica(primary); err != nil {
		t.Fatal(err)
	}
	if next, ok := pc.Primary(); !ok || next == primary {
		t.Fatalf("after stopping %s: Primary() = %q, %v; want another replica", primary, next, ok)
	}
	start := time.Now()
	if _, err := pc.Call(ctx, "m", []byte("y")); err != nil {
		t.Fatalf("call after the view change: %v", err)
	}
	if took := time.Since(start); took >= attempt/2 {
		t.Errorf("call after the view change took %v, want well under the %v attempt timeout", took, attempt)
	}
}

func TestChurnSoak(t *testing.T) {
	// Soak test: three clients run against a self-healing pool while
	// replicas are repeatedly crash-stopped. Every call must resolve and
	// the pool must end at its target level.
	c := newTestCluster(t, 4,
		aqua.WithSelfHealing(),
		aqua.WithSimulatedLoad(8*ms, 3*ms),
		aqua.WithSeed(13))

	const clients, calls = 3, 25
	var clientWG, churnWG sync.WaitGroup
	errs := make(chan error, clients)
	stopChurn := make(chan struct{})

	// Churn goroutine: crash a replica every 60ms.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(60 * ms):
				replicas := c.Replicas()
				if len(replicas) > 1 {
					_ = c.StopReplica(replicas[0].ID())
				}
			}
		}
	}()
	defer func() {
		select {
		case <-stopChurn:
		default:
			close(stopChurn)
		}
		churnWG.Wait()
	}()

	for i := 0; i < clients; i++ {
		clientWG.Add(1)
		go func(i int) {
			defer clientWG.Done()
			client, err := c.NewClient(aqua.ClientConfig{
				Name: fmt.Sprintf("soak-%d", i),
				QoS:  aqua.QoS{Deadline: 200 * ms, MinProbability: 0.8},
			})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			ctx := context.Background()
			for j := 0; j < calls; j++ {
				if _, err := client.Call(ctx, "", nil); err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	// Wait for the clients to finish.
	done := make(chan struct{})
	go func() {
		clientWG.Wait()
		close(done)
	}()
	select {
	case err := <-errs:
		t.Fatal(err)
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("soak did not finish in 30s")
	}
	close(stopChurn)
	churnWG.Wait()
	// The pool heals back to 4. A 60ms kill cadence is a restart storm, so
	// the manager's MaxRestartsPerWindow cap legitimately suppresses
	// replacements until the storm window slides past the churn — full
	// healing can take up to one RestartWindow after the churn stops.
	deadline := time.Now().Add(proteus.DefaultRestartWindow + 2*time.Second)
	for len(c.Replicas()) < 4 && time.Now().Before(deadline) {
		time.Sleep(10 * ms)
	}
	if got := len(c.Replicas()); got != 4 {
		t.Errorf("pool = %d after churn, want healed to 4", got)
	}
}

// TestMetricsEndToEnd is the observability smoke test: a cluster with an
// isolated registry serves a scrape whose headline series agree exactly with
// the scheduler's own counters.
func TestMetricsEndToEnd(t *testing.T) {
	reg := aqua.NewMetricsRegistry()
	c := newTestCluster(t, 3, aqua.WithMetrics(reg), aqua.WithSimulatedLoad(2*ms, ms))
	client, err := c.NewClient(aqua.ClientConfig{
		Name: "metrics-smoke",
		QoS:  aqua.QoS{Deadline: 500 * ms, MinProbability: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defaultBefore := aqua.Metrics().Counter("aqua_sched_selections_total")
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := client.Call(context.Background(), "m", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Let straggler duplicate replies drain so Replies is stable.
	time.Sleep(50 * ms)

	st := client.Stats()
	snap := c.Metrics()
	if got := snap.Counter("aqua_sched_selections_total"); got != st.Requests {
		t.Errorf("selections counter = %d, Stats().Requests = %d", got, st.Requests)
	}
	if got := snap.Counter("aqua_sched_timing_failures_total"); got != st.TimingFailures {
		t.Errorf("timing failures counter = %d, Stats() = %d", got, st.TimingFailures)
	}
	if got := snap.Counter("aqua_sched_replies_total"); got != st.Replies {
		t.Errorf("replies counter = %d, Stats() = %d", got, st.Replies)
	}
	// Every decision carries exactly one guarantee label.
	var labelled uint64
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "aqua_sched_decisions_total{") {
			labelled += n
		}
	}
	if labelled != snap.Counter("aqua_sched_selections_total") {
		t.Errorf("decisions over every guarantee label = %d, selections counter = %d", labelled, snap.Counter("aqua_sched_selections_total"))
	}
	targets, ok := snap.Histogram("aqua_sched_targets")
	if !ok {
		t.Fatal("no |K| histogram in snapshot")
	}
	if targets.Count != st.Requests {
		t.Errorf("|K| histogram count = %d, want %d", targets.Count, st.Requests)
	}
	if got := uint64(targets.Sum + 0.5); got != st.SelectedTotal {
		t.Errorf("|K| histogram sum = %d, Stats().SelectedTotal = %d", got, st.SelectedTotal)
	}
	var perReplica uint64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "aqua_replica_response_seconds{") {
			perReplica += h.Count
		}
	}
	if perReplica != st.Replies {
		t.Errorf("per-replica response observations = %d, Stats().Replies = %d", perReplica, st.Replies)
	}
	// The cluster's isolated registry must not leak into the process default
	// (other tests in this binary report there, so compare as a delta).
	if got := aqua.Metrics().Counter("aqua_sched_selections_total"); got != defaultBefore {
		t.Errorf("default registry selections went %d -> %d during an isolated cluster's run", defaultBefore, got)
	}

	// The same numbers are served over HTTP, in both exposition formats.
	srv, err := aqua.ServeMetrics("127.0.0.1:0", c.MetricsRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}
	prom := get("/metrics")
	for _, want := range []string{
		fmt.Sprintf("aqua_sched_selections_total %d", st.Requests),
		fmt.Sprintf("aqua_sched_targets_count %d", st.Requests),
		"aqua_sched_timing_failures_total",
		`aqua_sched_decisions_total{guarantee="eq3"}`,
		`aqua_replica_response_seconds_bucket{replica="svc-r1",le=`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var parsed struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(get("/metrics.json")), &parsed); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if parsed.Counters["aqua_sched_selections_total"] != st.Requests {
		t.Errorf("/metrics.json selections = %d, want %d", parsed.Counters["aqua_sched_selections_total"], st.Requests)
	}
}
