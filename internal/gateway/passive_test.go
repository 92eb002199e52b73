package gateway

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

func passiveHandler(t *testing.T, f *fixture, cfg PassiveConfig) *PassiveHandler {
	t.Helper()
	ep, err := f.net.Listen(transport.Addr("client:" + string(cfg.Client)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StaticReplicas == nil && cfg.Group == nil {
		cfg.StaticReplicas = f.static()
	}
	h, err := NewPassiveHandler(ep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func TestPassiveValidation(t *testing.T) {
	f := newFixture(t, 1, nil)
	ep, _ := f.net.Listen("pv1")
	if _, err := NewPassiveHandler(ep, PassiveConfig{
		Service: "svc", AttemptTimeout: time.Second, StaticReplicas: f.static(),
	}); err == nil {
		t.Error("want error for missing client ID")
	}
	ep2, _ := f.net.Listen("pv2")
	if _, err := NewPassiveHandler(ep2, PassiveConfig{
		Client: "c", Service: "svc", StaticReplicas: f.static(),
	}); err == nil {
		t.Error("want error for missing attempt timeout")
	}
	ep3, _ := f.net.Listen("pv3")
	if _, err := NewPassiveHandler(ep3, PassiveConfig{
		Client: "c", Service: "svc", AttemptTimeout: time.Second,
	}); err == nil {
		t.Error("want error for no replicas")
	}
}

func TestPassivePrimaryOnly(t *testing.T) {
	f := newFixture(t, 3, nil)
	h := passiveHandler(t, f, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: 500 * ms,
	})
	primary, ok := h.Primary()
	if !ok {
		t.Fatal("no primary")
	}
	if primary != "r0" {
		t.Errorf("primary = %v, want r0 (lowest ID)", primary)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.replicas["r0"].Served(); got != 3 {
		t.Errorf("primary served %d, want 3", got)
	}
	if got := f.replicas["r1"].Served() + f.replicas["r2"].Served(); got != 0 {
		t.Errorf("backups served %d, want 0", got)
	}
}

func TestPassiveFailover(t *testing.T) {
	f := newFixture(t, 2, nil)
	h := passiveHandler(t, f, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: 50 * ms,
	})
	// Crash the primary; the next call must fail over to r1.
	f.replicas["r0"].Stop()
	out, err := h.Call(context.Background(), "m", []byte("x"))
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if string(out) != "r1:x" {
		t.Errorf("reply = %q, want from r1", out)
	}
}

func TestPassiveAllDown(t *testing.T) {
	f := newFixture(t, 2, nil)
	h := passiveHandler(t, f, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: 30 * ms,
	})
	f.replicas["r0"].Stop()
	f.replicas["r1"].Stop()
	if _, err := h.Call(context.Background(), "", nil); err == nil {
		t.Fatal("want error when every replica is down")
	}
}

func TestPassiveSlowPrimaryTimesOverToBackup(t *testing.T) {
	f := newFixture(t, 2, stats.Constant{Delay: 200 * ms})
	h := passiveHandler(t, f, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: 40 * ms,
	})
	// The primary is too slow for the attempt timeout; the handler retries
	// the backup, which is equally slow, so the call eventually fails —
	// passive replication cannot mask load-induced timing faults, which is
	// exactly the gap the paper's handler fills.
	_, err := h.Call(context.Background(), "", nil)
	if err == nil {
		t.Log("backup answered within its window; acceptable on a fast machine")
	}
}

func TestPassiveCanceledContext(t *testing.T) {
	f := newFixture(t, 1, stats.Constant{Delay: 300 * ms})
	h := passiveHandler(t, f, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*ms)
	defer cancel()
	if _, err := h.Call(ctx, "", nil); err == nil {
		t.Fatal("want error for canceled context")
	}
}

// passiveCluster starts replicas with per-replica handlers and delays and
// returns a PassiveHandler over them.
func passiveCluster(t *testing.T, attempt time.Duration, specs map[wire.ReplicaID]passiveSpec) *PassiveHandler {
	t.Helper()
	net := transport.NewInMem()
	t.Cleanup(func() { _ = net.Close() })
	static := make(map[wire.ReplicaID]transport.Addr, len(specs))
	for id, spec := range specs {
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		var load stats.DelayDist
		if spec.delay > 0 {
			load = stats.Constant{Delay: spec.delay}
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc", Handler: spec.handler, LoadDelay: load, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		static[id] = srv.Addr()
	}
	cep, err := net.Listen("client:pc")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewPassiveHandler(cep, PassiveConfig{
		Client: "pc", Service: "svc", AttemptTimeout: attempt, StaticReplicas: static,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

type passiveSpec = struct {
	handler func(string, []byte) ([]byte, error)
	delay   time.Duration
}

// TestPassiveErrorReplyFailsOver: an application error from the primary is a
// failed attempt, not a final answer — the handler must try the backup.
// Before the fix, Call returned the primary's error immediately, so a single
// faulty replica at the head of the view made every call fail despite
// healthy backups.
func TestPassiveErrorReplyFailsOver(t *testing.T) {
	h := passiveCluster(t, 200*ms, map[wire.ReplicaID]passiveSpec{
		"r0": {handler: func(string, []byte) ([]byte, error) { return nil, fmt.Errorf("boom") }},
		"r1": {handler: func(_ string, p []byte) ([]byte, error) { return append([]byte("r1:"), p...), nil }},
	})
	out, err := h.Call(context.Background(), "m", []byte("x"))
	if err != nil {
		t.Fatalf("Call = %v, want failover success", err)
	}
	if string(out) != "r1:x" {
		t.Errorf("reply = %q, want %q", out, "r1:x")
	}
}

// TestPassiveStaleErrorDoesNotAbortCurrentAttempt: after the primary times
// out, its late error reply must not be mistaken for the current target's
// answer. Before the fix the stale error occupied the single waiter slot,
// the in-flight attempt consumed it, and the call failed even though the
// backup was about to answer.
func TestPassiveStaleErrorDoesNotAbortCurrentAttempt(t *testing.T) {
	h := passiveCluster(t, 50*ms, map[wire.ReplicaID]passiveSpec{
		// The primary errors, but only after its attempt window has passed.
		"r0": {handler: func(string, []byte) ([]byte, error) { return nil, fmt.Errorf("late boom") }, delay: 70 * ms},
		// The backup is healthy, just slower than the stale error's arrival.
		"r1": {handler: func(_ string, p []byte) ([]byte, error) { return append([]byte("r1:"), p...), nil }, delay: 30 * ms},
	})
	out, err := h.Call(context.Background(), "m", []byte("x"))
	if err != nil {
		t.Fatalf("Call = %v, want backup's reply despite the primary's straggling error", err)
	}
	if string(out) != "r1:x" {
		t.Errorf("reply = %q, want %q", out, "r1:x")
	}
}

// TestPassiveChurnWithStragglers: repeated calls against a pool whose
// primary always times out must keep working while the primary's straggling
// replies keep landing on waiters of past calls (or none at all). Fences the
// receive path against blocking or panicking on late replies.
func TestPassiveChurnWithStragglers(t *testing.T) {
	ok := func(_ string, p []byte) ([]byte, error) { return append([]byte("r1:"), p...), nil }
	h := passiveCluster(t, 25*ms, map[wire.ReplicaID]passiveSpec{
		"r0": {handler: ok, delay: 80 * ms}, // always outlives its attempt window
		"r1": {handler: ok},
	})
	for i := 0; i < 5; i++ {
		out, err := h.Call(context.Background(), "m", []byte("x"))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(out) != "r1:x" {
			t.Errorf("call %d reply = %q, want from r1", i, out)
		}
	}
	// Let the stragglers from every timed-out attempt drain through the
	// receive loop after their waiters are gone.
	time.Sleep(120 * ms)
	if _, err := h.Call(context.Background(), "m", []byte("x")); err != nil {
		t.Fatalf("post-straggler call: %v", err)
	}
}
