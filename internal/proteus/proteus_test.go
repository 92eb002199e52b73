package proteus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aqua/internal/group"
	"aqua/internal/wire"
)

func TestNewManagerValidation(t *testing.T) {
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) { return id, func() {}, nil }
	cases := []struct {
		name string
		p    Policy
	}{
		{"missing service", Policy{ReplicationLevel: 1, Factory: factory}},
		{"zero level", Policy{Service: "s", Factory: factory}},
		{"negative level", Policy{Service: "s", ReplicationLevel: -1, Factory: factory}},
		{"missing factory", Policy{Service: "s", ReplicationLevel: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewManager(tc.p); err == nil {
				t.Error("want error")
			}
		})
	}
}

// fakePool simulates replicas whose lifecycle the manager controls,
// feeding views back like a group observer would.
type fakePool struct {
	mu      sync.Mutex
	live    map[wire.ReplicaID]bool
	stopped []wire.ReplicaID
	viewNum uint64
	mgr     *Manager
}

func (p *fakePool) factory(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
	p.mu.Lock()
	p.live[id] = true
	p.mu.Unlock()
	p.pushView()
	return id, func() {
		p.mu.Lock()
		delete(p.live, id)
		p.stopped = append(p.stopped, id)
		p.mu.Unlock()
	}, nil
}

func (p *fakePool) crash(id wire.ReplicaID) {
	p.mu.Lock()
	delete(p.live, id)
	p.mu.Unlock()
	p.pushView()
}

func (p *fakePool) pushView() {
	p.mu.Lock()
	members := make([]wire.ReplicaID, 0, len(p.live))
	for id := range p.live {
		members = append(members, id)
	}
	p.viewNum++
	v := group.View{Number: p.viewNum, Members: members}
	mgr := p.mgr
	p.mu.Unlock()
	if mgr != nil {
		mgr.ObserveView(v)
	}
}

func (p *fakePool) liveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for: %s", what)
}

func newManagedPool(t *testing.T, level int) (*fakePool, *Manager) {
	t.Helper()
	pool := &fakePool{live: make(map[wire.ReplicaID]bool)}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: level,
		Factory:          pool.factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.mgr = mgr
	t.Cleanup(mgr.Stop)
	return pool, mgr
}

func TestManagerBringsPoolToLevel(t *testing.T) {
	pool, mgr := newManagedPool(t, 3)
	mgr.Run()
	waitFor(t, time.Second, func() bool { return pool.liveCount() == 3 }, "pool reaches level 3")
	// Must not over-provision once at level.
	time.Sleep(30 * time.Millisecond)
	if got := pool.liveCount(); got != 3 {
		t.Errorf("live = %d, want exactly 3", got)
	}
	if got := mgr.StartedCount(); got != 3 {
		t.Errorf("StartedCount = %d, want 3", got)
	}
	if got := mgr.Level(); got != 3 {
		t.Errorf("Level = %d, want 3", got)
	}
}

func TestManagerReplacesCrashedReplica(t *testing.T) {
	pool, mgr := newManagedPool(t, 2)
	mgr.Run()
	waitFor(t, time.Second, func() bool { return pool.liveCount() == 2 }, "pool at level")

	// Crash one replica.
	pool.mu.Lock()
	var victim wire.ReplicaID
	for id := range pool.live {
		victim = id
		break
	}
	pool.mu.Unlock()
	pool.crash(victim)

	waitFor(t, time.Second, func() bool { return pool.liveCount() == 2 }, "pool restored after crash")
	if got := mgr.StartedCount(); got != 3 {
		t.Errorf("StartedCount = %d, want 3 (2 initial + 1 replacement)", got)
	}
}

func TestManagerStopStopsReplicas(t *testing.T) {
	pool, mgr := newManagedPool(t, 2)
	mgr.Run()
	waitFor(t, time.Second, func() bool { return pool.liveCount() == 2 }, "pool at level")
	mgr.Stop()
	pool.mu.Lock()
	stopped := len(pool.stopped)
	pool.mu.Unlock()
	if stopped != 2 {
		t.Errorf("stopped %d replicas on Stop, want 2", stopped)
	}
	mgr.Stop() // idempotent
}

func TestManagerFactoryFailureRetries(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	failing := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return "", nil, fmt.Errorf("transient failure %d", calls)
		}
		return id, func() {}, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 1,
		Factory:          failing,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	mgr.Run()
	waitFor(t, time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return calls >= 3
	}, "factory retried after transient failures")
}

func TestDefaultCheckIntervalApplied(t *testing.T) {
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 1,
		Factory:          func(id wire.ReplicaID) (wire.ReplicaID, func(), error) { return id, func() {}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if mgr.policy.CheckInterval != DefaultCheckInterval {
		t.Errorf("CheckInterval = %v", mgr.policy.CheckInterval)
	}
}

// TestReconcileAgesOutNeverJoinedReplica: a factory-started replica that
// never appears in a group view (wedged during startup) must not hold its
// pool slot forever. Before the fix the entry counted as live on every
// reconcile, so the pool ran below target permanently and the stop handle
// leaked.
func TestReconcileAgesOutNeverJoinedReplica(t *testing.T) {
	var mu sync.Mutex
	var stopped []wire.ReplicaID
	// Replicas start but never join: no view is ever pushed.
	wedged := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() {
			mu.Lock()
			stopped = append(stopped, id)
			mu.Unlock()
		}, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 2,
		Factory:          wedged,
		// A join timeout of joinTimeoutChecks intervals: 10ms.
		CheckInterval: 10 * time.Millisecond / joinTimeoutChecks,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.reconcile()
	if got := mgr.StartedCount(); got != 2 {
		t.Fatalf("StartedCount = %d, want 2", got)
	}
	// Pending joins hold their slots: no over-provisioning meanwhile.
	mgr.reconcile()
	if got := mgr.StartedCount(); got != 2 {
		t.Fatalf("StartedCount before timeout = %d, want still 2", got)
	}

	time.Sleep(15 * time.Millisecond)
	mgr.reconcile()
	mu.Lock()
	retired := len(stopped)
	mu.Unlock()
	if retired != 2 {
		t.Errorf("stop handles invoked = %d, want 2 (aged-out entries retired)", retired)
	}
	if got := mgr.StartedCount(); got != 4 {
		t.Errorf("StartedCount after age-out = %d, want 4 (replacements started)", got)
	}
}

// TestObserveViewKeepsPendingJoins: a view change that doesn't (yet) include
// a just-started replica must not discard its tracking entry. Before the fix
// ObserveView dropped every absent entry, so an unrelated view change leaked
// the joining replica's stop handle and triggered an over-provisioning start
// on the next reconcile.
func TestObserveViewKeepsPendingJoins(t *testing.T) {
	stops := 0
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() { stops++ }, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 2,
		Factory:          factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.reconcile()
	if got := mgr.StartedCount(); got != 2 {
		t.Fatalf("StartedCount = %d, want 2", got)
	}
	// An unrelated membership event arrives before the new replicas join.
	mgr.ObserveView(group.View{Number: 1, Members: []wire.ReplicaID{"bystander"}})
	mgr.reconcile()
	if got := mgr.StartedCount(); got != 2 {
		t.Errorf("StartedCount after unrelated view = %d, want still 2 (pending joins kept their slots)", got)
	}
	// Stop must still reach the pending replicas' handles.
	mgr.Stop()
	if stops != 2 {
		t.Errorf("Stop invoked %d handles, want 2", stops)
	}
}

// TestObserveViewDropsJoinedThenLeft: the original prune still applies to
// replicas that joined and later left — they are dead, their handles are
// released, and reconcile starts replacements.
func TestObserveViewDropsJoinedThenLeft(t *testing.T) {
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() {}, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 1,
		Factory:          factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.reconcile()
	mgr.ObserveView(group.View{Number: 1, Members: []wire.ReplicaID{"svc-p1"}})
	mgr.ObserveView(group.View{Number: 2, Members: nil}) // crashed
	mgr.reconcile()
	if got := mgr.StartedCount(); got != 2 {
		t.Errorf("StartedCount = %d, want 2 (crash replaced)", got)
	}
}

// TestObserveViewIgnoresStaleView: a view older than the one already
// observed must not undo it. Views 3 then 2, where only 3 lists the joined
// svc-p1: applying 2 would drop svc-p1's stop handle and make reconcile start
// a spare for a pool that is already at level.
func TestObserveViewIgnoresStaleView(t *testing.T) {
	stops := map[wire.ReplicaID]int{}
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() { stops[id]++ }, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: 2,
		Factory:          factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.ObserveView(group.View{Number: 1, Members: []wire.ReplicaID{"a"}})
	mgr.reconcile() // starts svc-p1
	mgr.ObserveView(group.View{Number: 3, Members: []wire.ReplicaID{"a", "svc-p1"}})
	mgr.ObserveView(group.View{Number: 2, Members: []wire.ReplicaID{"a"}}) // stale
	mgr.reconcile()
	if got := mgr.StartedCount(); got != 1 {
		t.Errorf("StartedCount = %d after the stale view, want 1 (no spare for a pool at level)", got)
	}
	mgr.Stop()
	if got := stops["svc-p1"]; got != 1 {
		t.Errorf("svc-p1's stop handle ran %d times, want 1", got)
	}
}
