package proteus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aqua/internal/group"
	"aqua/internal/wire"
)

// TestFactoryFailureBacksOffExponentially: a persistently failing factory
// must not be hammered on every reconcile. Before the fix every
// CheckInterval produced another attempt; now consecutive failures double
// the wait.
func TestFactoryFailureBacksOffExponentially(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	failing := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return "", nil, fmt.Errorf("permanent failure")
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

	mgr.reconcile() // first attempt fails → backoff 2×CheckInterval
	for i := 0; i < 20; i++ {
		mgr.reconcile() // all inside the backoff window: no attempts
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("factory calls = %d during backoff, want 1", got)
	}

	time.Sleep(12 * time.Millisecond) // past the 10ms first backoff
	mgr.reconcile()                   // second attempt → backoff 4×CheckInterval
	for i := 0; i < 20; i++ {
		mgr.reconcile()
	}
	mu.Lock()
	got = calls
	mu.Unlock()
	if got != 2 {
		t.Fatalf("factory calls = %d after one backoff, want 2", got)
	}
	if st := mgr.Stats(); st.FactoryFailures != 2 || st.Starts != 2 {
		t.Errorf("stats = %+v, want FactoryFailures=2 Starts=2", st)
	}
}

// TestBackoffClearsOnSuccess: a success resets the failure streak so the
// next failure starts the backoff ladder from the bottom.
func TestBackoffClearsOnSuccess(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return "", nil, fmt.Errorf("transient")
		}
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

	mgr.reconcile()                   // fails
	time.Sleep(12 * time.Millisecond) // ride out the backoff
	mgr.reconcile()                   // succeeds
	mgr.mu.Lock()
	streak, until := mgr.failStreak, mgr.backoffUntil
	mgr.mu.Unlock()
	if streak != 0 || !until.IsZero() {
		t.Errorf("failStreak=%d backoffUntil=%v after success, want reset", streak, until)
	}
}

// TestRestartStormCap: factory starts within DefaultRestartWindow are
// bounded by DefaultMaxRestartsPerWindow even when the deficit says
// otherwise.
func TestRestartStormCap(t *testing.T) {
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() {}, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: DefaultMaxRestartsPerWindow + 4,
		Factory:          factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.reconcile()
	mgr.reconcile()
	if got := mgr.StartedCount(); got != DefaultMaxRestartsPerWindow {
		t.Errorf("StartedCount = %d, want %d (capped)", got, DefaultMaxRestartsPerWindow)
	}
	if st := mgr.Stats(); st.Suppressed == 0 {
		t.Error("Suppressed = 0, want refused starts counted")
	}
}

// TestQuarantineRestartsReplica is the §5.4 rejuvenation loop end to end: a
// quarantined (sick but alive) member is retired and the factory starts a
// replacement.
func TestQuarantineRestartsReplica(t *testing.T) {
	pool, mgr := newManagedPool(t, 2)
	mgr.Run()
	waitFor(t, time.Second, func() bool { return pool.liveCount() == 2 }, "pool at level")

	pool.mu.Lock()
	var victim wire.ReplicaID
	for id := range pool.live {
		victim = id
		break
	}
	pool.mu.Unlock()

	if !mgr.Quarantine(victim) {
		t.Fatal("Quarantine refused")
	}
	pool.pushView() // the stop handle killed it; the view catches up
	waitFor(t, time.Second, func() bool { return pool.liveCount() == 2 }, "pool restored after rejuvenation")

	pool.mu.Lock()
	stillThere := pool.live[victim]
	stopped := len(pool.stopped)
	pool.mu.Unlock()
	if stillThere {
		t.Error("quarantined replica still live")
	}
	if stopped != 1 {
		t.Errorf("stopped = %d, want 1", stopped)
	}
	if st := mgr.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	if got := mgr.StartedCount(); got != 3 {
		t.Errorf("StartedCount = %d, want 3 (2 initial + 1 rejuvenation)", got)
	}
}

// TestQuarantineForeignReplicaNeedsRetire: replicas the manager did not
// start can only be rejuvenated through the Retire hook.
func TestQuarantineForeignReplicaNeedsRetire(t *testing.T) {
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() {}, nil
	}
	var retired []wire.ReplicaID
	mk := func(retire func(wire.ReplicaID)) *Manager {
		mgr, err := NewManager(Policy{
			Service:          "svc",
			ReplicationLevel: 1,
			Factory:          factory,
			CheckInterval:    5 * time.Millisecond,
			Retire:           retire,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mgr.Stop)
		mgr.ObserveView(group.View{Number: 1, Members: []wire.ReplicaID{"foreign"}})
		return mgr
	}

	if mk(nil).Quarantine("foreign") {
		t.Error("Quarantine of a foreign replica succeeded with no Retire hook")
	}
	mgr := mk(func(id wire.ReplicaID) { retired = append(retired, id) })
	if !mgr.Quarantine("foreign") {
		t.Fatal("Quarantine refused with Retire hook present")
	}
	if len(retired) != 1 || retired[0] != "foreign" {
		t.Errorf("retired = %v, want [foreign]", retired)
	}
}

// TestQuarantineSuppressedByStormCap: with the restart budget exhausted,
// quarantine leaves the replica in place rather than shrinking the pool
// with no replacement allowed.
func TestQuarantineSuppressedByStormCap(t *testing.T) {
	factory := func(id wire.ReplicaID) (wire.ReplicaID, func(), error) {
		return id, func() {}, nil
	}
	mgr, err := NewManager(Policy{
		Service:          "svc",
		ReplicationLevel: DefaultMaxRestartsPerWindow,
		Factory:          factory,
		CheckInterval:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)

	mgr.reconcile() // consumes every restart slot
	var members []wire.ReplicaID
	for i := 1; i <= DefaultMaxRestartsPerWindow; i++ {
		members = append(members, wire.ReplicaID(fmt.Sprintf("svc-p%d", i)))
	}
	mgr.ObserveView(group.View{Number: 1, Members: members})
	if mgr.Quarantine("svc-p1") {
		t.Error("Quarantine succeeded with the restart budget exhausted")
	}
	if st := mgr.Stats(); st.Suppressed == 0 {
		t.Error("Suppressed = 0, want the refusal counted")
	}
}
