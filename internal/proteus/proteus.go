// Package proteus is the stand-in for AQuA's Proteus dependability manager
// (§2): it "manages the replication level for different applications based
// on their dependability requirements". This reproduction implements the
// slice of Proteus the paper exercises — keeping a service's replica pool at
// its configured level by starting fresh replicas when members crash.
package proteus

import (
	"fmt"
	"sync"
	"time"

	"aqua/internal/group"
	"aqua/internal/wire"
)

// Factory starts a brand-new replica for a service. The manager suggests a
// unique identity; the factory may substitute its own (e.g. an address-based
// ID) and must return the identity the replica actually joined with, plus a
// stop function.
type Factory func(suggested wire.ReplicaID) (actual wire.ReplicaID, stop func(), err error)

// Policy is a service's dependability requirement.
type Policy struct {
	// Service is the managed service.
	Service wire.Service
	// ReplicationLevel is the target number of live replicas.
	ReplicationLevel int
	// Factory starts replacement replicas.
	Factory Factory
	// CheckInterval is how often the pool is reconciled; zero means
	// DefaultCheckInterval.
	CheckInterval time.Duration
	// Retire removes a quarantined replica from the pool (stop the process,
	// drop it from the group). Quarantine calls it for replicas the manager
	// did not start itself; manager-started replicas are retired through
	// their own stop handles. Nil means only manager-started replicas can be
	// rejuvenated.
	Retire func(wire.ReplicaID)
}

// DefaultCheckInterval is the default reconciliation cadence.
const DefaultCheckInterval = 50 * time.Millisecond

// joinTimeoutChecks is how many check intervals a factory-started replica may
// stay absent from the group view before the manager gives up on it: its stop
// handle is invoked, its slot is freed, and the next reconcile starts a
// replacement. Long enough for any healthy join (which normally completes
// within one interval), short enough that a wedged replica doesn't hold its
// pool slot for long.
const joinTimeoutChecks = 20

// DefaultMaxRestartsPerWindow caps factory start attempts (and therefore
// quarantine retirements, which each imply a replacement start) within any
// DefaultRestartWindow. It is the restart-storm fuse: a crash-looping factory
// or a mass false-positive quarantine cannot churn the pool faster than the
// cap.
const DefaultMaxRestartsPerWindow = 8

// DefaultRestartWindow is the sliding window the restart cap is measured
// over.
const DefaultRestartWindow = 10 * time.Second

// maxBackoffChecks caps the exponential factory-failure backoff, in check
// intervals: the backoff doubles per consecutive failure and saturates here.
const maxBackoffChecks = 64

// Manager reconciles one service's replica pool against its policy. It
// observes membership through a group view feed (ObserveView) — typically
// wired to a group.Node observer.
type Manager struct {
	policy Policy

	mu      sync.Mutex
	view    group.View
	started map[wire.ReplicaID]*startedEntry
	next    int
	stopped bool

	// Factory-failure damping: consecutive failures double the wait before
	// the next attempt (capped at maxBackoffChecks intervals) instead of
	// retrying every CheckInterval.
	failStreak   int
	backoffUntil time.Time
	// restarts holds recent factory start attempts: the restart-storm cap.
	restarts RestartCap
	stats    ManagerStats

	stop chan struct{}
	wg   sync.WaitGroup
}

// ManagerStats counts the manager's rejuvenation activity.
type ManagerStats struct {
	// Starts is the number of factory start attempts (successful or not).
	Starts uint64
	// FactoryFailures counts factory errors.
	FactoryFailures uint64
	// Quarantined counts replicas retired via Quarantine.
	Quarantined uint64
	// Suppressed counts starts or quarantine retirements refused by the
	// restart-storm cap.
	Suppressed uint64
}

// startedEntry tracks one replica the manager launched: its stop handle,
// when it was started, and whether it has ever appeared in a group view.
// The joined flag is what distinguishes "still joining" (kept until the join
// timeout) from "joined and later left" (dead, dropped immediately).
type startedEntry struct {
	stop   func()
	at     time.Time
	joined bool
}

// NewManager validates the policy and returns a manager. Call Run to begin
// reconciling.
func NewManager(p Policy) (*Manager, error) {
	if p.Service == "" {
		return nil, fmt.Errorf("proteus: service is required")
	}
	if p.ReplicationLevel <= 0 {
		return nil, fmt.Errorf("proteus: replication level must be positive, got %d", p.ReplicationLevel)
	}
	if p.Factory == nil {
		return nil, fmt.Errorf("proteus: factory is required")
	}
	if p.CheckInterval <= 0 {
		p.CheckInterval = DefaultCheckInterval
	}
	return &Manager{
		policy:  p,
		started: make(map[wire.ReplicaID]*startedEntry),
		stop:    make(chan struct{}),
	}, nil
}

// ObserveView feeds the manager a membership view. Wire it to a group.Node
// with OnViewChange(m.ObserveView). A view numbered at or below the last one
// observed is dropped: an older view missing a joined replica would
// otherwise discard that replica's stop handle and count the pool one short.
func (m *Manager) ObserveView(v group.View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.Number <= m.view.Number {
		return
	}
	m.view = v
	for id, e := range m.started {
		switch {
		case v.Contains(id):
			e.joined = true
		case e.joined:
			// Joined earlier, gone now: the replica is dead and its stop
			// handle will never be used again.
			delete(m.started, id)
		}
		// A never-joined entry survives view changes: it is either still
		// joining (and must keep holding its pool slot so reconcile doesn't
		// over-provision) or wedged, in which case the join timeout — not an
		// unrelated view change — is what retires it. Dropping it here leaked
		// the running process by discarding its only stop handle.
	}
}

// Run starts the reconcile loop; it returns immediately. Stop with Stop.
func (m *Manager) Run() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.policy.CheckInterval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.reconcile()
			}
		}
	}()
}

// reconcile ages out replicas that never joined and starts new ones until
// the live count reaches the target.
func (m *Manager) reconcile() {
	m.mu.Lock()
	now := time.Now()
	var expired []func()
	for id, e := range m.started {
		if !e.joined && m.view.Contains(id) {
			// The view carrying this replica arrived before the factory
			// returned its identity; catch the flag up so the entry isn't
			// aged out (and stopped) while alive.
			e.joined = true
		}
		if !e.joined && now.Sub(e.at) >= joinTimeoutChecks*m.policy.CheckInterval {
			// Started but never joined: the replica wedged during startup.
			// Without this age-out the entry counts as live forever, so the
			// pool silently runs below target and the stop handle leaks.
			expired = append(expired, e.stop)
			delete(m.started, id)
		}
	}
	live := len(m.view.Members)
	// Replicas we started that have not yet appeared in a view also count,
	// otherwise a slow join causes over-provisioning.
	for _, e := range m.started {
		if !e.joined {
			live++
		}
	}
	deficit := m.policy.ReplicationLevel - live
	if now.Before(m.backoffUntil) {
		// A recent factory failure put starts on exponential backoff; the
		// deficit persists and is retried when the backoff elapses.
		deficit = 0
	}
	m.mu.Unlock()

	for _, stopFn := range expired {
		stopFn()
	}

	for i := 0; i < deficit; i++ {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		if !m.restarts.Allow(time.Now()) {
			// Restart-storm cap: the pool stays below target until the
			// window slides rather than churning faster than replicas can
			// prove themselves.
			m.stats.Suppressed++
			m.mu.Unlock()
			return
		}
		m.restarts.Record(time.Now())
		m.stats.Starts++
		m.next++
		suggested := wire.ReplicaID(fmt.Sprintf("%s-p%d", m.policy.Service, m.next))
		m.mu.Unlock()

		actual, stopFn, err := m.policy.Factory(suggested)
		if err != nil {
			// Exponential backoff: a persistent factory failure shows up as
			// a pool below target (Level()) without hammering the factory
			// every CheckInterval.
			m.mu.Lock()
			m.stats.FactoryFailures++
			m.failStreak++
			d := maxBackoffChecks * m.policy.CheckInterval
			if m.failStreak < 30 {
				if b := m.policy.CheckInterval << uint(m.failStreak); b < d {
					d = b
				}
			}
			m.backoffUntil = time.Now().Add(d)
			m.mu.Unlock()
			return
		}
		m.mu.Lock()
		m.failStreak = 0
		m.backoffUntil = time.Time{}
		if m.stopped {
			m.mu.Unlock()
			stopFn()
			return
		}
		m.started[actual] = &startedEntry{stop: stopFn, at: time.Now(), joined: m.view.Contains(actual)}
		m.mu.Unlock()
	}
}

// Quarantine retires a sick-but-alive replica so the pool rejuvenates it:
// the replica is stopped (via its stop handle when the manager started it,
// via Policy.Retire otherwise), the group view drops it, and the next
// reconcile starts a fresh replacement through the factory. This closes the
// §5.4 loop for *timing*-faulty replicas, which never crash on their own.
//
// Returns false when the restart-storm cap is exhausted (the replica is left
// in place — the caller's quarantine marking already keeps it out of
// selection), when the manager has no way to stop the replica (not
// manager-started and no Retire hook), or after Stop.
func (m *Manager) Quarantine(id wire.ReplicaID) bool {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return false
	}
	e, mine := m.started[id]
	if !mine && m.policy.Retire == nil {
		m.mu.Unlock()
		return false
	}
	if !m.restarts.Allow(time.Now()) {
		// Retiring now would shrink the pool with no replacement allowed:
		// worse than leaving a quarantined (deselected) replica running.
		m.stats.Suppressed++
		m.mu.Unlock()
		return false
	}
	if mine {
		delete(m.started, id)
	}
	m.stats.Quarantined++
	retire := m.policy.Retire
	m.mu.Unlock()

	if mine && e.stop != nil {
		e.stop()
	} else if retire != nil {
		retire(id)
	}
	return true
}

// Stats returns a snapshot of the manager's rejuvenation counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Level returns the current live member count as seen by the manager.
func (m *Manager) Level() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.view.Members)
}

// StartedCount returns how many replicas the manager has launched in total.
func (m *Manager) StartedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// Stop halts reconciliation and stops every replica the manager started.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	stops := make([]func(), 0, len(m.started))
	for _, e := range m.started {
		stops = append(stops, e.stop)
	}
	m.started = make(map[wire.ReplicaID]*startedEntry)
	m.mu.Unlock()

	close(m.stop)
	m.wg.Wait()
	for _, f := range stops {
		f()
	}
}
