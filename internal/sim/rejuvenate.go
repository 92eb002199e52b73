package sim

import (
	"fmt"
	"time"

	"aqua/internal/core"
	"aqua/internal/proteus"
	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// RejuvenationSpec configures the simulated Proteus-style rejuvenator: when
// any client quarantines a replica, the rejuvenator retires that incarnation
// and boots a fresh one at the same host index (AQuA's Proteus restarts the
// object; the host — and any host-level fault window — stays). Restarts are
// capped at proteus.DefaultMaxRestartsPerWindow inside any
// proteus.DefaultRestartWindow, like the real manager, so a fault the restart
// cannot cure (a sick host) does not become a restart storm.
type RejuvenationSpec struct {
	// Enabled turns rejuvenation on. Requires Scenario.Lifecycle.Enabled.
	Enabled bool
}

const (
	// restartDelay is the base boot time of a replacement; consecutive
	// restarts of the same host back off exponentially from it.
	restartDelay = 250 * time.Millisecond
	// maxBootDelay caps the per-host exponential boot backoff.
	maxBootDelay = 30 * time.Second
)

// rejuvenator closes the §5.4 loop inside the kernel: quarantine reports
// from any client's scheduler trigger a kill → detect → boot → rejoin
// sequence for the sick host's slot. The replacement gets a fresh identity
// (so every repository re-admits it through probation) but keeps the host
// index, so index-keyed fault schedules (LinkFault, ReplicaSpec.Slow)
// survive the restart.
type rejuvenator struct {
	kernel         *Kernel
	specs          []ReplicaSpec
	replicas       []*Replica // shared with Run: index = host slot
	byID           map[wire.ReplicaID]*Replica
	clients        []*Client // shared with Run; populated before any event fires
	detectionDelay time.Duration
	rng            *stats.Rand
	rec            *trace.Recorder // nil-safe

	restartCap proteus.RestartCap // storm cap, on the kernel's NowTime (global)
	perHost    []int              // restarts per host index, drives boot backoff
	retired    []*Replica         // killed incarnations, for the run's totals
	restarting []bool             // a replacement is mid-boot for this index
	restarts   int
	suppressed int
	peak       int // most restarts inside one storm-cap window

	// stateTransfer (Scenario.StateTransfer) is how long a replacement's
	// simulated recovery state transfer takes; zero models a stateless
	// service whose replacements boot caught up. transfers counts
	// incarnations that completed theirs.
	stateTransfer time.Duration
	transfers     int
}

func newRejuvenator(k *Kernel, specs []ReplicaSpec, replicas []*Replica,
	byID map[wire.ReplicaID]*Replica, clients []*Client, detect time.Duration,
	rng *stats.Rand, rec *trace.Recorder) *rejuvenator {
	return &rejuvenator{
		kernel:         k,
		specs:          specs,
		replicas:       replicas,
		byID:           byID,
		clients:        clients,
		detectionDelay: detect,
		rng:            rng,
		rec:            rec,
		perHost:        make([]int, len(specs)),
		restarting:     make([]bool, len(specs)),
	}
}

// onSuspect receives every lifecycle transition from every client and acts
// on quarantines of a live incarnation. Reports naming an already-retired
// ID (another client quarantined it first) are ignored.
func (rj *rejuvenator) onSuspect(r core.SuspectReport) {
	if r.To != repository.Quarantined {
		return
	}
	rep, ok := rj.byID[r.Replica]
	if !ok {
		return
	}
	rj.restart(rep.index)
}

// restart retires the current incarnation at idx and boots a replacement,
// subject to the storm cap. A suppressed restart retries when the cap's
// window slides, unless the incarnation changed in the meantime.
func (rj *rejuvenator) restart(idx int) {
	if rj.restarting[idx] {
		return
	}
	now, at := rj.kernel.Now(), rj.kernel.NowTime()
	if !rj.restartCap.Allow(at) {
		rj.suppressed++
		retry := rj.restartCap.Oldest().Add(proteus.DefaultRestartWindow).Sub(at)
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		old := rj.replicas[idx]
		rj.kernel.After(retry, func() {
			if rj.replicas[idx] == old { // still the sick incarnation
				rj.restart(idx)
			}
		})
		return
	}
	rj.restartCap.Record(at)
	rj.peak = max(rj.peak, rj.restartCap.Len())
	rj.restarting[idx] = true
	rj.perHost[idx]++
	rj.restarts++

	// Kill the sick incarnation. Work it accepted but has not finished is
	// lost; clients' deadline/give-up machinery absorbs that, exactly as
	// for a crash.
	old := rj.replicas[idx]
	old.crash()
	rj.retired = append(rj.retired, old)
	delete(rj.byID, old.ID)

	boot := rj.bootDelay(idx)
	next := wire.ReplicaID(fmt.Sprintf("replica-%02d-r%d", idx, rj.perHost[idx]))
	rj.rec.Record(trace.Event{
		At: now, Kind: trace.KindRestart, Replica: old.ID, Duration: boot,
		Extra: map[string]string{"replacement": string(next)},
	})

	// The membership layer notices the kill after the detection delay …
	notify := func() { notifyMembership(rj.kernel, rj.replicas, rj.clients, rj.rec) }
	rj.kernel.After(rj.detectionDelay, notify)
	// … and the replacement boots after the (backed-off) restart delay,
	// with a fresh identity so every client re-admits it via probation.
	rj.kernel.After(boot, func() {
		nr := newReplica(rj.kernel, next, idx, rj.specs[idx], rj.rng.Split())
		if rj.stateTransfer > 0 {
			// The replacement boots empty: its reports must not claim a
			// caught-up state machine until the transfer window elapses, so
			// a RequireStateTransfer lifecycle keeps it in probation.
			nr.caughtUpAt = rj.kernel.Now() + rj.stateTransfer
			rj.kernel.After(rj.stateTransfer, func() {
				if rj.replicas[idx] == nr && !nr.crashed {
					rj.transfers++
				}
			})
		}
		rj.replicas[idx] = nr
		rj.byID[next] = nr
		rj.restarting[idx] = false
		notify()
	})
}

// bootDelay returns restartDelay doubled per prior restart of this host,
// capped at maxBootDelay. perHost was already incremented for the restart
// being planned, so the first restart boots at the base delay.
func (rj *rejuvenator) bootDelay(idx int) time.Duration {
	d := restartDelay
	for i := 1; i < rj.perHost[idx]; i++ {
		d *= 2
		if d >= maxBootDelay {
			return maxBootDelay
		}
	}
	return d
}

// notifyMembership is the membership service's detection event: it pushes
// the incarnations still up to every client and traces the view.
func notifyMembership(k *Kernel, replicas []*Replica, clients []*Client, rec *trace.Recorder) {
	var live []wire.ReplicaID
	for _, r := range replicas {
		if !r.crashed {
			live = append(live, r.ID)
		}
	}
	for _, c := range clients {
		c.sched.OnMembershipChange(live, k.NowTime())
	}
	rec.Record(trace.Event{At: k.Now(), Kind: trace.KindMembership, Targets: live})
}
