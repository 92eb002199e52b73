package experiment

import (
	"fmt"
	"runtime"
	"time"

	"aqua/internal/core"
	"aqua/internal/proteus"
	"aqua/internal/sim"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// The §5.4 chaos soak a14 and a18 share: two closed-loop clients against a
// pool of ~25 ms hosts while a deterministic fault schedule turns host 1
// persistently slow and crashes host 2, with the full lifecycle loop
// (suspicion → quarantine → rejuvenation → probation re-admission) enabled.
// The soak is an acceptance harness, not just a table: a missed recovery
// bound is an error.
const (
	soakDeadline = 60 * time.Millisecond
	soakPc       = 0.9
	// soakRecovery bounds how long after a fault clears the pool may take to
	// deliver >= Pc timely again. It covers a staleness re-probe cycle, a
	// quarantine window refill, a restart, and a probation warm-up.
	soakRecovery   = 5 * time.Second
	soakStaleness  = 750 * time.Millisecond
	soakProbeEvery = 100 * time.Millisecond
)

// soakPlan is one soak's pool size, per-client request count and fault
// schedule (virtual time).
type soakPlan struct {
	hosts               int
	requests            int
	slowFrom, slowUntil time.Duration // host 1 persistently slow
	crashAt             time.Duration // host 2 crash-stops for good
}

// scenario builds the soak. Deterministic for a fixed seed: the virtual
// kernel, the split random streams, and the fixed fault schedule leave no
// wall-clock dependence.
func (p soakPlan) scenario(seed int64) sim.Scenario {
	replicas := pool(p.hosts, sim.ReplicaSpec{
		Service: stats.Normal{Mu: 25 * time.Millisecond, Sigma: 5 * time.Millisecond},
	})
	// Host 1 turns persistently slow — every reply blows the deadline until
	// the host "heals" at slowUntil. Rejuvenation restarts it, but the window
	// is host-level, so replacements stay sick until then (the case the
	// storm cap exists for).
	replicas[1].Slow = stats.Constant{Delay: 150 * time.Millisecond}
	replicas[1].SlowFrom = p.slowFrom
	replicas[1].SlowUntil = p.slowUntil
	// Host 2 crashes outright and stays down: the classic §5.4 crash fault,
	// absorbed by membership detection rather than the lifecycle loop.
	replicas[2].CrashAt = p.crashAt

	client := sim.ClientSpec{
		QoS:      wire.QoS{Deadline: soakDeadline, MinProbability: soakPc},
		Requests: p.requests,
		Think:    20 * time.Millisecond,
	}
	return sim.Scenario{
		Replicas:       replicas,
		Clients:        []sim.ClientSpec{client, client},
		Network:        sim.NetworkModel{Base: stats.Constant{Delay: 500 * time.Microsecond}},
		StalenessBound: soakStaleness,
		Lifecycle: core.LifecycleConfig{
			Enabled:         true,
			WindowSize:      12,
			MinObservations: 6,
		},
		ProbeInterval: soakProbeEvery,
		Rejuvenation:  sim.RejuvenationSpec{Enabled: true},
		Seed:          seed,
		MaxTime:       10 * time.Minute,
	}
}

// soakWindow is one quiet slice of a soak: requests issued in [from, until),
// whose timely fraction must reach soakPc.
type soakWindow struct {
	name  string
	from  time.Duration
	until time.Duration
}

// windowTally is one window measured across every client's records.
type windowTally struct {
	soakWindow
	issued, timely int
	frac           float64
	ok             bool
}

// checkWindows measures each window and reports every one below soakPc
// through fail.
func checkWindows(res *sim.Result, windows []soakWindow, fail func(format string, args ...any)) []windowTally {
	tallies := make([]windowTally, len(windows))
	for i, w := range windows {
		tw := windowTally{soakWindow: w}
		for _, c := range res.Clients {
			for _, rec := range c.Records {
				if rec.IssuedAt < w.from || rec.IssuedAt >= w.until {
					continue
				}
				tw.issued++
				if rec.Timely() {
					tw.timely++
				}
			}
		}
		if tw.issued > 0 {
			tw.frac = float64(tw.timely) / float64(tw.issued)
		}
		tw.ok = tw.issued > 0 && tw.frac >= soakPc
		if !tw.ok {
			fail("window %q: timely %d/%d = %.3f below Pc=%.2f", w.name, tw.timely, tw.issued, tw.frac, soakPc)
		}
		tallies[i] = tw
	}
	return tallies
}

// checkLifecycle reports through fail every lifecycle bound the finished
// soak sc missed: the slow host must be quarantined and restarted at least
// once within the storm cap, every simulated state transfer sc asks for must
// complete, no quarantined or probation replica may be selected while a
// selectable one exists, and every scheduler must drain its pending table.
func checkLifecycle(sc sim.Scenario, res *sim.Result, fail func(format string, args ...any)) {
	if res.Quarantines < 1 {
		fail("no quarantine recorded; the slow host was never ejected")
	}
	if res.Restarts < 1 {
		fail("no rejuvenation restart recorded")
	}
	if res.PeakRestartsPerWindow > proteus.DefaultMaxRestartsPerWindow {
		fail("%d restarts inside one %v window exceed the storm cap %d",
			res.PeakRestartsPerWindow, proteus.DefaultRestartWindow, proteus.DefaultMaxRestartsPerWindow)
	}
	if sc.StateTransfer > 0 && res.StateTransfers < 1 {
		fail("no rejuvenated incarnation completed its state transfer")
	}
	if res.ProbationViolations != 0 {
		fail("%d probation/quarantine replicas appeared in selections", res.ProbationViolations)
	}
	for i, c := range res.Clients {
		if c.Outstanding != 0 {
			fail("client %d leaked %d pending entries", i, c.Outstanding)
		}
	}
}

// A14 runs the soak on five hosts for ~90 seconds of virtual time and adds
// the third timing-fault class the paper names, an overloaded link.
const (
	a14SlowFrom  = 10 * time.Second
	a14SlowUntil = 30 * time.Second
	a14CrashAt   = 45 * time.Second
	a14LinkFrom  = 60 * time.Second
	a14LinkUntil = 70 * time.Second
	a14SoakEnd   = 88 * time.Second
	// a14Seed keeps `make a14` reproducible run to run.
	a14Seed = 1400
)

var a14Plan = soakPlan{hosts: 5, requests: 1900, slowFrom: a14SlowFrom, slowUntil: a14SlowUntil, crashAt: a14CrashAt}

// a14Windows are the quiet windows where the Pc bound must hold: before any
// fault, and after each fault clears plus the recovery grace.
func a14Windows() []soakWindow {
	return []soakWindow{
		{name: "baseline", from: 2 * time.Second, until: a14SlowFrom},
		{name: "post-slow", from: a14SlowUntil + soakRecovery, until: a14CrashAt},
		{name: "post-crash", from: a14CrashAt + soakRecovery, until: a14LinkFrom},
		{name: "post-link", from: a14LinkUntil + soakRecovery, until: a14SoakEnd},
	}
}

// RunA14 executes the chaos soak and enforces its acceptance criteria:
//
//   - after each injected fault clears, the timely fraction over the next
//     quiet window is back at >= Pc (recovery within soakRecovery);
//   - the lifecycle bounds of checkLifecycle hold;
//   - the soak spawns no goroutines (virtual kernel, single-threaded).
//
// Violations return an error so `make a14` fails loudly in CI.
func RunA14() (*Table, error) {
	gBefore := runtime.NumGoroutine()
	sc := a14Plan.scenario(a14Seed)
	// Host 3's link degrades for ten seconds: replies survive but arrive
	// ~100ms late in each direction, the paper's overloaded-link class.
	sc.Faults = []sim.LinkFault{{
		Replica: 3, From: a14LinkFrom, Until: a14LinkUntil,
		ExtraDelay: stats.Constant{Delay: 100 * time.Millisecond},
	}}
	res, err := sim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("experiment: a14 soak: %w", err)
	}

	t := &Table{
		Title: fmt.Sprintf("A14: §5.4 chaos soak (%d hosts @ ~25ms, deadline=%v, Pc=%.1f, slow/crash/link churn over %v virtual)",
			a14Plan.hosts, soakDeadline, soakPc, a14SoakEnd),
		Columns: []string{"window", "issued", "timely", "timely_frac", "floor", "ok"},
		Notes: []string{
			fmt.Sprintf("slow host 1 in [%v,%v); host 2 crashes at %v; host 3 link +100ms/way in [%v,%v)", a14SlowFrom, a14SlowUntil, a14CrashAt, a14LinkFrom, a14LinkUntil),
			fmt.Sprintf("recovery bound: timely fraction back at >= Pc within %v of each fault clearing", soakRecovery),
			"lifecycle: suspicion window 12 (min 6 obs), probe warm-up every " + soakProbeEvery.String() + ", rejuvenation restart delay 250ms",
		},
	}

	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("experiment: a14: "+format, args...)
		}
	}
	for _, w := range checkWindows(res, a14Windows(), fail) {
		t.Rows = append(t.Rows, []string{
			w.name, fmt.Sprintf("%d", w.issued), fmt.Sprintf("%d", w.timely),
			f3(w.frac), f2(soakPc), fmt.Sprintf("%v", w.ok),
		})
	}
	checkLifecycle(sc, res, fail)
	// The whole soak runs on the caller's goroutine inside the virtual
	// kernel; anything left over is a leak.
	if gAfter := runtime.NumGoroutine(); gAfter > gBefore {
		fail("goroutines grew %d -> %d over the soak", gBefore, gAfter)
	}

	t.Rows = append(t.Rows, []string{
		"lifecycle",
		fmt.Sprintf("quarantines=%d", res.Quarantines),
		fmt.Sprintf("restarts=%d peak=%d", res.Restarts, res.PeakRestartsPerWindow),
		fmt.Sprintf("suppressed=%d", res.RestartsSuppressed),
		fmt.Sprintf("violations=%d", res.ProbationViolations),
		fmt.Sprintf("%v", firstErr == nil),
	})
	return t, firstErr
}
