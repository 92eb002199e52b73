package experiment

// a18 — ordered-mode lifecycle model check + recovery soak.
//
// Part 1 is a model-checker-style exhaustive sweep over small configurations
// of the REAL stack: live replicas and a live ordered gateway over the
// in-memory transport, with the fault injector supplying duplicate,
// reordered, and lost frames. Configurations enumerate pool size (2–4
// replicas) × crash/restart schedule × injector policy, each under a fixed
// seed. Every run is held to the ordered mode's safety contract:
//
//   - prefix agreement: every replica's applied history is a prefix of the
//     longest one (no divergence, no holes);
//   - no lost acknowledged writes: every operation the client saw succeed
//     is present in the longest history;
//   - re-admission implies caught-up: a replacement replica never claims a
//     caught-up state machine without a completed state transfer (sampled
//     continuously while the replacement recovers).
//
// The crash schedules bracket the analytic fault ceiling: with f ≤
// ⌈(n−1)/2⌉ − 1 crash-stops a caught-up majority survives and the mode
// stays live as well as safe; the "ceiling" schedule kills ⌈n/2⌉ members —
// past the bound — and is held to safety (and acked-write durability on the
// survivors) only, which is exactly what the bound permits.
//
// Part 2 is a virtual-time chaos soak of the recovery loop in the sim:
// a host turns persistently slow, is quarantined and rejuvenated, and every
// replacement boots empty — reporting CaughtUp=false until its simulated
// state transfer completes. Lifecycle.RequireStateTransfer must hold each
// one in probation until then (checked against the schedule trace), and the
// pool must return above Pc after each fault clears.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"aqua"
	"aqua/internal/server"
	"aqua/internal/sim"
	"aqua/internal/trace"
	"aqua/internal/wire"
)

// a18SM is the checking state machine: its state IS the applied operation
// sequence, so divergence cannot hide behind snapshot compaction. It counts
// the restores that carried a snapshot, so a sweep whose transfers never
// exercise one is caught.
type a18SM struct {
	mu           sync.Mutex
	ops          []string
	snapRestores int
}

func (m *a18SM) Apply(method string, payload []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = append(m.ops, method+":"+string(payload))
	return []byte(fmt.Sprintf("ok-%d", len(m.ops))), nil
}

func (m *a18SM) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []byte(strings.Join(m.ops, "\n")), nil
}

func (m *a18SM) Restore(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(snapshot) == 0 {
		m.ops = nil
		return nil
	}
	m.snapRestores++
	m.ops = strings.Split(string(snapshot), "\n")
	return nil
}

func (m *a18SM) history() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.ops...)
}

func (m *a18SM) snapshotRestores() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapRestores
}

// a18Tracker mints one a18SM per replica incarnation and remembers them
// all — including the machines of crashed and retired incarnations, whose
// frozen histories must still be prefixes of the live ones.
type a18Tracker struct {
	mu  sync.Mutex
	sms []*a18SM
}

func (tr *a18Tracker) factory() aqua.StateMachine {
	sm := &a18SM{}
	tr.mu.Lock()
	tr.sms = append(tr.sms, sm)
	tr.mu.Unlock()
	return sm
}

func (tr *a18Tracker) all() []*a18SM {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*a18SM(nil), tr.sms...)
}

// OrderedCheckConfig is one cell of the model-check sweep.
type OrderedCheckConfig struct {
	// Name identifies the cell; subtests and repro lines use it verbatim.
	Name string
	// Replicas is the pool size n.
	Replicas int
	// Schedule is the crash/restart plan:
	//   steady  — no failures;
	//   restart — one replica crash-stops mid-history, the dependability
	//             manager boots a replacement, and the replacement must
	//             complete state transfer before claiming caught-up;
	//   ceiling — ⌈n/2⌉ replicas crash-stop (past the analytic fault
	//             ceiling); only safety and survivor durability are owed.
	Schedule string
	// Faults is the injector policy on every link: clean, chaos (duplicate
	// + reordered frames), or lossy (background message loss).
	Faults string
	// Ops is the operation count (half before any scheduled crash).
	Ops int
	// Seed fixes the injector coins and the simulated load draws.
	Seed int64
}

// Schedule and fault-policy names.
const (
	a18Steady  = "steady"
	a18Restart = "restart"
	a18Ceiling = "ceiling"

	a18Clean = "clean"
	a18Chaos = "chaos"
	a18Lossy = "lossy"
)

// Per-config operation counts. a18CheckOps keeps the full sweep fast. A
// restart cell crashes its victim after Ops/2 operations, so a18RestartOps
// puts that point past one server.SnapshotEvery: the survivors have taken a
// periodic snapshot, and the replacement's transfer carries snapshot + log.
const (
	a18CheckOps      = 24
	a18RestartOps    = 2*server.SnapshotEvery + 12
	a18CheckSeedBase = 1800
)

// OrderedCheckConfigs enumerates the sweep: pool sizes 2–4 × three
// schedules × three injector policies, each with a deterministic seed.
func OrderedCheckConfigs() []OrderedCheckConfig {
	var out []OrderedCheckConfig
	for _, n := range []int{2, 3, 4} {
		for _, schedule := range []string{a18Steady, a18Restart, a18Ceiling} {
			ops := a18CheckOps
			if schedule == a18Restart {
				ops = a18RestartOps
			}
			for _, faults := range []string{a18Clean, a18Chaos, a18Lossy} {
				out = append(out, OrderedCheckConfig{
					Name:     fmt.Sprintf("n%d-%s-%s", n, schedule, faults),
					Replicas: n,
					Schedule: schedule,
					Faults:   faults,
					Ops:      ops,
					Seed:     a18CheckSeedBase + int64(len(out)),
				})
			}
		}
	}
	return out
}

// a18Policy translates a fault-policy name into the injector's default
// (every-link) policy.
func a18Policy(name string) (aqua.FaultPolicy, error) {
	switch name {
	case a18Clean:
		return aqua.FaultPolicy{}, nil
	case a18Chaos:
		// Duplicate and reordered frames on every link: the group layer's
		// delivery pathologies the stable-delivery queue exists for.
		return aqua.FaultPolicy{DupProb: 0.15, ReorderProb: 0.15}, nil
	case a18Lossy:
		// Background loss on every link — requests, replies, perf updates,
		// and state-transfer frames alike all draw the same coin.
		return aqua.FaultPolicy{DropProb: 0.05}, nil
	default:
		return aqua.FaultPolicy{}, fmt.Errorf("experiment: a18: unknown fault policy %q", name)
	}
}

// OrderedCheckResult is one completed model-check cell.
type OrderedCheckResult struct {
	Cfg OrderedCheckConfig
	// Acked is how many operations the client saw succeed.
	Acked int
	// Longest is the longest applied history across all incarnations.
	Longest int
	// Full is how many machines hold the full (longest) history.
	Full int
	// Transfers is the completed inbound state transfers across the pool.
	Transfers uint64
	// SnapshotRestores counts state-machine restores, across every
	// incarnation, that carried a non-empty snapshot.
	SnapshotRestores int
	// Violations lists every safety breach; empty means the cell passed.
	Violations []string
}

// Repro returns the one-line reproduction command for this cell.
func (c OrderedCheckConfig) Repro() string {
	return fmt.Sprintf("go test ./internal/experiment -run 'TestOrderedModelCheck/%s' -count=1", c.Name)
}

// RunOrderedCheck executes one cell of the sweep against the real stack.
func RunOrderedCheck(cfg OrderedCheckConfig) (*OrderedCheckResult, error) {
	policy, err := a18Policy(cfg.Faults)
	if err != nil {
		return nil, err
	}
	inj := aqua.NewFaultInjector(cfg.Seed)
	inj.SetDefault(policy)

	tr := &a18Tracker{}
	opts := []aqua.ClusterOption{
		aqua.WithStateMachine(tr.factory),
		aqua.WithFaultInjection(inj),
		aqua.WithSimulatedLoad(2*time.Millisecond, 500*time.Microsecond),
		aqua.WithSeed(cfg.Seed),
	}
	if cfg.Schedule == a18Restart {
		// The restart schedule needs the dependability manager (to boot the
		// replacement) and the lifecycle gate (to hold it in probation until
		// its state transfer completes).
		opts = append(opts,
			aqua.WithSelfHealing(),
			aqua.WithLifecycle(aqua.LifecycleConfig{ProbationSamples: 2}),
		)
	}
	cluster, err := aqua.NewCluster("a18", cfg.Replicas,
		func(method string, payload []byte) ([]byte, error) { return payload, nil },
		opts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: a18 %s: cluster: %w", cfg.Name, err)
	}
	defer cluster.Close()

	client, err := cluster.NewClient(aqua.ClientConfig{
		Name:          "a18-" + cfg.Name,
		QoS:           aqua.QoS{Deadline: 200 * time.Millisecond, MinProbability: 0.9},
		Strategy:      aqua.AllSelection(),
		Ordered:       true,
		ProbeInterval: 10 * time.Millisecond,
		MaxWait:       time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: a18 %s: client: %w", cfg.Name, err)
	}
	defer client.Close()

	res := &OrderedCheckResult{Cfg: cfg}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	initial := make(map[aqua.ReplicaID]bool)
	for _, r := range cluster.Replicas() {
		initial[r.ID()] = true
	}

	// Wait for every boot-join transfer to finish before driving load: the
	// sweep's subject is crash and recovery mid-stream, not the join race at
	// cluster build. (A not-yet-recovered replica correctly holds back all
	// live stamps, so starting early only measures the join.)
	if !waitUntil(5*time.Second, func() bool {
		for _, r := range cluster.Replicas() {
			if !r.CaughtUp() {
				return false
			}
		}
		return true
	}) {
		violate("pool never fully caught up at boot")
	}

	// Continuous re-admission monitor: any incarnation added after the start
	// that claims CaughtUp with zero completed transfers was re-admitted on
	// stale state. (A sole survivor legitimately boots fresh, but every
	// schedule here leaves the replacement at least one live peer.) The
	// monitor samples concurrently with the whole run.
	monitorStop := make(chan struct{})
	var monitorWG sync.WaitGroup
	var monitorMu sync.Mutex
	var monitorViolations []string
	monitorWG.Add(1)
	go func() {
		defer monitorWG.Done()
		flagged := make(map[aqua.ReplicaID]bool)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monitorStop:
				return
			case <-tick.C:
			}
			for _, r := range cluster.Replicas() {
				if initial[r.ID()] || flagged[r.ID()] {
					continue
				}
				if r.CaughtUp() && r.StateTransfers() == 0 {
					flagged[r.ID()] = true
					monitorMu.Lock()
					monitorViolations = append(monitorViolations,
						fmt.Sprintf("replacement %s claims caught-up without a completed state transfer", r.ID()))
					monitorMu.Unlock()
				}
			}
		}
	}()

	ctx := context.Background()
	var acked []string
	op := 0
	call := func() {
		payload := fmt.Sprintf("v%d", op)
		op++
		if _, err := client.Call(ctx, "set", []byte(payload)); err == nil {
			acked = append(acked, "set:"+payload)
		}
		// A failed call still consumed a stamp; the histories absorb it as an
		// unacknowledged entry, which the prefix check tolerates by design.
	}

	half := cfg.Ops / 2
	for i := 0; i < half; i++ {
		call()
	}

	switch cfg.Schedule {
	case a18Steady:
		// No failures.
	case a18Restart:
		replicas := cluster.Replicas()
		// Crash on a count, not an op index: a survivor that has applied
		// server.SnapshotEvery operations holds a snapshot, so whichever one
		// serves the replacement's transfer ships it.
		if !waitUntil(5*time.Second, func() bool {
			for _, r := range replicas[1:] {
				if r.OrderedTail() < server.SnapshotEvery {
					return false
				}
			}
			return true
		}) {
			violate("a survivor never applied %d ops before the crash", server.SnapshotEvery)
		}
		if err := cluster.StopReplica(replicas[0].ID()); err != nil {
			return nil, fmt.Errorf("experiment: a18 %s: stop: %w", cfg.Name, err)
		}
		// Wait for the manager's replacement to finish its state transfer
		// (recovery is driven by the peer-update, not by traffic).
		if !waitUntil(8*time.Second, func() bool {
			for _, r := range cluster.Replicas() {
				if !initial[r.ID()] && r.StateTransfers() > 0 && r.CaughtUp() {
					return true
				}
			}
			return false
		}) {
			violate("no replacement completed state transfer within 8s of the crash")
		}
	case a18Ceiling:
		// Kill ⌈n/2⌉ members — past the ⌈(n−1)/2⌉−1 crash ceiling. No
		// self-healing: the survivors carry the service, and only safety
		// plus acked-write durability are owed.
		kill := (cfg.Replicas + 1) / 2
		for _, r := range cluster.Replicas()[:kill] {
			if err := cluster.StopReplica(r.ID()); err != nil {
				return nil, fmt.Errorf("experiment: a18 %s: stop: %w", cfg.Name, err)
			}
		}
	default:
		return nil, fmt.Errorf("experiment: a18: unknown schedule %q", cfg.Schedule)
	}

	for i := half; i < cfg.Ops; i++ {
		call()
	}

	// Let in-flight stamps drain: with the All strategy every live replica
	// is a target, so the live tails converge on the acked count quickly.
	waitUntil(3*time.Second, func() bool {
		for _, sm := range tr.all() {
			if len(sm.history()) >= len(acked) {
				return true
			}
		}
		return false
	})

	close(monitorStop)
	monitorWG.Wait()
	res.Violations = append(res.Violations, monitorViolations...)

	// Safety: prefix agreement across every incarnation's machine.
	var longest []string
	for _, sm := range tr.all() {
		if h := sm.history(); len(h) > len(longest) {
			longest = h
		}
	}
	res.Longest = len(longest)
	for i, sm := range tr.all() {
		h := sm.history()
		for j, got := range h {
			if got != longest[j] {
				violate("machine %d diverges at op %d: %q != %q", i, j, got, longest[j])
				break
			}
		}
		if len(h) == len(longest) && len(h) > 0 {
			res.Full++
		}
	}

	// Safety: no lost acknowledged writes. Stamps are per-client sequential
	// and applied in order, so every acked op must appear in the longest
	// history (failed calls may interleave as unacked entries).
	res.Acked = len(acked)
	inLongest := make(map[string]int, len(longest))
	for _, opEntry := range longest {
		inLongest[opEntry]++
	}
	for _, a := range acked {
		if inLongest[a] == 0 {
			violate("acknowledged write %q is missing from the longest history", a)
		} else {
			inLongest[a]--
		}
	}

	for _, r := range cluster.Replicas() {
		res.Transfers += r.StateTransfers()
	}
	if cfg.Schedule == a18Restart && res.Transfers == 0 {
		violate("restart schedule completed without any state transfer")
	}
	for _, sm := range tr.all() {
		res.SnapshotRestores += sm.snapshotRestores()
	}
	if cfg.Schedule == a18Restart && res.SnapshotRestores == 0 {
		violate("restart schedule completed without restoring a snapshot")
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Part 2: the virtual-time recovery soak.

// A18 soak: four hosts run the shared chaos soak, and every rejuvenated
// incarnation pays a18Transfer of simulated state transfer before it may
// claim caught-up; RequireStateTransfer keeps it in probation until then.
const (
	a18SlowFrom  = 5 * time.Second
	a18SlowUntil = 15 * time.Second
	a18CrashAt   = 25 * time.Second
	a18SoakEnd   = 38 * time.Second
	a18Transfer  = 400 * time.Millisecond
	a18SoakSeed  = 1801
)

var a18Plan = soakPlan{hosts: 4, requests: 1000, slowFrom: a18SlowFrom, slowUntil: a18SlowUntil, crashAt: a18CrashAt}

// a18Windows are the quiet windows where the Pc floor must hold.
func a18Windows() []soakWindow {
	return []soakWindow{
		{name: "baseline", from: 2 * time.Second, until: a18SlowFrom},
		{name: "post-slow", from: a18SlowUntil + soakRecovery, until: a18CrashAt},
		{name: "post-crash", from: a18CrashAt + soakRecovery, until: a18SoakEnd},
	}
}

// runA18Soak executes the recovery soak and appends its rows to t, reporting
// the first violated bound through fail.
func runA18Soak(t *Table, fail func(format string, args ...any)) error {
	rec := trace.New()
	sc := a18Plan.scenario(a18SoakSeed)
	sc.Lifecycle.RequireStateTransfer = true
	sc.StateTransfer = a18Transfer
	sc.Trace = rec
	res, err := sim.Run(sc)
	if err != nil {
		return fmt.Errorf("experiment: a18 soak: %w", err)
	}

	soakFail := func(format string, args ...any) { fail("soak: "+format, args...) }
	for _, w := range checkWindows(res, a18Windows(), soakFail) {
		t.Rows = append(t.Rows, []string{
			"soak/" + w.name, fmt.Sprintf("%d", w.issued), fmt.Sprintf("%d", w.timely),
			f3(w.frac), "-", "-", fmt.Sprintf("%v", w.ok),
		})
	}
	checkLifecycle(sc, res, soakFail)

	// Re-admission gate, checked against the schedule trace: no selection
	// may target a rejuvenated incarnation before its boot + transfer time.
	boots := make(map[wire.ReplicaID]time.Duration)
	for _, ev := range rec.Filter(trace.KindRestart) {
		boots[wire.ReplicaID(ev.Extra["replacement"])] = ev.At + ev.Duration
	}
	early := 0
	for _, ev := range rec.Filter(trace.KindSchedule) {
		for _, id := range ev.Targets {
			bootAt, isReplacement := boots[id]
			if isReplacement && ev.At < bootAt+a18Transfer {
				early++
				soakFail("replacement %s selected at %v, before its transfer completed at %v",
					id, ev.At, bootAt+a18Transfer)
			}
		}
	}

	t.Rows = append(t.Rows, []string{
		"soak/lifecycle",
		fmt.Sprintf("quarantines=%d", res.Quarantines),
		fmt.Sprintf("restarts=%d peak=%d", res.Restarts, res.PeakRestartsPerWindow),
		fmt.Sprintf("transfers=%d", res.StateTransfers),
		fmt.Sprintf("early_selects=%d", early),
		"-",
		fmt.Sprintf("%v", res.ProbationViolations == 0 && early == 0),
	})
	return nil
}

// RunA18 executes the full a18 acceptance harness: the exhaustive model
// check over the real stack, then the virtual-time recovery soak. Any
// violation returns an error (so `make a18` fails loudly in CI) whose
// message carries the failing configuration, its seed, and a one-line
// reproduction command.
func RunA18() (*Table, error) {
	gBefore := runtime.NumGoroutine()

	t := &Table{
		Title: fmt.Sprintf("A18: ordered-mode lifecycle model check (pools of 2-4 × crash schedules × injector policies) + recovery soak (%d hosts, transfer=%v)",
			a18Plan.hosts, a18Transfer),
		Columns: []string{"config", "acked", "longest", "full", "transfers", "snap_restores", "ok"},
		Notes: []string{
			"safety per cell: prefix agreement across every incarnation, no lost acked writes, caught-up implies completed transfer",
			fmt.Sprintf("restart cells run %d ops, crash past one %d-op snapshot, and must restore at least one snapshot", a18RestartOps, server.SnapshotEvery),
			"ceiling schedule kills ceil(n/2) members — past the crash ceiling — and is held to safety only",
			fmt.Sprintf("soak: slow host in [%v,%v), crash at %v; RequireStateTransfer gates every rejuvenated incarnation for %v", a18SlowFrom, a18SlowUntil, a18CrashAt, a18Transfer),
		},
	}

	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("experiment: a18: "+format, args...)
		}
	}

	for _, cfg := range OrderedCheckConfigs() {
		res, err := RunOrderedCheck(cfg)
		if err != nil {
			fail("config %s (seed %d): %v — repro: %s", cfg.Name, cfg.Seed, err, cfg.Repro())
			t.Rows = append(t.Rows, []string{cfg.Name, "-", "-", "-", "-", "-", "error"})
			continue
		}
		ok := len(res.Violations) == 0
		if !ok {
			fail("config %s (seed %d): %s — repro: %s", cfg.Name, cfg.Seed, res.Violations[0], cfg.Repro())
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", res.Acked),
			fmt.Sprintf("%d", res.Longest),
			fmt.Sprintf("%d", res.Full),
			fmt.Sprintf("%d", res.Transfers),
			fmt.Sprintf("%d", res.SnapshotRestores),
			fmt.Sprintf("%v", ok),
		})
	}

	if err := runA18Soak(t, fail); err != nil {
		return nil, err
	}

	// The model-check clusters run live goroutines; give their teardown a
	// moment before the leak check.
	deadline := time.Now().Add(2 * time.Second)
	gAfter := runtime.NumGoroutine()
	for gAfter > gBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		gAfter = runtime.NumGoroutine()
	}
	if gAfter > gBefore {
		fail("goroutines grew %d -> %d over the run", gBefore, gAfter)
	}

	if firstErr != nil {
		return t, firstErr
	}
	return t, nil
}

// waitUntil polls cond every 2 ms until it holds or timeout passes, and
// reports whether it held.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
