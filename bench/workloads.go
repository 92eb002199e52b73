package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"aqua"
)

// workload is one named traffic mix and the cluster it runs against.
type workload struct {
	name  string
	why   string // one line; BENCHMARK.json repeats it for the gated workloads
	gated bool   // listed in BENCHMARK.json: the driver runs it and holds later PRs to its bounds

	closed bool    // closed loop, one caller; otherwise open-loop Poisson
	rate   float64 // open loop: offered calls per second

	replicas  int
	tcp       bool // loopback TCP instead of the in-memory transport
	payload   int  // request bytes
	ordered   bool // state-machine replicas and an Ordered client
	guarded   bool // the shipped overload configuration instead of paper-exact Algorithm 1
	loadMean  time.Duration
	loadSigma time.Duration
	qos       aqua.QoS

	// warmCalls sequential calls end set-up (dials done, windows full, memo
	// warm). They are not paced, so they stay well under the 1024 frames an
	// endpoint queues: the replica that loses every race may fall that far
	// behind, and past a full queue frames are dropped.
	warmCalls   int
	setups      int     // set-ups of a run that reports setup_s, which is their median: more where one is cheap
	fullSeconds float64 // measured window when the full command runs it
}

const (
	service      = "bench"
	clientName   = "loadgen"
	smallPayload = 64
	bulkPayload  = 32 << 10
	warmSeconds  = 3.0
	inFlightCap  = 1024
	// Closed loop (caller.hold): the caller looks every holdEvery calls and
	// stands aside while the replicas are more than maxBacklog frames behind,
	// which keeps every queue far from its limit (TCP send queues hold 256
	// frames, receive queues 1024). It yields up to maxYields times, then
	// sleeps pacerTick at a time (shorter sleeps return no sooner on the
	// sizing VM, env.sleep_overshoot_us), and after lostAfterTicks sleeps
	// during which nothing was served it stops waiting for what is missing.
	holdEvery      = 16
	maxBacklog     = 64
	maxYields      = 1000
	pacerTick      = time.Millisecond
	lostAfterTicks = 20
	// openMaxWait is ClientConfig.MaxWait on the open-loop workloads: far past
	// the deadline, as in internal/experiment/faults.go, so that a reply that
	// comes late is a timing failure (untimely) and not a failed operation.
	// The default, 10 x the deadline, turns every call of a run that has
	// collapsed into select-all into an error. rate x openMaxWait stays under
	// inFlightCap.
	openMaxWait   = 3 * time.Second
	simulatedMean = 5 * time.Millisecond // >= 5 ms: below that the kernel timer, not the selector, is measured
	simulatedSD   = 2500 * time.Microsecond
)

var (
	floorQoS = aqua.QoS{Deadline: 100 * time.Millisecond, MinProbability: 0.9}
	paperQoS = aqua.QoS{Deadline: 15 * time.Millisecond, MinProbability: 0.9}
)

var workloads = []workload{
	{
		name: "floor_inmem", gated: true, closed: true, replicas: 4, payload: smallPayload, qos: floorQoS,
		warmCalls: 400, setups: 25, fullSeconds: 15,
		why: "closed loop, 1 caller, 4 zero-service replicas, in-memory: the paper's E0 floor; gateway, core, server and queue do all the work, on both cores, so a per-call CPU or allocation cut shows here",
	},
	{
		name: "floor_tcp", gated: true, closed: true, replicas: 4, tcp: true, payload: smallPayload, qos: floorQoS,
		warmCalls: 400, setups: 15, fullSeconds: 15,
		why: "as floor_inmem over loopback TCP: codec, send queues and syscalls take most of the time, so a transport change must move this and leave floor_inmem alone",
	},
	{
		name: "bulk_tcp", closed: true, replicas: 4, tcp: true, payload: bulkPayload, qos: floorQoS,
		warmCalls: 400, setups: 9, fullSeconds: 12,
		why: "as floor_tcp with a 32 KiB request echoed back: transport and wire cost per byte instead of per frame; a pooling or framing change that helps small frames and hurts large ones shows here",
	},
	{
		name: "ordered_inmem", closed: true, replicas: 3, ordered: true, payload: smallPayload, qos: floorQoS,
		warmCalls: 400, setups: 25, fullSeconds: 15,
		why: "closed loop, 1 caller, 3 state-machine replicas, Ordered client, in-memory: writes through stamping, hold-back, in-order apply and gap refills; a stateless speed-up at their expense shows here",
	},
	{
		name: "paper_lo", gated: true, rate: 100, replicas: 8, payload: smallPayload, qos: paperQoS,
		loadMean: simulatedMean, loadSigma: simulatedSD, warmCalls: 100, setups: 5, fullSeconds: 24,
		why: "open loop, Poisson 100 calls/s, 8 replicas serving N(5 ms, 2.5 ms), deadline 15 ms, Algorithm 1: the paper's promise in its healthy regime; model, selection and the replica FIFO decide the outcome",
	},
	{
		name: "paper_hi", gated: true, rate: 150, replicas: 8, payload: smallPayload, qos: paperQoS,
		loadMean: simulatedMean, loadSigma: simulatedSD, warmCalls: 100, setups: 5, fullSeconds: 24,
		why: "as paper_lo at 150 calls/s: the knee where the promise is already broken and |K| inflates but the run is still stable; load-spreading, budget or admission changes show here and not on paper_lo",
	},
	{
		name: "guarded_mid", rate: 250, replicas: 8, payload: smallPayload, qos: paperQoS, guarded: true,
		loadMean: simulatedMean, loadSigma: simulatedSD, warmCalls: 100, setups: 5, fullSeconds: 24,
		why: "as paper_lo at 250 calls/s with the shipped overload configuration (budgeted selection, adaptive budget, cancel on first reply, admission at 64): the only workload where cancels purge losers",
	},
}

// gatedWorkloads are the workloads BENCHMARK.json lists. The contract's time
// limit for all of the driver's runs buys four workloads at 25 s each, and
// these four can promise that no operation fails; README, "Which workloads
// are gated", says what keeps the other three out.
func gatedWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		if w.gated {
			out = append(out, w)
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// transportNote states what the traffic crossed, so no number is read as a
// link rate.
func (w workload) transportNote() string {
	if w.tcp {
		return "traffic crosses the host's loopback interface (TCP); no number here is a link rate"
	}
	return "traffic crosses the in-process in-memory transport; no number here is a link rate"
}

func (w workload) clientConfig() aqua.ClientConfig {
	cfg := aqua.ClientConfig{Name: clientName, QoS: w.qos, Ordered: w.ordered}
	if !w.closed {
		cfg.MaxWait = openMaxWait
	}
	if w.guarded {
		cfg.Strategy = aqua.BudgetedSelection()
		cfg.AdaptiveBudget = &aqua.AdaptiveBudgetConfig{}
		cfg.CancelOnFirstReply = true
		cfg.Overload.MaxInFlight = 64
		cfg.ShedRetryDelay = -1
	}
	return cfg
}

// Request and reply format. A request is nonce ‖ filler. The stateless
// handler echoes it with the last four bytes replaced by the CRC-32 of the
// rest; the log machine answers nonce ‖ crc32(request) ‖ index ‖ chain.
const (
	nonceLen = 8
	crcLen   = 4
	ackLen   = nonceLen + crcLen + 16
)

// newRequest builds one request. The transport may hand the same slice to
// several replicas and a losing replica may still read it after Call has
// returned, so every call gets its own copy of the filler.
func newRequest(filler []byte, nonce uint64) []byte {
	p := make([]byte, len(filler))
	copy(p, filler)
	binary.LittleEndian.PutUint64(p, nonce)
	return p
}

func echoHandler(_ string, payload []byte) ([]byte, error) {
	if len(payload) < nonceLen+crcLen {
		return nil, fmt.Errorf("bench: short request (%d bytes)", len(payload))
	}
	out := make([]byte, len(payload))
	body := len(payload) - crcLen
	copy(out, payload[:body])
	binary.LittleEndian.PutUint32(out[body:], crc32.ChecksumIEEE(payload[:body]))
	return out, nil
}

// checkEcho verifies a stateless reply against the request that caused it.
func checkEcho(req, reply []byte) bool {
	if len(reply) != len(req) {
		return false
	}
	body := len(req) - crcLen
	return string(reply[:body]) == string(req[:body]) &&
		binary.LittleEndian.Uint32(reply[body:]) == crc32.ChecksumIEEE(req[:body])
}

// ack is an acknowledged ordered write: the log position the replying
// replica applied it at and the chain hash of the log up to there.
type ack struct{ index, chain uint64 }

// checkAck verifies an ordered reply and extracts the acknowledgement.
func checkAck(req, reply []byte) (ack, bool) {
	if len(reply) != ackLen ||
		string(reply[:nonceLen]) != string(req[:nonceLen]) ||
		binary.LittleEndian.Uint32(reply[nonceLen:]) != crc32.ChecksumIEEE(req) {
		return ack{}, false
	}
	return ack{
		index: binary.LittleEndian.Uint64(reply[nonceLen+crcLen:]),
		chain: binary.LittleEndian.Uint64(reply[nonceLen+crcLen+8:]),
	}, true
}

// mix64 is the splitmix64 finaliser: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// logMachine is the append-only log state machine of ordered_inmem. Its
// state is the number of entries and a hash chained over them, so a snapshot
// is 16 bytes however long the run (the runtime snapshots every 64 applies).
//
// seen is bench-side evidence, not replicated state: seen[i] is the chain
// hash this replica has held after entry i+1, whether it got there by its own
// Apply or by a Restore, and 0 where a Restore skipped over entries. Evidence
// is never erased, so a replica that acknowledged one history and was later
// restored to another is found out: conflict records the first log index at
// which this replica held two different hashes.
type logMachine struct {
	mu       sync.Mutex
	n        uint64 // entries applied or restored
	head     uint64 // chain hash after entry n
	seen     []uint64
	conflict uint64
}

// hold records that the log now stands at m.n entries with hash m.head.
func (m *logMachine) hold() {
	if m.n == 0 {
		return
	}
	for uint64(len(m.seen)) < m.n {
		m.seen = append(m.seen, 0)
	}
	switch old := m.seen[m.n-1]; {
	case old == 0:
		m.seen[m.n-1] = m.head
	case old != m.head && m.conflict == 0:
		m.conflict = m.n
	}
}

func (m *logMachine) Apply(_ string, payload []byte) ([]byte, error) {
	if len(payload) < nonceLen {
		return nil, fmt.Errorf("bench: short write (%d bytes)", len(payload))
	}
	m.mu.Lock()
	m.n, m.head = m.n+1, mix64(m.head^binary.LittleEndian.Uint64(payload))
	m.hold()
	index, head := m.n, m.head
	m.mu.Unlock()

	out := make([]byte, ackLen)
	copy(out, payload[:nonceLen])
	binary.LittleEndian.PutUint32(out[nonceLen:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(out[nonceLen+crcLen:], index)
	binary.LittleEndian.PutUint64(out[nonceLen+crcLen+8:], head)
	return out, nil
}

func (m *logMachine) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, m.n)
	binary.LittleEndian.PutUint64(out[8:], m.head)
	return out, nil
}

func (m *logMachine) Restore(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch len(snapshot) {
	case 0:
		m.n, m.head = 0, 0
	case 16:
		m.n, m.head = binary.LittleEndian.Uint64(snapshot), binary.LittleEndian.Uint64(snapshot[8:])
		m.hold()
	default:
		return fmt.Errorf("bench: snapshot of %d bytes", len(snapshot))
	}
	return nil
}

// logSet collects the machines of one cluster for the end-of-run check.
type logSet struct {
	mu       sync.Mutex
	machines []*logMachine
}

func (s *logSet) newMachine() *logMachine {
	m := &logMachine{}
	s.mu.Lock()
	s.machines = append(s.machines, m)
	s.mu.Unlock()
	return m
}

// verify checks prefix agreement (no replica ever held two hashes at one log
// position, and wherever two replicas both know the hash at a position it is
// the same hash, so every applied log is a prefix of the longest) and that
// every acknowledged write sits in the log at the position and with the
// history its reply claimed. It returns the length of every replica's log.
func (s *logSet) verify(acks []ack) (lengths []uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ref []uint64
	for r, m := range s.machines {
		m.mu.Lock()
		lengths = append(lengths, m.n)
		conflict, seen := m.conflict, append([]uint64(nil), m.seen...)
		m.mu.Unlock()
		if conflict != 0 && err == nil {
			err = fmt.Errorf("ordered state diverged: replica %d held two histories at log index %d", r, conflict)
		}
		for i, h := range seen {
			if i == len(ref) {
				ref = append(ref, 0)
			}
			switch {
			case h == 0:
			case ref[i] == 0:
				ref[i] = h
			case ref[i] != h && err == nil:
				err = fmt.Errorf("ordered state diverged: replica %d disagrees at log index %d", r, i+1)
			}
		}
	}
	if err != nil {
		return lengths, fmt.Errorf("%w (applied log lengths %v)", err, lengths)
	}
	for _, a := range acks {
		switch {
		case a.index == 0 || a.index > uint64(len(ref)):
			return lengths, fmt.Errorf("acknowledged write at log index %d is beyond every log (applied log lengths %v)", a.index, lengths)
		case ref[a.index-1] == 0:
			return lengths, fmt.Errorf("acknowledged write at log index %d was applied by no replica (applied log lengths %v)", a.index, lengths)
		case ref[a.index-1] != a.chain:
			return lengths, fmt.Errorf("acknowledged write at log index %d carries a history no replica holds (applied log lengths %v)", a.index, lengths)
		}
	}
	return lengths, nil
}

// counters is everything read from outside the system at one instant; two of
// them bracket a measured window.
type counters struct {
	stats    aqua.Stats
	served   []uint64 // per replica, stable order
	refills  uint64
	reg, def aqua.MetricsSnapshot // the cluster's registry; the process-wide one (replica counters)
	mallocs  uint64
	bytes    uint64
	cpu      time.Duration
}

// system is a running cluster plus one client gateway, built either through
// the public aqua API (untraced) or from the internal packages (traced).
type system struct {
	call     func(payload []byte) ([]byte, error)
	observe  func(*counters)              // fills stats, served, refills, reg
	progress func() (sent, served uint64) // requests selected so far, and served by the replicas
	logs     *logSet                      // ordered workloads only
	close    func()
}

func (s *system) snapshot() counters {
	var c counters
	s.observe(&c)
	c.def = aqua.Metrics()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	c.cpu = cpuTime()
	return c
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// buildPublic assembles the workload's cluster and client through the public
// aqua API — the stack every end-to-end number is taken from.
func buildPublic(w workload, seed int64) (*system, error) {
	reg := aqua.NewMetricsRegistry()
	opts := []aqua.ClusterOption{aqua.WithSeed(seed), aqua.WithMetrics(reg)}
	if w.tcp {
		opts = append(opts, aqua.WithTCP())
	}
	if w.loadMean > 0 {
		opts = append(opts, aqua.WithSimulatedLoad(w.loadMean, w.loadSigma))
	}
	var logs *logSet
	if w.ordered {
		logs = &logSet{}
		opts = append(opts, aqua.WithStateMachine(func() aqua.StateMachine { return logs.newMachine() }))
	}
	cluster, err := aqua.NewCluster(service, w.replicas, echoHandler, opts...)
	if err != nil {
		return nil, err
	}
	client, err := cluster.NewClient(w.clientConfig())
	if err != nil {
		cluster.Close()
		return nil, err
	}
	replicas := cluster.Replicas()
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].ID() < replicas[j].ID() })
	ctx := context.Background()
	return &system{
		call: func(p []byte) ([]byte, error) { return client.Call(ctx, "", p) },
		observe: func(c *counters) {
			c.stats = client.Stats()
			c.served = make([]uint64, len(replicas))
			for i, r := range replicas {
				c.served[i] = r.Served()
			}
			c.refills = client.OrderedStats().RefillsServed
			c.reg = cluster.Metrics()
		},
		progress: func() (sent, served uint64) {
			for _, r := range replicas {
				served += r.Served()
			}
			return client.Stats().SelectedTotal, served
		},
		logs: logs,
		close: func() {
			client.Close()
			cluster.Close()
		},
	}, nil
}

// setUp builds the system and makes the sequential warm calls that end
// set-up, checking every reply; it returns the wall time of both.
func setUp(w workload, seed int64, warmCalls int, build func(workload, int64) (*system, error)) (*system, time.Duration, error) {
	start := time.Now()
	sys, err := build(w, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("building %s: %w", w.name, err)
	}
	filler := makeFiller(w.payload, seed)
	base := nonceBase(seed) | 1<<63
	for i := 0; i < warmCalls; i++ {
		req := newRequest(filler, base+uint64(i))
		reply, err := sys.call(req)
		if err != nil {
			if classify(err) == errRace {
				continue // the known Dispatched race; counted in the measured window, tolerated here
			}
			sys.close()
			return nil, 0, fmt.Errorf("warm call %d of %s: %w", i, w.name, err)
		}
		if !replyOK(w, req, reply) {
			sys.close()
			return nil, 0, fmt.Errorf("warm call %d of %s: %w", i, w.name, errWrongReplyBytes)
		}
	}
	return sys, time.Since(start), nil
}

var errWrongReplyBytes = errors.New("reply does not match its request")

func replyOK(w workload, req, reply []byte) bool {
	if w.ordered {
		_, ok := checkAck(req, reply)
		return ok
	}
	return checkEcho(req, reply)
}

// makeFiller derives the request filler from the seed.
func makeFiller(size int, seed int64) []byte {
	p := make([]byte, size)
	x := uint64(seed)
	for i := nonceLen; i < size; i++ {
		if i%8 == 0 {
			x = mix64(x + 0x9e3779b97f4a7c15)
		}
		p[i] = byte(x >> (8 * (i % 8)))
	}
	return p
}
