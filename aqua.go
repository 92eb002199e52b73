// Package aqua is a Go reproduction of the timing-fault-tolerant replica
// selection system from "A Dynamic Replica Selection Algorithm for
// Tolerating Timing Faults" (Krishnamurthy, Sanders, Cukier — DSN 2001),
// originally built inside the AQuA CORBA middleware.
//
// A replicated, stateless service runs as a pool of server replicas. A
// client declares a QoS specification — a response deadline t and a minimum
// probability Pc with which the deadline must be met — and calls the service
// through a timing fault handler. Per request, the handler:
//
//   - predicts each replica's probability of responding within t from an
//     online model (empirical distributions of service time and queuing
//     delay over a sliding measurement window, plus the latest
//     gateway-to-gateway delay),
//   - selects the smallest replica subset whose combined probability of at
//     least one timely response meets Pc even if any single member crashes,
//   - multicasts the request to that subset and delivers the earliest reply,
//     harvesting performance data from every reply (duplicates included),
//   - detects timing failures and notifies the client through a callback
//     when the observed timely-response rate drops below Pc.
//
// # Quick start
//
//	cluster, err := aqua.NewCluster("search", 5, handler,
//	    aqua.WithSimulatedLoad(100*time.Millisecond, 50*time.Millisecond))
//	client, err := cluster.NewClient(aqua.QoS{
//	    Deadline:       150 * time.Millisecond,
//	    MinProbability: 0.9,
//	})
//	reply, err := client.Call(ctx, "lookup", []byte("query"))
//
// See the examples/ directory for runnable programs over both the
// in-process and the TCP transports.
package aqua

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aqua/internal/core"
	"aqua/internal/gateway"
	"aqua/internal/group"
	"aqua/internal/metrics"
	"aqua/internal/proteus"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// QoS is a client's quality-of-service specification: the deadline by which
// a response must arrive and the minimum probability with which that must
// happen (the paper's t and Pc(t)).
type QoS = wire.QoS

// ReplicaID identifies one replica of a service.
type ReplicaID = wire.ReplicaID

// Service names a replicated service.
type Service = wire.Service

// ViolationReport is delivered to the client's QoS callback when the
// observed frequency of timely responses falls below the requested minimum.
type ViolationReport = core.ViolationReport

// Stats is a snapshot of a client handler's counters.
type Stats = core.Stats

// LifecycleConfig enables the §5.4 replica-lifecycle loop on a client's
// scheduler: per-replica timing-fault suspicion windows, quarantine of
// persistently late replicas (excluded from selection, select-all fallback
// included), and probe-only probation for newly joined or restarted
// replicas until they have sent ProbationSamples reports. Set
// Enabled: true and pair with ClientConfig.ProbeInterval so probation
// replicas are warmed back in; zero value keeps the pre-lifecycle behavior.
type LifecycleConfig = core.LifecycleConfig

// SuspectReport announces one replica health transition (suspected,
// quarantined, cleared, re-admitted); see LifecycleConfig.OnSuspect.
type SuspectReport = core.SuspectReport

// Health is a replica's lifecycle state in a client's local repository.
type Health = repository.Health

// Replica lifecycle states.
const (
	HealthActive      = repository.Active
	HealthSuspected   = repository.Suspected
	HealthQuarantined = repository.Quarantined
	HealthProbation   = repository.Probation
)

// Handler is the application logic run by each replica.
type Handler = server.Handler

// StateMachine is the replicated application of an ordered service: Apply
// executes one operation, Snapshot serializes the full state, and Restore
// replaces it (nil snapshot = reset to initial state). The replica runtime
// serializes all three calls. Install one per replica with WithStateMachine
// and call through clients created with ClientConfig.Ordered.
type StateMachine = server.StateMachine

// Strategy selects the replica subset for each request. Build one with
// DynamicSelection and friends.
type Strategy = selection.Strategy

// DynamicSelection returns the paper's Algorithm 1: the minimal subset
// meeting the QoS with a single-crash reserve.
func DynamicSelection() Strategy { return selection.NewDynamic() }

// DynamicSelectionMulti generalizes Algorithm 1 to tolerate f simultaneous
// crashes.
func DynamicSelectionMulti(f int) Strategy { return selection.NewDynamicMulti(f) }

// SingleBestSelection picks only the most promising replica (no crash
// protection) — the classic lowest-expected-response-time baseline.
func SingleBestSelection() Strategy { return selection.SingleBest{} }

// AllSelection multicasts to every replica — AQuA's active replication.
func AllSelection() Strategy { return selection.All{} }

// BudgetedSelection wraps Algorithm 1 in a load-conditioned redundancy
// budget: as the mean per-replica outstanding work (queue depth plus
// in-flight copies) rises, the permitted |K| shrinks toward MinBudget, the
// select-all fallback is capped, and one forced-cold probe slot is kept so
// a drained replica is rediscovered. The single-crash reserve (Eq. 3) is
// never given up. Pair it with ClientConfig.Overload for admission control.
func BudgetedSelection() Strategy { return selection.NewBudgeted() }

// OverloadConfig enables admission control and the degradation ladder
// (Normal → Budgeted → Shedding, with hysteresis) on a client's scheduler.
// While degraded, the select-all fallback is capped at the m0 reserve plus
// the best remaining replica. The zero value disables admission control
// entirely. Transitions are counted in Stats.Degradations and exported as
// the aqua_sched_mode gauge and aqua_sched_degradations_total counter.
type OverloadConfig = core.OverloadConfig

// Mode is a scheduler degradation state (Normal, Budgeted, or Shedding).
type Mode = core.Mode

// Degradation-ladder states, least to most degraded.
const (
	ModeNormal   = core.ModeNormal
	ModeBudgeted = core.ModeBudgeted
	ModeShedding = core.ModeShedding
)

// ErrOverloaded is returned (wrapped) by Client.Call when the admission
// ceiling sheds the request instead of queueing it. Match with errors.Is.
var ErrOverloaded = core.ErrOverloaded

// AdaptiveBudgetConfig tunes the online redundancy controller (see
// ClientConfig.AdaptiveBudget). The budget's floor is the crash reserve plus
// one replica; MaxK defaults to the pool size at client creation.
type AdaptiveBudgetConfig = core.AdaptiveBudgetConfig

// ControllerStats is a snapshot of the adaptive budget controller's
// counters; see Client.ControllerStats.
type ControllerStats = core.ControllerStats

// MetricsRegistry holds named counters, gauges, and latency histograms.
// Every component reports to the process-wide default registry unless a
// cluster is built with WithMetrics.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's instruments.
type MetricsSnapshot = metrics.Snapshot

// MetricsServer is a running metrics/pprof HTTP endpoint.
type MetricsServer = metrics.Server

// NewMetricsRegistry returns an empty, isolated metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Metrics snapshots the process-wide default registry: every scheduler,
// gateway, prober, and transport not explicitly given its own registry
// reports here.
func Metrics() MetricsSnapshot { return metrics.Default().Snapshot() }

// ServeMetrics starts an HTTP server on addr (":0" picks a free port; read
// it back with Addr) exposing reg — or the default registry when reg is nil
// — as Prometheus text at /metrics, JSON at /metrics.json, and the standard
// pprof handlers under /debug/pprof/.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return metrics.Serve(addr, metrics.OrDefault(reg))
}

// ClientConfig configures a service client.
type ClientConfig struct {
	// Name identifies the client; must be unique within the cluster.
	Name string
	// QoS is the initial QoS specification.
	QoS QoS
	// Strategy overrides replica selection; nil means DynamicSelection().
	Strategy Strategy
	// WindowSize is the measurement sliding-window size l (0 = 5, as in
	// the paper's experiments).
	WindowSize int
	// CompensateOverhead subtracts the measured selection overhead δ from
	// the deadline when predicting (paper §5.3.3).
	CompensateOverhead bool
	// OnViolation receives QoS-violation callbacks. Must not block.
	OnViolation func(ViolationReport)
	// ProbeInterval, when positive, enables active probing of replicas
	// whose performance data has gone stale (paper §8).
	ProbeInterval time.Duration
	// StalenessBound, when positive, treats a replica whose performance
	// data is older than the bound as cold: the scheduler forces it into
	// the next selection so live traffic re-measures it. With Lifecycle
	// enabled this is what lets a routed-around slow replica keep accruing
	// fault evidence until it is quarantined, instead of lingering
	// half-forgotten.
	StalenessBound time.Duration
	// MaxWait bounds how long Call waits for a first reply; zero means 10×
	// the QoS deadline.
	MaxWait time.Duration
	// Overload configures admission control and the degradation ladder.
	// The zero value disables both (paper-exact behavior).
	Overload OverloadConfig
	// ShedRetryDelay is the backoff before Call retries a shed request
	// once. Zero means half the QoS deadline; negative disables the retry.
	ShedRetryDelay time.Duration
	// Lifecycle enables the replica suspicion/quarantine/probation loop for
	// this client. The zero value inherits the cluster's WithLifecycle
	// default (or stays disabled). On a self-healing cluster, quarantine
	// transitions are forwarded to the dependability manager, which retires
	// the sick replica and boots a replacement.
	Lifecycle LifecycleConfig
	// CancelOnFirstReply is ignored. Every client that is not Ordered
	// cancels, as soon as the first successful reply is delivered, each
	// losing copy that a Cancel can still save work at: a replica with
	// service and round-trip history whose median service exceeds its round
	// trip, and that was not cancelled on each of its last l selections. The
	// field remains so existing configurations keep compiling; its only
	// effect is that setting it with Ordered is refused.
	CancelOnFirstReply bool
	// AdaptiveBudget, when non-nil, installs the online redundancy
	// controller: it replaces the static load→|K| interpolation inside a
	// budgeted strategy with an epoch hill climb on measured timely
	// goodput. Effective only with a budget-aware Strategy
	// (BudgetedSelection); nil Strategy defaults to BudgetedSelection when
	// this is set. Zero MaxK means the pool size at client creation.
	AdaptiveBudget *AdaptiveBudgetConfig
	// GossipInterval, when positive, joins this client to the shared-
	// intelligence digest fabric: its repository's locally measured window
	// digests are pushed to peer gateways every GossipInterval (jittered in
	// [0.5, 1.5)) and peers' digests seed this client's predictions for
	// replicas it has no local history on (displaced sample-by-sample as
	// local measurements arrive). Zero leaves the fabric off. Wire the peer
	// set with ConnectGossip after minting the clients.
	GossipInterval time.Duration
	// Ordered runs this client in the ordered service mode: every request is
	// stamped with a per-client logical timestamp, replicas built with
	// WithStateMachine hold frames back and apply each client's operations in
	// stamp order, and the gateway answers replica gap-refill requests from a
	// bounded log of original frames. With Lifecycle enabled on a stateful
	// cluster, probation re-admission additionally requires a completed state
	// transfer (the replica's reports must claim CaughtUp). An Ordered client
	// never cancels a copy, and setting CancelOnFirstReply with it is refused:
	// purging a stamped request would hole the apply sequence.
	Ordered bool
	// DisablePerfSubscription opts this client out of the §5.4 per-request
	// performance-report subscription: it learns only from its own replies
	// and probes. This is the WAN/high-fan-out regime where per-request
	// publication to every gateway is too expensive and GossipInterval is the
	// intended channel for shared intelligence.
	DisablePerfSubscription bool
}

// GossipStats counts one client's digest-fabric activity; see
// Client.DigestStats.
type GossipStats = gateway.GossipStats

// ConnectGossip full-meshes the digest fabric over the given clients: each
// gossip-enabled client's peer set becomes every other client's transport
// address. Clients minted without GossipInterval are valid mesh members
// (their addresses are shared) but ignore the fabric themselves.
func ConnectGossip(clients ...*Client) {
	for _, self := range clients {
		peers := make([]transport.Addr, 0, len(clients)-1)
		for _, other := range clients {
			if other != self {
				peers = append(peers, other.addr)
			}
		}
		self.handler.SetGossipPeers(peers)
	}
}

// Client is a connected service client. Create with Cluster.NewClient;
// release with Close.
type Client struct {
	handler *gateway.TimingFaultHandler
	cluster *Cluster
	addr    transport.Addr // the client's own endpoint address (gossip peering)
}

// Call invokes the service and returns the earliest reply, blocking up to
// the QoS deadline (and a straggler grace period) as the paper's handler
// does. A reply that arrives after the deadline is still returned; the
// timing failure is recorded and counts toward the violation callback.
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.handler.Call(ctx, method, payload)
}

// Renegotiate replaces the QoS specification at runtime, as the paper
// allows ("negotiate it at runtime as often as it wants").
func (c *Client) Renegotiate(q QoS) error { return c.handler.Renegotiate(q) }

// Stats returns the handler's counters (requests, failures, redundancy).
func (c *Client) Stats() Stats { return c.handler.Stats() }

// ControllerStats returns the adaptive budget controller's counters; ok is
// false when ClientConfig.AdaptiveBudget was not set.
func (c *Client) ControllerStats() (s ControllerStats, ok bool) {
	return c.handler.ControllerStats()
}

// DigestStats returns the digest-fabric counters; ok is false when
// ClientConfig.GossipInterval was not set.
func (c *Client) DigestStats() (s GossipStats, ok bool) {
	return c.handler.GossipStats()
}

// ProbesSent returns how many active probes this client has dispatched
// (0 when ClientConfig.ProbeInterval is unset).
func (c *Client) ProbesSent() uint64 { return c.handler.ProbesSent() }

// OrderedStats counts one ordered client's sequencer activity; zero when
// ClientConfig.Ordered is unset.
type OrderedStats struct {
	// StampsIssued is the highest logical timestamp assigned so far.
	StampsIssued uint64
	// RefillsServed is how many stored frames were re-sent to replicas that
	// reported stamp gaps.
	RefillsServed uint64
	// RefillsPruned is how many gap-refill requests were answered Pruned
	// (the range had left the bounded frame log, forcing the replica into a
	// full state transfer).
	RefillsPruned uint64
}

// OrderedStats returns the client's ordered-mode counters.
func (c *Client) OrderedStats() OrderedStats {
	return OrderedStats{
		StampsIssued:  c.handler.StampsIssued(),
		RefillsServed: c.handler.RefillsServed(),
		RefillsPruned: c.handler.RefillsPruned(),
	}
}

// Addr returns the client's own transport address (its gossip peering
// identity on the cluster's network).
func (c *Client) Addr() string { return string(c.addr) }

// Close releases the client.
func (c *Client) Close() {
	if c.cluster != nil {
		c.cluster.unwatchViews(c)
	}
	c.handler.Close()
}

// Replica is a running server replica handle.
type Replica struct {
	srv *server.Replica
}

// ID returns the replica's identity.
func (r *Replica) ID() ReplicaID { return r.srv.ID() }

// Addr returns the replica's transport address.
func (r *Replica) Addr() string { return string(r.srv.Addr()) }

// Served returns the number of requests this replica has processed.
func (r *Replica) Served() uint64 { return r.srv.Served() }

// CaughtUp reports whether the replica's state machine is current: true for
// stateless replicas, and for stateful ones that booted fresh or completed a
// state transfer.
func (r *Replica) CaughtUp() bool { return r.srv.CaughtUp() }

// OrderedTail returns how many ordered operations the replica has applied
// (0 for stateless replicas).
func (r *Replica) OrderedTail() uint64 { return r.srv.OrderedTail() }

// StateTransfers returns how many inbound state transfers this replica has
// completed (0 for stateless replicas).
func (r *Replica) StateTransfers() uint64 { return r.srv.StateTransfers() }

// Stop terminates the replica (simulating a crash from the cluster's
// perspective: clients prune it after failure detection).
func (r *Replica) Stop() { r.srv.Stop() }

// Cluster is a replicated service running on a shared transport, plus the
// bookkeeping to mint clients against it. It is the in-process convenience
// layer; production deployments wire cmd/aqua-server and cmd/aqua-client
// across machines instead.
type Cluster struct {
	service wire.Service
	network transport.Network
	inmem   *transport.InMem // non-nil when we own an in-memory network

	mu        sync.Mutex
	replicas  map[ReplicaID]*Replica
	view      group.View     // the current membership view, built by notifyClients
	viewers   map[any]viewer // keyed by owner: each Client, PassiveClient and multi-service Gateway
	nextID    int
	handler   Handler
	smFactory func() StateMachine // non-nil = ordered (stateful) replicas
	load      stats.DelayDist
	seed      int64
	selfHeal  bool
	lifecycle LifecycleConfig // default for clients minted from this cluster
	faults    *FaultInjector
	manager   *proteus.Manager
	reg       *metrics.Registry // nil = process-wide default
	closed    bool
}

// viewer is anything the cluster hands its numbered views to, as the
// group-communication layer would: a client's handler or a replica. ApplyView
// drops a view numbered at or below the last one applied, so views delivered
// out of order still leave the viewer on the newest.
type viewer interface {
	ApplyView(group.View) bool
}

// currentView returns the cluster's current membership view.
func (c *Cluster) currentView() group.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// watchViews registers w, owned by key, and pushes it the current view read
// in the same critical section, so w misses no view: a handler built from an
// older snapshot catches up here, and every later view comes from
// notifyClients.
func (c *Cluster) watchViews(key any, w viewer) {
	c.mu.Lock()
	c.viewers[key] = w
	v := c.view
	c.mu.Unlock()
	w.ApplyView(v)
}

// unwatchViews stops view-change delivery to key's handler.
func (c *Cluster) unwatchViews(key any) {
	c.mu.Lock()
	delete(c.viewers, key)
	c.mu.Unlock()
}

// notifyClients builds view N+1 once, under c.mu, stores it as the current
// view and hands that same value to every registered viewer, to the replicas
// of a stateful cluster (as their peer table) and to the Proteus manager, as
// the group-communication layer would. Delivery runs after c.mu is released,
// so two changes can arrive in either order: each viewer drops the older.
func (c *Cluster) notifyClients() {
	c.mu.Lock()
	addrs := make(map[wire.ReplicaID]transport.Addr, len(c.replicas))
	for id, r := range c.replicas {
		addrs[id] = transport.Addr(r.Addr())
	}
	v := group.NewView(c.view.Number+1, addrs)
	c.view = v
	viewers := make([]viewer, 0, len(c.viewers)+len(c.replicas))
	for _, w := range c.viewers {
		viewers = append(viewers, w)
	}
	if c.smFactory != nil {
		for _, r := range c.replicas {
			viewers = append(viewers, r.srv)
		}
	}
	mgr := c.manager
	c.mu.Unlock()
	for _, w := range viewers {
		w.ApplyView(v)
	}
	if mgr != nil {
		mgr.ObserveView(v)
	}
}

// ClusterOption configures NewCluster.
type ClusterOption func(*Cluster)

// WithSimulatedLoad makes every replica delay each response by a draw from
// Normal(mean, sigma), reproducing the paper's simulated server load.
func WithSimulatedLoad(mean, sigma time.Duration) ClusterOption {
	return func(c *Cluster) { c.load = stats.Normal{Mu: mean, Sigma: sigma} }
}

// WithLoadDistribution sets an arbitrary artificial service-delay
// distribution for the replicas.
func WithLoadDistribution(d stats.DelayDist) ClusterOption {
	return func(c *Cluster) { c.load = d }
}

// WithTCP runs the cluster over TCP loopback sockets instead of the
// in-memory transport.
func WithTCP() ClusterOption {
	return func(c *Cluster) {
		c.network = transport.NewTCP()
		c.inmem = nil
	}
}

// WithSeed seeds the replicas' load injectors (runs with equal seeds and
// the in-memory transport are reproducible).
func WithSeed(seed int64) ClusterOption {
	return func(c *Cluster) { c.seed = seed }
}

// WithSharedNetwork places this cluster on the same transport network as
// other, so one Gateway can carry handlers for both services. Both clusters
// must then be closed independently; the network is owned by other.
func WithSharedNetwork(other *Cluster) ClusterOption {
	return func(c *Cluster) {
		c.network = other.network
		c.inmem = nil // not ours to close
	}
}

// WithMetrics directs every instrument of this cluster — its transport,
// every client handler minted from it, their schedulers and probers — to reg
// instead of the process-wide default registry. Isolates concurrent clusters
// (tests, multi-tenant processes) from each other's counters.
func WithMetrics(reg *MetricsRegistry) ClusterOption {
	return func(c *Cluster) { c.reg = reg }
}

// WithSelfHealing keeps the replica pool at its initial size: a Proteus
// dependability manager observes membership and starts a fresh replica
// whenever one crash-stops (§2: Proteus "manages the replication level").
// With a lifecycle-enabled client (WithLifecycle or ClientConfig.Lifecycle),
// the manager also rejuvenates quarantined replicas: the sick member is
// retired and the resulting deficit boots a replacement, subject to the
// manager's restart backoff and storm cap.
func WithSelfHealing() ClusterOption {
	return func(c *Cluster) { c.selfHeal = true }
}

// WithStateMachine makes the cluster stateful: every replica runs its own
// instance from factory as an ordered-mode state machine. Replicas joining a
// non-empty pool (including Proteus replacements after a crash or
// rejuvenation) start recovering and pull a snapshot + log suffix from a
// caught-up peer before they report CaughtUp. Call through clients created
// with ClientConfig.Ordered; unordered calls still work but bypass the state
// machine.
func WithStateMachine(factory func() StateMachine) ClusterOption {
	return func(c *Cluster) { c.smFactory = factory }
}

// WithLifecycle sets the default LifecycleConfig for every client minted
// from this cluster (a client's own ClientConfig.Lifecycle, when enabled,
// takes precedence). Pair with ClientConfig.ProbeInterval so probation
// replicas are warmed back into selection, and with WithSelfHealing to
// close the loop with rejuvenation.
func WithLifecycle(cfg LifecycleConfig) ClusterOption {
	cfg.Enabled = true
	return func(c *Cluster) { c.lifecycle = cfg }
}

// Addr is a transport address, re-exported for fault-injection rules. Get a
// replica's address from Replica.Addr().
type Addr = transport.Addr

// AnyAddr is the wildcard side of a fault-injection link rule.
const AnyAddr = transport.Any

// FaultPolicy describes the faults injected on one link: probabilistic
// drop, added delay, duplication, reordering, or a full partition.
type FaultPolicy = transport.FaultPolicy

// FaultInjector is the runtime handle for flipping faults on a cluster's
// transport mid-run. Create with NewFaultInjector, attach with
// WithFaultInjection, and adjust from any goroutine while traffic flows.
type FaultInjector = transport.Injector

// NewFaultInjector returns an injector with no faults configured. The seed
// drives every probabilistic fault decision, so fault sequences over the
// in-memory transport are reproducible.
func NewFaultInjector(seed int64) *FaultInjector { return transport.NewInjector(seed) }

// WithFaultInjection wraps the cluster's transport (in-memory or TCP) in a
// fault-injection layer driven by inj: every message between clients and
// replicas is subject to the injector's per-link policies. This reproduces
// the paper's timing-fault environment — overloaded links, lost messages,
// unreachable replicas — on demand; see DESIGN.md for the mapping to §5.4.
//
// Clusters that must share one gateway (WithSharedNetwork) need to share
// the same injector-wrapped network, so apply fault injection to the
// network-owning cluster only.
func WithFaultInjection(inj *FaultInjector) ClusterOption {
	return func(c *Cluster) { c.faults = inj }
}

// FaultInjector returns the injector attached with WithFaultInjection, or
// nil when fault injection is off.
func (c *Cluster) FaultInjector() *FaultInjector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// NewCluster starts n replicas of service running handler.
func NewCluster(service Service, n int, handler Handler, opts ...ClusterOption) (*Cluster, error) {
	if service == "" {
		return nil, fmt.Errorf("aqua: service name is required")
	}
	if n <= 0 {
		return nil, fmt.Errorf("aqua: need at least one replica, got %d", n)
	}
	if handler == nil {
		return nil, fmt.Errorf("aqua: handler is required")
	}
	inmem := transport.NewInMem()
	c := &Cluster{
		service:  service,
		network:  inmem,
		inmem:    inmem,
		replicas: make(map[ReplicaID]*Replica),
		viewers:  make(map[any]viewer),
		handler:  handler,
		seed:     1,
	}
	for _, o := range opts {
		o(c)
	}
	if c.reg != nil {
		// Rebind the transport to the custom registry. Nothing has listened
		// yet, so the network picked by the options can be swapped wholesale;
		// shared networks stay with their owner's registry.
		if c.inmem != nil {
			_ = c.inmem.Close()
			c.inmem = transport.NewInMem(transport.WithMetrics(c.reg))
			c.network = c.inmem
		} else if _, ok := c.network.(transport.TCP); ok {
			c.network = transport.NewTCPWithMetrics(c.reg)
		}
	}
	if c.faults != nil {
		// Wrap whatever transport the options picked, so fault injection
		// composes with WithTCP and WithSharedNetwork alike.
		c.network = transport.NewFaulty(c.network, c.faults)
	}
	for i := 0; i < n; i++ {
		if _, err := c.AddReplica(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if c.selfHeal {
		mgr, err := proteus.NewManager(proteus.Policy{
			Service:          service,
			ReplicationLevel: n,
			Factory: func(wire.ReplicaID) (wire.ReplicaID, func(), error) {
				r, err := c.AddReplica()
				if err != nil {
					return "", nil, err
				}
				// Stop through the cluster so the membership table and every
				// client's view stay in step with the kill.
				id := r.ID()
				return id, func() { _ = c.StopReplica(id) }, nil
			},
			// Rejuvenation: quarantined replicas the manager didn't start
			// (the initial pool) are retired through the cluster too.
			Retire:        func(id wire.ReplicaID) { _ = c.StopReplica(id) },
			CheckInterval: 10 * time.Millisecond,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.mu.Lock()
		c.manager = mgr
		c.mu.Unlock()
		c.notifyClients() // seed the manager with the initial view
		mgr.Run()
	}
	return c, nil
}

// Metrics snapshots the cluster's metrics registry — the one given with
// WithMetrics, or the process-wide default.
func (c *Cluster) Metrics() MetricsSnapshot {
	return metrics.OrDefault(c.reg).Snapshot()
}

// MetricsRegistry returns the registry this cluster's components report to,
// for serving over HTTP (ServeMetrics) or creating custom instruments.
func (c *Cluster) MetricsRegistry() *MetricsRegistry {
	return metrics.OrDefault(c.reg)
}

// Manager returns the dependability manager, or nil when self-healing is
// off.
func (c *Cluster) Manager() *proteus.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manager
}

// AddReplica starts one more replica and returns its handle.
func (c *Cluster) AddReplica() (*Replica, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("aqua: cluster closed")
	}
	c.nextID++
	id := wire.ReplicaID(fmt.Sprintf("%s-r%d", c.service, c.nextID))
	seed := c.seed + int64(c.nextID)
	// A stateful replica joining a non-empty pool must recover: its state
	// machine is behind whatever history the incumbents have applied, so it
	// pulls a snapshot from a peer before reporting CaughtUp. The first
	// replica of a fresh cluster boots with nothing to recover from.
	recovering := c.smFactory != nil && len(c.replicas) > 0
	c.mu.Unlock()

	ep, err := c.listen(string(id))
	if err != nil {
		return nil, fmt.Errorf("aqua: replica endpoint: %w", err)
	}
	var sm server.StateMachine
	if c.smFactory != nil {
		sm = c.smFactory()
	}
	srv, err := server.Start(ep, server.Config{
		ID:           id,
		Service:      c.service,
		Handler:      c.handler,
		StateMachine: sm,
		Recovering:   recovering,
		LoadDelay:    c.load,
		Seed:         seed,
	})
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("aqua: starting replica: %w", err)
	}
	r := &Replica{srv: srv}
	c.mu.Lock()
	if c.closed {
		// Close ran while the lock was dropped to start the server: this
		// replica must not outlive the cluster, and must not be re-inserted
		// into the membership table Close already emptied.
		c.mu.Unlock()
		srv.Stop()
		return nil, fmt.Errorf("aqua: cluster closed")
	}
	c.replicas[id] = r
	c.mu.Unlock()
	c.notifyClients()
	return r, nil
}

// listen allocates an endpoint: named on the in-memory network, an
// ephemeral loopback port on TCP.
func (c *Cluster) listen(name string) (transport.Endpoint, error) {
	addr := transport.Addr(name)
	if !isInMemBacked(c.network) {
		addr = "127.0.0.1:0"
	}
	return c.network.Listen(addr)
}

// isInMemBacked reports whether n bottoms out at the in-memory transport,
// unwrapping any fault-injection layers on the way down.
func isInMemBacked(n transport.Network) bool {
	for {
		switch v := n.(type) {
		case *transport.InMem:
			return true
		case *transport.Faulty:
			n = v.Inner()
		default:
			return false
		}
	}
}

// Replicas returns handles for the currently running replicas.
func (c *Cluster) Replicas() []*Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		out = append(out, r)
	}
	return out
}

// StopReplica crash-stops the named replica. The clients' deadline
// machinery and redundancy absorb in-flight losses.
func (c *Cluster) StopReplica(id ReplicaID) error {
	c.mu.Lock()
	r, ok := c.replicas[id]
	if ok {
		delete(c.replicas, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("aqua: unknown replica %q", id)
	}
	r.Stop()
	c.notifyClients()
	return nil
}

// lifecycleFor resolves a client's effective lifecycle configuration: the
// client's own when enabled, else the cluster default (WithLifecycle). When
// enabled on a self-healing cluster, the OnSuspect hook is chained so
// quarantine transitions reach the dependability manager — the §5.4 loop:
// detect → quarantine → retire → replacement → probation re-admission.
func (c *Cluster) lifecycleFor(cfg LifecycleConfig) LifecycleConfig {
	if !cfg.Enabled {
		cfg = c.lifecycle
	}
	if !cfg.Enabled {
		return cfg
	}
	user := cfg.OnSuspect
	cfg.OnSuspect = func(r SuspectReport) {
		if user != nil {
			user(r)
		}
		if r.To != HealthQuarantined {
			return
		}
		if mgr := c.Manager(); mgr != nil {
			mgr.Quarantine(r.Replica)
		}
	}
	return cfg
}

// lifecycleForOrdered resolves a client's lifecycle configuration and, for an
// ordered client of a stateful cluster, arms the state-transfer re-admission
// gate: timing samples alone no longer promote Probation→Active — the
// replica's reports must also claim a caught-up state machine.
func (c *Cluster) lifecycleForOrdered(cfg ClientConfig) LifecycleConfig {
	lc := c.lifecycleFor(cfg.Lifecycle)
	if lc.Enabled && cfg.Ordered && c.smFactory != nil {
		lc.RequireStateTransfer = true
	}
	return lc
}

// strategyFor resolves the effective selection strategy: an explicit
// Strategy wins; with an adaptive budget configured the default is
// BudgetedSelection (the controller only acts through a budget-aware
// strategy); otherwise nil keeps the handler's DynamicSelection default.
func strategyFor(cfg ClientConfig) Strategy {
	if cfg.Strategy == nil && cfg.AdaptiveBudget != nil {
		return BudgetedSelection()
	}
	return cfg.Strategy
}

// controllerFor builds the client's adaptive budget controller, defaulting
// the budget ceiling to the pool size observed at creation.
func controllerFor(cfg ClientConfig, pool int) *core.AdaptiveBudget {
	if cfg.AdaptiveBudget == nil {
		return nil
	}
	ac := *cfg.AdaptiveBudget
	if ac.MaxK <= 0 {
		ac.MaxK = pool
	}
	return core.NewAdaptiveBudget(ac)
}

// handlerConfig is the one translation of a public ClientConfig into the
// timing fault handler's configuration, for a client of this cluster's
// service that starts from the static membership view. NewClient and
// NewGateway both build their handlers from it; the caller supplies Client
// (a multi-service gateway stamps its own ID on every handler it loads).
func (c *Cluster) handlerConfig(cfg ClientConfig, static map[wire.ReplicaID]transport.Addr) gateway.Config {
	return gateway.Config{
		Service:            c.service,
		QoS:                cfg.QoS,
		Strategy:           strategyFor(cfg),
		WindowSize:         cfg.WindowSize,
		CompensateOverhead: cfg.CompensateOverhead,
		OnViolation:        cfg.OnViolation,
		ProbeInterval:      cfg.ProbeInterval,
		StalenessBound:     cfg.StalenessBound,
		MaxWait:            cfg.MaxWait,
		Overload:           cfg.Overload,
		ShedRetryDelay:     cfg.ShedRetryDelay,
		Lifecycle:          c.lifecycleForOrdered(cfg),
		Ordered:            cfg.Ordered,
		CancelOnFirstReply: cfg.CancelOnFirstReply,
		Controller:         controllerFor(cfg, len(static)),
		GossipInterval:     cfg.GossipInterval,
		NoPerfSubscription: cfg.DisablePerfSubscription,
		StaticReplicas:     static,
		Metrics:            c.reg,
	}
}

// NewClient mints a client of this cluster's service.
func (c *Cluster) NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("client-%d", time.Now().UnixNano())
	}
	static := c.currentView().Addrs
	ep, err := c.listen("client:" + cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("aqua: client endpoint: %w", err)
	}
	hc := c.handlerConfig(cfg, static)
	hc.Client = wire.ClientID(cfg.Name)
	h, err := gateway.NewTimingFaultHandler(ep, hc)
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("aqua: client handler: %w", err)
	}
	client := &Client{handler: h, cluster: c, addr: ep.Addr()}
	c.watchViews(client, h)
	return client, nil
}

// Close stops every replica and, when owned, the in-memory network.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	replicas := make([]*Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		replicas = append(replicas, r)
	}
	c.replicas = make(map[ReplicaID]*Replica)
	mgr := c.manager
	c.manager = nil
	c.mu.Unlock()

	if mgr != nil {
		// Stop reconciliation first so the manager doesn't replace the
		// replicas being shut down.
		mgr.Stop()
	}
	for _, r := range replicas {
		r.Stop()
	}
	if c.inmem != nil {
		_ = c.inmem.Close()
	}
}

// Gateway is a client gateway hosting one timing fault handler per service,
// as in the original AQuA architecture where "a client that is communicating
// with multiple servers would have multiple handlers loaded in its gateway".
// Create with NewGateway against one or more clusters.
type Gateway struct {
	mg       *gateway.MultiGateway
	clusters map[Service]*Cluster
}

// NewGateway creates a multi-service gateway for a client. Pass the
// clusters whose services the client will call; each gets its own handler
// with its own QoS.
func NewGateway(name string, configs map[*Cluster]ClientConfig) (*Gateway, error) {
	if name == "" {
		return nil, fmt.Errorf("aqua: gateway name is required")
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("aqua: at least one cluster is required")
	}
	// All clusters must share a transport for a single shared endpoint.
	var first *Cluster
	for c := range configs {
		if first == nil {
			first = c
			continue
		}
		if c.network != first.network {
			return nil, fmt.Errorf("aqua: clusters on different networks cannot share a gateway")
		}
	}
	ep, err := first.listen("gateway:" + name)
	if err != nil {
		return nil, fmt.Errorf("aqua: gateway endpoint: %w", err)
	}
	mg, err := gateway.NewMultiGateway(ep, wire.ClientID(name))
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("aqua: %w", err)
	}
	g := &Gateway{mg: mg, clusters: make(map[Service]*Cluster, len(configs))}
	for c, cfg := range configs {
		h, err := mg.LoadHandler(c.handlerConfig(cfg, c.currentView().Addrs))
		if err != nil {
			g.unregister()
			mg.Close()
			return nil, fmt.Errorf("aqua: loading handler for %q: %w", c.service, err)
		}
		// AddReplica/StopReplica must reach the handler like any
		// single-service client.
		c.watchViews(g, h)
		g.clusters[c.service] = c
	}
	return g, nil
}

// unregister detaches the gateway's handlers from view-change delivery.
func (g *Gateway) unregister() {
	for _, c := range g.clusters {
		c.unwatchViews(g)
	}
}

// Call invokes a service through its loaded handler.
func (g *Gateway) Call(ctx context.Context, service Service, method string, payload []byte) ([]byte, error) {
	return g.mg.Call(ctx, service, method, payload)
}

// Stats returns the per-service handler counters.
func (g *Gateway) Stats(service Service) (Stats, error) {
	h, ok := g.mg.Handler(service)
	if !ok {
		return Stats{}, fmt.Errorf("aqua: no handler for %q", service)
	}
	return h.Stats(), nil
}

// Renegotiate replaces one service's QoS specification at runtime.
func (g *Gateway) Renegotiate(service Service, q QoS) error {
	h, ok := g.mg.Handler(service)
	if !ok {
		return fmt.Errorf("aqua: no handler for %q", service)
	}
	return h.Renegotiate(q)
}

// Close releases the gateway and all its handlers.
func (g *Gateway) Close() {
	g.unregister()
	g.mg.Close()
}

// PassiveClient is a client using AQuA's passive-replication handler:
// requests go to a single primary with failover on timeout, the
// crash-tolerance baseline the timing fault handler improves on.
type PassiveClient struct {
	handler *gateway.PassiveHandler
	cluster *Cluster
}

// NewPassiveClient mints a passive-replication client of the cluster's
// service. attemptTimeout is how long the primary may stay silent before
// the handler fails over to the next replica.
func (c *Cluster) NewPassiveClient(name string, attemptTimeout time.Duration) (*PassiveClient, error) {
	if name == "" {
		return nil, fmt.Errorf("aqua: client name is required")
	}
	static := c.currentView().Addrs
	ep, err := c.listen("client:" + name)
	if err != nil {
		return nil, fmt.Errorf("aqua: client endpoint: %w", err)
	}
	h, err := gateway.NewPassiveHandler(ep, gateway.PassiveConfig{
		Client:         wire.ClientID(name),
		Service:        c.service,
		AttemptTimeout: attemptTimeout,
		StaticReplicas: static,
	})
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("aqua: passive handler: %w", err)
	}
	// A crash-stopped primary must leave the failover order.
	pc := &PassiveClient{handler: h, cluster: c}
	c.watchViews(pc, h)
	return pc, nil
}

// Call invokes the service on the primary, failing over on timeout.
func (p *PassiveClient) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return p.handler.Call(ctx, method, payload)
}

// Primary returns the replica currently treated as primary.
func (p *PassiveClient) Primary() (ReplicaID, bool) { return p.handler.Primary() }

// Close releases the client.
func (p *PassiveClient) Close() {
	p.cluster.unwatchViews(p)
	p.handler.Close()
}
