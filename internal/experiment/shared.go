package experiment

// a15 — shared-intelligence digest fabric: does a fleet of K gateways that
// gossip window digests match a single always-warm gateway's timeliness while
// spending a fraction of the probe traffic the same fleet would need without
// the fabric, and does the paper's own §5.4 subscription already do as well?
//
// Four phases run against identical clusters (same seed, same injected
// slow-replica faults, same QoS contract). In the first three every client
// opts out of the §5.4 per-request perf-report subscription
// (ClientConfig.DisablePerfSubscription), modelling the WAN/high-fan-out
// regime where digests are the only shared channel; the fourth turns the
// subscription on instead of gossip:
//
//	single           one gateway, warmed up, measured alone — the baseline
//	                 timely fraction an always-warm gateway achieves.
//	fleet/no-gossip  one warm gateway + K−1 cold newcomers, traffic round-
//	                 robined across all K. Each newcomer pays its own cold
//	                 start: select-all floods and a burst of staleness probes
//	                 per replica, K times over.
//	fleet/gossip     same fleet on the digest fabric: the warm gateway's
//	                 first push seeds the newcomers, digests keep every member
//	                 fresh, and probe duty is rendezvous-sharded so the fleet
//	                 sends ~1/K of the probes the no-gossip fleet needs.
//	fleet/subscribed same fleet with the §5.4 subscription and no gossip:
//	                 the fabric's keep-or-delete comparison, ungated.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aqua"
	"aqua/internal/metrics"
	"aqua/internal/stats"
)

// SharedConfig parameterizes the a15 shared-intelligence experiment.
type SharedConfig struct {
	// Replicas is the pool size; Fleet is K, the gateway count in the fleet
	// phases.
	Replicas int
	Fleet    int
	// Deadline and Pc form the QoS contract every gateway is held to.
	Deadline time.Duration
	Pc       float64
	// ServiceMean and ServiceSigma shape the replicas' simulated load.
	ServiceMean  time.Duration
	ServiceSigma time.Duration
	// SlowReplicas (lowest IDs) get SlowDelay injected per link direction
	// from the start — the stationary asymmetry a warm gateway knows about
	// and a cold one must learn.
	SlowReplicas int
	SlowDelay    time.Duration
	// Warmup is how many calls the first gateway makes before newcomers are
	// placed; Requests is the measured call count per phase; Pace is the
	// minimum gap between measured calls. A modest pace is the point of the
	// WAN regime: spread over K gateways the per-gateway traffic is too
	// sparse to keep every replica's window fresh on its own, so a gateway
	// either borrows peers' evidence or pays for probes.
	Warmup   int
	Requests int
	Pace     time.Duration
	// ProbeInterval/StalenessBound drive every gateway's active prober —
	// the traffic the fence counts.
	ProbeInterval  time.Duration
	StalenessBound time.Duration
	// GossipInterval is the digest push cadence in the gossip phase.
	GossipInterval time.Duration
	// Settle is the pause between placing the newcomers and measuring, the
	// same in every fleet phase: the gossip fleet spends it absorbing the
	// first pushes, the other fleets learning from replies and probes.
	Settle time.Duration
	// Seed drives the load draws and the injector.
	Seed int64
}

// DefaultSharedConfig is the CI acceptance environment: K=4 gateways over a
// 6-replica pool with two slow members, against a (60ms, 0.9) contract.
func DefaultSharedConfig() SharedConfig {
	return SharedConfig{
		Replicas:       6,
		Fleet:          4,
		Deadline:       60 * time.Millisecond,
		Pc:             0.9,
		ServiceMean:    12 * time.Millisecond,
		ServiceSigma:   3 * time.Millisecond,
		SlowReplicas:   2,
		SlowDelay:      25 * time.Millisecond,
		Warmup:         40,
		Requests:       240,
		Pace:           15 * time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		StalenessBound: 350 * time.Millisecond,
		GossipInterval: 20 * time.Millisecond,
		Settle:         80 * time.Millisecond,
		Seed:           7,
	}
}

// SharedPhase is one measured phase of the experiment.
type SharedPhase struct {
	Name     string
	Gateways int
	Requests int
	Timely   float64       // fraction of measured calls within Deadline
	MeanRT   time.Duration // mean elapsed over completed calls
	MeanK    float64       // mean replicas selected per measured call
	Errors   int
	Probes   uint64 // total probes sent by the phase's gateways, cold start included
	// Frames is the change in the registry's aqua_transport_frames_sent_total
	// from fleet formation to the end of measurement: every frame any
	// gateway or replica sent, shared channel included.
	Frames uint64

	// Fabric accounting (gossip phase only; zero elsewhere).
	PerGateway []aqua.GossipStats
	Registry   aqua.MetricsSnapshot
}

// SharedResult is the completed four-phase experiment.
type SharedResult struct {
	Cfg        SharedConfig
	Single     *SharedPhase
	Fleet      *SharedPhase // no gossip
	Gossip     *SharedPhase
	Subscribed *SharedPhase // §5.4 subscription, no gossip
}

// sharing is the channel, if any, over which a phase's gateways share what
// they learn.
type sharing int

const (
	shareNone         sharing = iota // each gateway learns from its own replies and probes
	shareGossip                      // the digest fabric
	shareSubscription                // the §5.4 per-request perf-report subscription
)

// RunShared executes the four phases on identical clusters.
func RunShared(cfg SharedConfig) (*SharedResult, error) {
	if cfg.Replicas < 2 || cfg.Fleet < 2 {
		return nil, fmt.Errorf("experiment: shared needs >= 2 replicas and a fleet of >= 2")
	}
	if cfg.Requests <= 0 || cfg.Deadline <= 0 || cfg.ProbeInterval <= 0 {
		return nil, fmt.Errorf("experiment: shared needs requests, a deadline, and a probe interval")
	}
	res := &SharedResult{Cfg: cfg}
	for _, p := range []struct {
		dst   **SharedPhase
		name  string
		fleet int
		share sharing
	}{
		{&res.Single, "single", 1, shareNone},
		{&res.Fleet, "fleet/no-gossip", cfg.Fleet, shareNone},
		{&res.Gossip, "fleet/gossip", cfg.Fleet, shareGossip},
		{&res.Subscribed, "fleet/subscribed", cfg.Fleet, shareSubscription},
	} {
		phase, err := runSharedPhase(cfg, p.name, p.fleet, p.share)
		if err != nil {
			return nil, err
		}
		*p.dst = phase
	}
	return res, nil
}

// runSharedPhase builds a fresh cluster, warms one gateway, places the
// remaining fleet members cold, and round-robins the measured traffic over
// all of them.
func runSharedPhase(cfg SharedConfig, name string, fleet int, share sharing) (*SharedPhase, error) {
	inj := aqua.NewFaultInjector(cfg.Seed)
	reg := aqua.NewMetricsRegistry()
	cluster, err := aqua.NewCluster("shared", cfg.Replicas,
		func(method string, payload []byte) ([]byte, error) { return payload, nil },
		aqua.WithFaultInjection(inj),
		aqua.WithSimulatedLoad(cfg.ServiceMean, cfg.ServiceSigma),
		aqua.WithSeed(cfg.Seed),
		aqua.WithMetrics(reg))
	if err != nil {
		return nil, fmt.Errorf("experiment: shared cluster: %w", err)
	}
	defer cluster.Close()

	// The slow set is fixed for the whole run: the environment is stationary
	// and the question is purely who already knows it.
	replicas := cluster.Replicas()
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].ID() < replicas[j].ID() })
	for i := 0; i < cfg.SlowReplicas && i < len(replicas); i++ {
		addr := aqua.Addr(replicas[i].Addr())
		inj.SetLink(aqua.AnyAddr, addr, aqua.FaultPolicy{Delay: stats.Constant{Delay: cfg.SlowDelay}})
		inj.SetLink(addr, aqua.AnyAddr, aqua.FaultPolicy{Delay: stats.Constant{Delay: cfg.SlowDelay}})
	}

	clientCfg := func(i int) aqua.ClientConfig {
		c := aqua.ClientConfig{
			Name:           fmt.Sprintf("shared-%s-gw%d", sanitize(name), i),
			QoS:            aqua.QoS{Deadline: cfg.Deadline, MinProbability: cfg.Pc},
			MaxWait:        5 * cfg.Deadline,
			ProbeInterval:  cfg.ProbeInterval,
			StalenessBound: cfg.StalenessBound,
			// WAN regime unless the phase tests the subscription: each
			// gateway learns from its own traffic, its probes, and (when
			// enabled) the digest fabric.
			DisablePerfSubscription: share != shareSubscription,
		}
		if share == shareGossip {
			c.GossipInterval = cfg.GossipInterval
		}
		return c
	}

	clients := make([]*aqua.Client, 0, fleet)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	first, err := cluster.NewClient(clientCfg(0))
	if err != nil {
		return nil, fmt.Errorf("experiment: shared client: %w", err)
	}
	clients = append(clients, first)

	ctx := context.Background()
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := first.Call(ctx, "", nil); err != nil {
			return nil, fmt.Errorf("experiment: shared warmup: %w", err)
		}
	}

	// Place the newcomers cold, after the warm-up, like a scale-out event.
	// In the gossip phase the warm gateway's next push seeds them.
	for i := 1; i < fleet; i++ {
		c, err := cluster.NewClient(clientCfg(i))
		if err != nil {
			return nil, fmt.Errorf("experiment: shared client: %w", err)
		}
		clients = append(clients, c)
	}
	// Probe and frame accounting start here — at fleet formation. The first
	// gateway's warm-up era is identical in every phase by construction, so
	// counting it would only add a shared constant that drags every ratio
	// toward 1; the newcomers' cold-start bursts, the cost under test, all
	// land after this line.
	probeBase := make([]uint64, len(clients))
	for i, c := range clients {
		probeBase[i] = c.ProbesSent()
	}
	framesBase := cluster.Metrics().Counter(metrics.TransportFramesSent)
	if share == shareGossip {
		aqua.ConnectGossip(clients...)
	}
	// Same settle in every phase: the gossip fleet uses it to absorb the
	// first pushes, the other fleets' newcomers burn it probing.
	if fleet > 1 && cfg.Settle > 0 {
		time.Sleep(cfg.Settle)
	}

	total := func() aqua.Stats {
		var s aqua.Stats
		for _, c := range clients {
			st := c.Stats()
			s.Requests += st.Requests
			s.SelectedTotal += st.SelectedTotal
		}
		return s
	}
	row := measureCalls(cfg.Requests, cfg.Deadline, cfg.Pace, total, func(i int) error {
		_, err := clients[i%len(clients)].Call(ctx, "", nil)
		return err
	})
	phase := &SharedPhase{Name: name, Gateways: fleet, Requests: cfg.Requests,
		Timely: row.Timely, MeanRT: row.MeanRT, MeanK: row.MeanSelected, Errors: row.Errors}
	phase.Registry = cluster.Metrics()
	phase.Frames = phase.Registry.Counter(metrics.TransportFramesSent) - framesBase
	for i, c := range clients {
		phase.Probes += c.ProbesSent() - probeBase[i]
		if share == shareGossip {
			gs, _ := c.DigestStats()
			phase.PerGateway = append(phase.PerGateway, gs)
		}
	}
	return phase, nil
}

// sanitize keeps client names unique-but-tame across phase labels.
func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '/' || c == ' ' {
			b[i] = '-'
		}
	}
	return string(b)
}

// mergePhase folds b into a (request-weighted rates, summed counts) so the
// fences act on the aggregate across seeds rather than any single draw.
func mergePhase(a, b *SharedPhase) {
	wa, wb := float64(a.Requests), float64(b.Requests)
	if wa+wb > 0 {
		a.Timely = (a.Timely*wa + b.Timely*wb) / (wa + wb)
		a.MeanRT = time.Duration((float64(a.MeanRT)*wa + float64(b.MeanRT)*wb) / (wa + wb))
		a.MeanK = (a.MeanK*wa + b.MeanK*wb) / (wa + wb)
	}
	a.Requests += b.Requests
	a.Errors += b.Errors
	a.Probes += b.Probes
	a.Frames += b.Frames
	a.PerGateway = append(a.PerGateway, b.PerGateway...)
}

// RunA15 runs the experiment over several seeds and enforces the acceptance
// fences on the aggregate (single-seed probe counts are small enough that a
// one-draw fence would be noise-bound):
//
//  1. timeliness — the gossiping fleet reaches >= 95% of the single warm
//     gateway's timely fraction;
//  2. probe traffic — the gossiping fleet's total probes are <= 1/K of the
//     same fleet's probes without the fabric;
//  3. accounting (per seed) — every fleet member both sent and received
//     digests, every newcomer absorbed, and the per-gateway aqua_digest_*
//     counters on the cluster registry agree.
//
// The fleet/subscribed phase is reported, not fenced. A fence failure is an
// error (non-zero exit), so `make a15` is a CI gate, not just a table.
func RunA15(quick bool) (*Table, error) {
	cfg := DefaultSharedConfig()
	seeds := []int64{7, 101, 1009}
	if quick {
		cfg.Warmup = 20
		cfg.Requests = 120
		seeds = seeds[:2]
	}
	var agg *SharedResult
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := RunShared(c)
		if err != nil {
			return nil, err
		}
		for i, gs := range res.Gossip.PerGateway {
			if gs.SyncsSent == 0 || gs.SyncsReceived == 0 {
				return nil, fmt.Errorf("experiment: a15 fence: seed %d gateway %d fabric stats %+v; want syncs both sent and received", seed, i, gs)
			}
			// Only the newcomers must absorb: the warm gateway's windows are
			// already full of local evidence, which outranks every borrowed
			// digest by design.
			if i > 0 && gs.EntriesAbsorbed == 0 {
				return nil, fmt.Errorf("experiment: a15 fence: seed %d newcomer gateway %d fabric stats %+v; want absorbed entries", seed, i, gs)
			}
		}
		snap := res.Gossip.Registry
		for _, name := range []string{
			metrics.DigestSyncsSent, metrics.DigestSyncsReceived,
			metrics.DigestAbsorbed,
		} {
			if snap.Counter(name) == 0 {
				return nil, fmt.Errorf("experiment: a15 fence: seed %d registry counter %s is zero in the gossip phase", seed, name)
			}
		}
		if agg == nil {
			agg = res
		} else {
			mergePhase(agg.Single, res.Single)
			mergePhase(agg.Fleet, res.Fleet)
			mergePhase(agg.Gossip, res.Gossip)
			mergePhase(agg.Subscribed, res.Subscribed)
		}
	}

	if want := 0.95 * agg.Single.Timely; agg.Gossip.Timely < want {
		return nil, fmt.Errorf("experiment: a15 fence: gossip fleet timely %.3f < 95%% of single warm gateway %.3f",
			agg.Gossip.Timely, agg.Single.Timely)
	}
	if maxProbes := agg.Fleet.Probes / uint64(cfg.Fleet); agg.Gossip.Probes > maxProbes {
		return nil, fmt.Errorf("experiment: a15 fence: gossip fleet sent %d probes > 1/%d of the no-gossip fleet's %d",
			agg.Gossip.Probes, cfg.Fleet, agg.Fleet.Probes)
	}
	t := SharedTable(agg)
	t.Notes = append(t.Notes, fmt.Sprintf("aggregated over %d seeds; fabric accounting fenced per seed", len(seeds)))
	return t, nil
}

// SharedTable formats the four phases against the fences.
func SharedTable(r *SharedResult) *Table {
	row := func(p *SharedPhase) []string {
		var syncs, absorbed uint64
		for _, gs := range p.PerGateway {
			syncs += gs.SyncsSent
			absorbed += gs.EntriesAbsorbed
		}
		return []string{
			p.Name,
			fmt.Sprintf("%d", p.Gateways),
			fmt.Sprintf("%d", p.Requests),
			f3(p.Timely),
			fmt.Sprintf("%.1f", float64(p.MeanRT)/float64(time.Millisecond)),
			f2(p.MeanK),
			fmt.Sprintf("%d", p.Probes),
			fmt.Sprintf("%.1f", float64(p.Probes)/float64(p.Gateways)),
			f2(float64(p.Frames) / float64(p.Requests)),
			fmt.Sprintf("%d", syncs),
			fmt.Sprintf("%d", absorbed),
			fmt.Sprintf("%d", p.Errors),
		}
	}
	return &Table{
		Title: "A15: shared-intelligence digest fabric vs cold per-gateway learning",
		Columns: []string{"phase", "gateways", "requests", "timely", "mean_rt_ms", "mean_k",
			"probes", "probes_per_gw", "frames_per_req", "syncs_sent", "absorbed", "errors"},
		Rows: [][]string{row(r.Single), row(r.Fleet), row(r.Gossip), row(r.Subscribed)},
		Notes: []string{
			fmt.Sprintf("contract (t=%v, Pc=%.2f); %d replicas, %d slow by +%v/direction; every gateway but fleet/subscribed's opts out of the §5.4 subscription (WAN regime)",
				r.Cfg.Deadline, r.Cfg.Pc, r.Cfg.Replicas, r.Cfg.SlowReplicas, r.Cfg.SlowDelay),
			fmt.Sprintf("fleet phases place %d cold newcomers after %d warm-up calls; probes and frames counted from fleet formation (newcomer cold starts included, the shared warm-up era excluded in every phase alike)",
				r.Cfg.Fleet-1, r.Cfg.Warmup),
			fmt.Sprintf("fences: gossip timely >= 0.95 x single (%.3f vs %.3f); gossip probes <= 1/%d of no-gossip fleet (%d vs %d); every member synced, newcomers absorbed; fleet/subscribed is not fenced",
				r.Gossip.Timely, r.Single.Timely, r.Cfg.Fleet, r.Gossip.Probes, r.Fleet.Probes),
			"without the fabric each newcomer re-learns the pool alone: select-all floods (mean_k) and a per-replica staleness-probe burst, K times over",
		},
	}
}
