package gateway

import (
	"sync"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

// prober implements the paper's active-probe extension (§8: "our work can
// also be extended to use active probes when a replica's performance
// information is obsolete"). It periodically checks each replica's last
// performance update; any replica silent for longer than the staleness
// bound receives a probe request. The server measures queueing and load for
// a probe exactly as for a real request but skips the application handler,
// and the reply refreshes the repository without touching the client's
// request statistics.
type prober struct {
	h        *TimingFaultHandler
	interval time.Duration
	bound    time.Duration

	metSent        *metrics.Counter
	metAnswered    *metrics.Counter
	metLost        *metrics.Counter
	metOutstanding *metrics.Gauge

	snaps []repository.ReplicaSnapshot // the sweep's snapshot buffer, touched only by sweep

	mu      sync.Mutex
	sentAt  map[wire.ReplicaID]time.Time // outstanding probe guard
	nextSeq wire.SeqNo
	sent    uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// probeSeqBase keeps probe sequence numbers out of the scheduler's space so
// a probe reply can never collide with a pending request. The scheduler
// allocates call sequence numbers for the same ClientID counting up from 0;
// the prober counts up from 1<<62, so the two spaces stay disjoint for any
// realistic request volume (2^62 calls at 1M req/s is ~146 millennia). The
// spaces are additionally separated by the Probe flag, which every reply
// echoes and the gateway demultiplexes on before sequence matching; the
// disjoint numbering is defense in depth, fenced by tests in
// prober_test.go.
const probeSeqBase wire.SeqNo = 1 << 62

// newProber starts probing for the handler.
func newProber(h *TimingFaultHandler, interval, bound time.Duration) *prober {
	reg := metrics.OrDefault(h.cfg.Metrics)
	p := &prober{
		h:              h,
		interval:       interval,
		bound:          bound,
		metSent:        reg.Counter(metrics.ProbeSent),
		metAnswered:    reg.Counter(metrics.ProbeAnswered),
		metLost:        reg.Counter(metrics.ProbeLost),
		metOutstanding: reg.Gauge(metrics.ProbeOutstanding),
		sentAt:         make(map[wire.ReplicaID]time.Time),
		nextSeq:        probeSeqBase,
		stop:           make(chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *prober) Stop() {
	close(p.stop)
	p.wg.Wait()
}

// Sent returns how many probes have been dispatched.
func (p *prober) Sent() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Outstanding returns how many probes are awaiting replies.
func (p *prober) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sentAt)
}

func (p *prober) loop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-ticker.C:
			p.sweep(now)
		}
	}
}

// suspectedProbeBackoff is the cadence multiplier for suspected replicas:
// they still serve live traffic (fresh evidence flows anyway), so probes
// back off to the point of being a liveness check, not a load source.
const suspectedProbeBackoff = 4

// nonOwnerProbeBackoff is the cadence multiplier for replicas whose probe
// duty rendezvous-hashes to another fabric member (gossiper.ownsProbe): the
// owner's probe results arrive as digests well within one staleness bound,
// so a non-owner only steps in when that stops happening — owner crash or
// fabric partition — at which point staleness crosses the backed-off bound
// and the regular probe path takes over.
const nonOwnerProbeBackoff = 2

// sweep probes every replica whose history has gone stale, keyed by
// lifecycle state: probation replicas are probed at full cadence regardless
// of freshness (probes are how they earn admission), suspected replicas at
// a backed-off cadence, quarantined replicas never.
func (p *prober) sweep(now time.Time) {
	repo := p.h.sched.Repository()
	// The sweep only reads freshness and health, so it copies the
	// repository's view into its own buffer instead of rebuilding every
	// replica's history each tick — see BenchmarkProberSweep.
	p.snaps = repo.SnapshotInto("", p.snaps)
	for _, snap := range p.snaps {
		// cadence is the per-health probe period: it gates both the staleness
		// check and the in-flight age-out below, so a Suspected replica's
		// lost probe backs off exactly like its staleness probes do.
		cadence := p.bound
		stale := !snap.HasHistory || now.Sub(snap.LastUpdate) > p.bound
		switch snap.Health {
		case repository.Quarantined:
			// Rejuvenation brings it back, not probing.
			continue
		case repository.Probation:
			stale = true
		case repository.Suspected:
			cadence = suspectedProbeBackoff * p.bound
			stale = !snap.HasHistory || now.Sub(snap.LastUpdate) > cadence
		}
		// On the gossip fabric, probe duty is sharded: a non-owner backs off
		// so the fleet sends ~1/K of the probe traffic instead of racing to
		// re-probe the same fleet-synchronized staleness. Probation stays at
		// full cadence (admission evidence is local), as does a replica with
		// no history at all (nothing borrowed to wait on).
		if stale && snap.Health != repository.Probation && snap.HasHistory &&
			p.h.gossip != nil && !p.h.gossip.ownsProbe(snap.ID) {
			cadence *= nonOwnerProbeBackoff
			stale = now.Sub(snap.LastUpdate) > cadence
		}
		if !stale {
			continue
		}
		addr, ok := p.h.resolve(snap.ID)
		if !ok {
			// Left the view (the repository lags the group by one event):
			// no probe, and — crucially — no outstanding-probe guard entry
			// that nothing would ever clear.
			continue
		}
		// One instant stamps both the outstanding-probe guard and the wire
		// request: onProbeReply derives T from SentAt, so a guard stamped
		// earlier (with the ticker's now) would disagree with the
		// measurement by however long the sweep has been running.
		sentNow := time.Now()
		p.mu.Lock()
		if last, ok := p.sentAt[snap.ID]; ok {
			if sentNow.Sub(last) < cadence {
				p.mu.Unlock()
				continue // probe already in flight
			}
			// The previous probe aged out unanswered; count it lost and
			// re-probe.
			p.metLost.Inc()
			p.metOutstanding.Add(-1)
		}
		p.sentAt[snap.ID] = sentNow
		p.metOutstanding.Add(1)
		seq := p.nextSeq
		p.nextSeq++
		p.sent++
		p.metSent.Inc()
		p.mu.Unlock()

		req := wire.Request{
			Client:  p.h.cfg.Client,
			Seq:     seq,
			Service: p.h.cfg.Service,
			SentAt:  sentNow,
			Probe:   true,
		}
		// A lost probe is retried on a later sweep; nothing to do on error.
		_ = p.h.ep.Send(addr, req)
	}
}

// onProbeReply absorbs a probe response into the repository as one
// mutation: perf report plus the derived gateway delay td = t4 − SentAt −
// tq − ts. Both interval endpoints are on the client's clock (SentAt was
// stamped here and echoed).
func (p *prober) onProbeReply(m wire.Response, t4 time.Time) {
	repo := p.h.sched.Repository()
	if m.SentAt.IsZero() {
		repo.RecordPerf(m.Replica, "", m.Perf, t4)
	} else {
		td := t4.Sub(m.SentAt) - m.Perf.QueueDelay - m.Perf.ServiceTime
		repo.RecordReply(m.Replica, "", m.Perf, td, t4)
	}
	p.mu.Lock()
	if _, ok := p.sentAt[m.Replica]; ok {
		delete(p.sentAt, m.Replica)
		p.metAnswered.Inc()
		p.metOutstanding.Add(-1)
	}
	p.mu.Unlock()
}

// onMembershipChange prunes outstanding-probe guards for replicas that left
// the view. A probe sent to a replica that then crashed would otherwise pin
// its sentAt entry forever — the reply that deletes it can never arrive and
// the sweep only iterates live replicas, so the map grew monotonically
// under membership churn. Nil-safe, so handlers without probing need no
// guard.
func (p *prober) onMembershipChange(members []wire.ReplicaID) {
	if p == nil {
		return
	}
	alive := make(map[wire.ReplicaID]bool, len(members))
	for _, id := range members {
		alive[id] = true
	}
	p.mu.Lock()
	for id := range p.sentAt {
		if !alive[id] {
			delete(p.sentAt, id)
			p.metLost.Inc()
			p.metOutstanding.Add(-1)
		}
	}
	p.mu.Unlock()
}
