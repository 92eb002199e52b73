package gateway

// Digest gossip: the gateway side of the shared-intelligence fabric.
//
// The paper's §5.4 has replicas publish per-request performance reports to
// subscribed client gateways; the gossiper extends that seam gateway-to-
// gateway. On a jittered cadence each gateway exports its repository's
// locally measured window digests (repository.ExportDigests) and pushes them
// to its peers as one wire.DigestSync; peers absorb the batch into their
// repositories' windows as borrowed samples. A newly placed gateway learns
// from its peers' next push instead of paying a cold start — and a
// select-all flood — per replica.

import (
	"math/rand"
	"sync"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// GossipStats counts one gossiper's fabric activity.
type GossipStats struct {
	SyncsSent       uint64 // DigestSync batches pushed to peers
	SyncsReceived   uint64 // DigestSync batches accepted (after source/seq dedup)
	EntriesAbsorbed uint64 // digest entries absorbed as borrowed samples
	EntriesStale    uint64 // digest entries dropped as stale/unknown/no-room
}

// gossiper runs the digest fabric for one TimingFaultHandler.
type gossiper struct {
	h        *TimingFaultHandler
	interval time.Duration
	rng      *rand.Rand

	metSyncsSent     *metrics.Counter
	metSyncsReceived *metrics.Counter
	metAbsorbed      *metrics.Counter
	metStale         *metrics.Counter

	mu    sync.Mutex
	peers []transport.Addr
	// nextSeq starts at the creation time in ns, so a gateway re-created
	// under the same client ID outnumbers its predecessor's syncs at once
	// instead of being dropped by its peers' replay guard (lastSeq).
	nextSeq uint64
	lastSeq map[wire.ClientID]uint64 // per-source replay guard
	stats   GossipStats

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// newGossiper starts the gossip loop for h: one push per round, each round
// a uniform [0.5, 1.5) × interval after the last, so a fleet started
// together does not synchronize its pushes.
func newGossiper(h *TimingFaultHandler, interval time.Duration) *gossiper {
	reg := metrics.OrDefault(h.cfg.Metrics)
	g := &gossiper{
		h:                h,
		interval:         interval,
		rng:              rand.New(rand.NewSource(time.Now().UnixNano())),
		metSyncsSent:     reg.Counter(metrics.DigestSyncsSent),
		metSyncsReceived: reg.Counter(metrics.DigestSyncsReceived),
		metAbsorbed:      reg.Counter(metrics.DigestAbsorbed),
		metStale:         reg.Counter(metrics.DigestStale),
		nextSeq:          uint64(time.Now().UnixNano()),
		lastSeq:          make(map[wire.ClientID]uint64),
		stop:             make(chan struct{}),
	}
	g.wg.Add(1)
	go g.loop()
	return g
}

func (g *gossiper) Stop() {
	g.stopOnce.Do(func() {
		close(g.stop)
		g.wg.Wait()
	})
}

// SetPeers replaces the peer set; the next round pushes to it.
func (g *gossiper) SetPeers(peers []transport.Addr) {
	g.mu.Lock()
	g.peers = append([]transport.Addr(nil), peers...)
	g.mu.Unlock()
}

// Stats snapshots the gossiper's counters.
func (g *gossiper) Stats() GossipStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

func (g *gossiper) loop() {
	defer g.wg.Done()
	for {
		timer := time.NewTimer(g.jittered())
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-timer.C:
			g.push()
		}
	}
}

// jittered returns the next round's delay: uniform in [0.5, 1.5) × interval.
func (g *gossiper) jittered() time.Duration {
	g.mu.Lock()
	f := 0.5 + g.rng.Float64()
	g.mu.Unlock()
	return time.Duration(float64(g.interval) * f)
}

// push exports the repository's local digests and multicasts them to peers.
func (g *gossiper) push() {
	g.mu.Lock()
	peers := append([]transport.Addr(nil), g.peers...)
	g.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	msg, ok := g.buildSync()
	if !ok {
		return
	}
	if err := transport.Multicast(g.h.ep, peers, msg); err == nil || len(peers) > 1 {
		g.mu.Lock()
		g.stats.SyncsSent++
		g.mu.Unlock()
		g.metSyncsSent.Inc()
	}
}

// buildSync assembles a DigestSync from the repository's current local
// evidence. ok is false when there is nothing to share yet.
func (g *gossiper) buildSync() (wire.DigestSync, bool) {
	repo := g.h.sched.Repository()
	digests := repo.ExportDigests(time.Now())
	if len(digests) == 0 {
		return wire.DigestSync{}, false
	}
	g.mu.Lock()
	g.nextSeq++
	seq := g.nextSeq
	g.mu.Unlock()
	return wire.DigestSync{
		Client:          g.h.cfg.Client,
		Service:         g.h.cfg.Service,
		Seq:             seq,
		ResolutionNanos: repo.ExportResolutionNanos(),
		Digests:         digests,
	}, true
}

// onSync absorbs a peer's digest batch. Replayed or reordered batches from a
// source (Seq not above the highest seen) are dropped; the gateway's own
// batches can never echo back because only local windows are exported, but
// the source check keeps even a misrouted self-sync out.
func (g *gossiper) onSync(m wire.DigestSync, now time.Time) {
	if m.Client == g.h.cfg.Client {
		return
	}
	g.mu.Lock()
	if last, ok := g.lastSeq[m.Client]; ok && m.Seq <= last {
		g.mu.Unlock()
		return
	}
	g.lastSeq[m.Client] = m.Seq
	g.stats.SyncsReceived++
	g.mu.Unlock()
	g.metSyncsReceived.Inc()
	absorbed, stale := g.h.sched.Repository().AbsorbDigests(m, now)
	g.mu.Lock()
	g.stats.EntriesAbsorbed += uint64(absorbed)
	g.stats.EntriesStale += uint64(stale)
	g.mu.Unlock()
	g.metAbsorbed.Add(uint64(absorbed))
	g.metStale.Add(uint64(stale))
}

// ownsProbe reports whether this gateway holds probe duty for a replica.
// Staleness is fleet-synchronized on the fabric (every member's freshness for
// a replica advances with the same digests), so without coordination every
// member's prober would race to re-probe the same replica the moment it goes
// stale. Probe duty is therefore sharded by rendezvous hashing over the
// fabric membership (self + peers): exactly one member owns each replica,
// every member computes the same owner independently, and ownership
// redistributes evenly when the peer set changes. Non-owners fall back to a
// backed-off cadence (prober.go) so a crashed owner cannot leave a replica
// unprobed forever.
func (g *gossiper) ownsProbe(id wire.ReplicaID) bool {
	g.mu.Lock()
	peers := g.peers
	g.mu.Unlock()
	if len(peers) == 0 {
		return true
	}
	self := g.h.ep.Addr()
	selfScore := rendezvousScore(self, id)
	for _, p := range peers {
		if p == self {
			continue
		}
		s := rendezvousScore(p, id)
		// Deterministic total order: score first, address as tie-break.
		if s > selfScore || (s == selfScore && p > self) {
			return false
		}
	}
	return true
}

// rendezvousScore is FNV-1a over member address and replica ID, finished
// with a 64-bit avalanche mix. Raw FNV is too weak for rendezvous ranking
// here: member addresses share long prefixes ("client:...") and replica IDs
// are short, so without the finalizer the ranking between members barely
// depends on the replica and one member ends up owning everything.
func rendezvousScore(member transport.Addr, id wire.ReplicaID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(member); i++ {
		h ^= uint64(member[i])
		h *= prime64
	}
	h *= prime64 // 0x00 separator byte (x ^ 0 == x)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
