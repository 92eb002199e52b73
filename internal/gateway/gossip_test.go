package gateway

// Fences for the digest-gossip fabric and the demux drop accounting: peers
// exchange locally measured digests on the gossip cadence, a cold gateway
// learns from a warm peer's first push, and payload types the demux has no
// route for are counted instead of vanishing.

import (
	"context"
	"testing"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/repository"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// seedRepo records a full local window for every replica in h's repository.
// Seeding directly — rather than driving real calls — keeps the replicas
// silent, so they publish no §5.4 perf updates to the other subscribed
// gateways and digest gossip is the only channel under test.
func seedRepo(h *TimingFaultHandler, now time.Time) {
	repo := h.Scheduler().Repository()
	for _, id := range repo.Replicas() {
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: ms}, now)
		}
	}
}

// TestGossipExchangeSharesDigests: two gateways on the same service, one with
// real traffic and one idle. The idle gateway's repository must fill with
// borrowed windows from the warm peer's pushes alone, and both sides' stats
// must account for the exchange.
func TestGossipExchangeSharesDigests(t *testing.T) {
	f := newFixture(t, 3, nil)
	warm := f.handler(Config{
		Client: "warm", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		GossipInterval: 10 * ms,
	})
	idle := f.handler(Config{
		Client: "idle", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		GossipInterval: 10 * ms,
	})
	warm.SetGossipPeers([]transport.Addr{"client:idle"})
	idle.SetGossipPeers([]transport.Addr{"client:warm"})
	seedRepo(warm, time.Now())

	repo := idle.Scheduler().Repository()
	waitFor(t, 2*time.Second, func() bool {
		for _, id := range repo.Replicas() {
			if repo.BorrowedLen(id, "") == 0 {
				return false
			}
		}
		return true
	}, "idle gateway borrowed a window for every replica")

	// The borrowed windows must be predictive: every replica has history
	// without the idle gateway having sent a single request.
	for _, snap := range repo.Snapshot("") {
		if !snap.HasHistory {
			t.Errorf("replica %s has no history on the idle gateway", snap.ID)
		}
	}
	if st := idle.Stats(); st.Requests != 0 {
		t.Fatalf("idle gateway sent %d requests", st.Requests)
	}

	ws, ok := warm.GossipStats()
	if !ok || ws.SyncsSent == 0 {
		t.Errorf("warm gateway gossip stats = %+v, %v; want SyncsSent > 0", ws, ok)
	}
	is, ok := idle.GossipStats()
	if !ok || is.SyncsReceived == 0 || is.EntriesAbsorbed == 0 {
		t.Errorf("idle gateway gossip stats = %+v, %v; want syncs received and entries absorbed", is, ok)
	}
}

// TestGossipFirstPushSeedsColdGateway: a cold gateway borrows every
// replica's window from the warm peer's first periodic push. When it has, one
// sync did it, and the cold gateway has sent no request and measured no link
// delay: every T view is still empty.
func TestGossipFirstPushSeedsColdGateway(t *testing.T) {
	f := newFixture(t, 3, nil)
	cold := f.handler(Config{
		Client: "cold", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		GossipInterval: time.Hour, // receives only
	})
	warm := f.handler(Config{
		Client: "warm", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		GossipInterval: 200 * ms, // rounds 100-300 ms apart
	})
	seedRepo(warm, time.Now())
	warm.SetGossipPeers([]transport.Addr{"client:cold"})

	repo := cold.Scheduler().Repository()
	waitFor(t, 2*time.Second, func() bool {
		s, _ := cold.GossipStats()
		return s.EntriesAbsorbed >= uint64(len(repo.Replicas()))
	}, "cold gateway absorbed the warm peer's push")
	cs, _ := cold.GossipStats()
	ws, _ := warm.GossipStats()
	if cs.SyncsReceived != 1 || ws.SyncsSent != 1 {
		t.Errorf("cold received %d syncs, warm sent %d; want the first push alone", cs.SyncsReceived, ws.SyncsSent)
	}
	for _, snap := range repo.Snapshot("") {
		if !snap.HasHistory || repo.BorrowedLen(snap.ID, "") == 0 {
			t.Errorf("replica %s: history %v, %d borrowed; want a borrowed window", snap.ID, snap.HasHistory, repo.BorrowedLen(snap.ID, ""))
		}
		if snap.GatewayHist.OK() {
			t.Errorf("replica %s: T view %+v before any local reply", snap.ID, snap.GatewayHist)
		}
	}
	if st := cold.Stats(); st.Requests != 0 {
		t.Errorf("cold gateway sent %d requests", st.Requests)
	}
}

// TestGossipRestartedPeerHeard: a gateway re-created under the same client
// ID is heard by its peers at once, though its predecessor had already sent
// them more syncs than it has. The peers' replay guard keys on the client
// ID alone, so a sequence that restarted from zero would be dropped until
// it overtook the old one.
func TestGossipRestartedPeerHeard(t *testing.T) {
	f := newFixture(t, 3, nil)
	gossiping := func(id wire.ClientID) *TimingFaultHandler {
		h := f.handler(Config{
			Client: id, Service: "svc",
			QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
			GossipInterval: time.Hour, // rounds only when pushed below
		})
		h.SetGossipPeers([]transport.Addr{"client:b"})
		seedRepo(h, time.Now())
		return h
	}
	b := f.handler(Config{
		Client: "b", Service: "svc",
		QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		GossipInterval: time.Hour,
	})
	received := func() uint64 { s, _ := b.GossipStats(); return s.SyncsReceived }
	pushAndWait := func(h *TimingFaultHandler, n int, what string) {
		t.Helper()
		want := received() + uint64(n)
		for i := 0; i < n; i++ {
			h.gossip.push()
		}
		waitFor(t, 2*time.Second, func() bool { return received() == want }, what)
	}

	a := gossiping("a")
	pushAndWait(a, 20, "b accepted 20 syncs from a")
	a.Close()
	pushAndWait(gossiping("a"), 10, "b accepted 10 syncs from a re-created a")
}

// TestMultiGatewayDemuxDropCounted: a payload type messageService has no
// route for increments aqua_gateway_demux_dropped_total instead of vanishing
// silently, while routable traffic is unaffected.
func TestMultiGatewayDemuxDropCounted(t *testing.T) {
	f := newFixture(t, 1, nil)
	ep, err := f.net.Listen("client:mg")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	g, err := NewMultiGateway(ep, "mg", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	if _, err := g.LoadHandler(Config{
		Service: "svc",
		QoS:     wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		Metrics: reg, StaticReplicas: f.static(),
	}); err != nil {
		t.Fatal(err)
	}

	sender, err := f.net.Listen("demux-sender")
	if err != nil {
		t.Fatal(err)
	}
	// A wire.Request is server-bound: the client-side demux has no route for
	// it, exactly like a newer peer's unknown message type.
	if err := sender.Send("client:mg", wire.Request{Client: "x", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return reg.Snapshot().Counter(metrics.GatewayDemuxDropped) == 1
	}, "unknown payload type counted by the demux")

	// Routable traffic still flows after the drop.
	if _, err := g.Call(context.Background(), "svc", "", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter(metrics.GatewayDemuxDropped); got != 1 {
		t.Errorf("demux drops = %d after routable traffic, want still 1", got)
	}
}

// TestProbeOwnershipPartition: on a full mesh, every member computes the
// same probe owner for each replica independently — exactly one owner per
// replica, and with no peers a gateway owns everything.
func TestProbeOwnershipPartition(t *testing.T) {
	f := newFixture(t, 8, nil)
	names := []string{"gw-a", "gw-b", "gw-c", "gw-d"}
	handlers := make([]*TimingFaultHandler, len(names))
	addrs := make([]transport.Addr, len(names))
	for i, n := range names {
		handlers[i] = f.handler(Config{
			Client: wire.ClientID(n), Service: "svc",
			QoS:            wire.QoS{Deadline: 300 * ms, MinProbability: 0},
			GossipInterval: time.Hour,
		})
		addrs[i] = transport.Addr("client:" + n)
	}
	for i, h := range handlers {
		peers := make([]transport.Addr, 0, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		h.SetGossipPeers(peers)
	}

	counts := make(map[wire.ReplicaID]int)
	for id := range f.replicas {
		for _, h := range handlers {
			if h.gossip.ownsProbe(id) {
				counts[id]++
			}
		}
	}
	spread := make(map[int]bool)
	for id, n := range counts {
		if n != 1 {
			t.Errorf("replica %s has %d probe owners, want exactly 1", id, n)
		}
		for i, h := range handlers {
			if h.gossip.ownsProbe(id) {
				spread[i] = true
			}
		}
	}
	if len(counts) != len(f.replicas) {
		t.Fatalf("checked %d replicas, want %d", len(counts), len(f.replicas))
	}
	// Rendezvous hashing should not degenerate to one gateway owning all 8
	// replicas (probability ~4^-7 under a fair hash).
	if len(spread) < 2 {
		t.Errorf("all replicas owned by a single gateway; duty not spreading")
	}

	// A gateway with no peers owns everything.
	handlers[0].SetGossipPeers(nil)
	for id := range f.replicas {
		if !handlers[0].gossip.ownsProbe(id) {
			t.Fatalf("peerless gateway does not own %s", id)
		}
	}
}

// TestHandlerUnknownPayloadCounted covers the same fence on the single-
// handler receive path (no MultiGateway in front).
func TestHandlerUnknownPayloadCounted(t *testing.T) {
	f := newFixture(t, 1, nil)
	reg := metrics.NewRegistry()
	h := f.handler(Config{
		Client: "unk", Service: "svc",
		QoS:     wire.QoS{Deadline: 300 * ms, MinProbability: 0},
		Metrics: reg,
	})
	h.handleMessage(transport.Message{From: "peer", Payload: wire.Request{Client: "x", Seq: 1}}, time.Now())
	if got := reg.Snapshot().Counter(metrics.GatewayDemuxDropped); got != 1 {
		t.Fatalf("demux drops = %d after unknown payload, want 1", got)
	}
}
