package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aqua/internal/transport"
	"aqua/internal/wire"
)

// memSM is a test state machine whose state IS the applied operation
// sequence, so history divergence cannot hide behind snapshot truncation.
type memSM struct {
	mu  sync.Mutex
	ops []string
}

func (m *memSM) Apply(method string, payload []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = append(m.ops, method+":"+string(payload))
	return []byte(fmt.Sprintf("ok-%d", len(m.ops))), nil
}

func (m *memSM) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []byte(strings.Join(m.ops, "\n")), nil
}

func (m *memSM) Restore(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(snapshot) == 0 {
		m.ops = nil
		return nil
	}
	m.ops = strings.Split(string(snapshot), "\n")
	return nil
}

func (m *memSM) history() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.ops...)
}

func stamped(client wire.ClientID, seq wire.SeqNo, stamp uint64, op string) wire.Request {
	return wire.Request{
		Client: client, Seq: seq, Service: "svc",
		Method: "set", Payload: []byte(op),
		Stamp: stamp, SentAt: time.Now(),
	}
}

func TestOrderedStableDelivery(t *testing.T) {
	net := testNetwork(t)
	sm := &memSM{}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler, StateMachine: sm,
	})
	cli, _ := net.Listen("cli")

	// Deliver stamps out of order: 3 and 2 must be held back until 1 lands.
	for _, s := range []uint64{3, 1, 2} {
		if err := cli.Send(r.Addr(), stamped("c", wire.SeqNo(s), s, fmt.Sprintf("op%d", s))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		resp := recvResponse(t, cli)
		if resp.Err != "" {
			t.Fatalf("reply error: %s", resp.Err)
		}
		if !resp.Perf.CaughtUp {
			t.Errorf("reply %d: CaughtUp = false, want true", i)
		}
	}
	want := []string{"set:op1", "set:op2", "set:op3"}
	got := sm.history()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("applied history = %v, want %v", got, want)
	}
	if r.OrderedTail() != 3 {
		t.Errorf("OrderedTail = %d, want 3", r.OrderedTail())
	}
	if r.HeldBack() != 0 {
		t.Errorf("HeldBack = %d, want 0", r.HeldBack())
	}
}

func TestOrderedGapRefill(t *testing.T) {
	net := testNetwork(t)
	sm := &memSM{}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler, StateMachine: sm,
	})
	cli, _ := net.Listen("cli")

	// Stamp 2 arrives with stamp 1 missing: the replica must hold it and ask
	// this (stamping) gateway to re-send the gap.
	if err := cli.Send(r.Addr(), stamped("c", 2, 2, "op2")); err != nil {
		t.Fatal(err)
	}
	var gap wire.StateRequest
	deadline := time.After(2 * time.Second)
	for gap.Gap == "" {
		select {
		case m, ok := <-cli.Recv():
			if !ok {
				t.Fatal("endpoint closed")
			}
			if sr, ok := m.Payload.(wire.StateRequest); ok {
				gap = sr
			}
		case <-deadline:
			t.Fatal("no gap-refill StateRequest within 2s")
		}
	}
	if gap.Gap != "c" || gap.FromStamp != 1 || gap.ToStamp != 1 || gap.WantSnapshot {
		t.Fatalf("gap request = %+v, want Gap=c From=1 To=1", gap)
	}
	if r.RefillsRequested() == 0 {
		t.Error("RefillsRequested = 0, want > 0")
	}

	// Replaying the original fills the gap and releases both in order.
	if err := cli.Send(r.Addr(), stamped("c", 1, 1, "op1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both ops applied", func() bool { return r.OrderedTail() == 2 })
	want := []string{"set:op1", "set:op2"}
	if got := sm.history(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("applied history = %v, want %v", got, want)
	}
}

func TestOrderedDuplicateRepliedFromCache(t *testing.T) {
	net := testNetwork(t)
	sm := &memSM{}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler, StateMachine: sm,
	})
	cli, _ := net.Listen("cli")
	other, _ := net.Listen("other")

	var firstReply wire.Response
	for s := uint64(1); s <= 5; s++ {
		if err := cli.Send(r.Addr(), stamped("c", wire.SeqNo(s), s, fmt.Sprintf("op%d", s))); err != nil {
			t.Fatal(err)
		}
		resp := recvResponse(t, cli)
		if s == 1 {
			firstReply = resp
		}
	}
	// A second client's dedupWindow probes evict stamp 1's (client, seq)
	// from the frame window, so re-sending it exercises the ordered layer's
	// result cache instead of the frame dedup, and must answer from that
	// cache without re-executing.
	for s := 1; s <= dedupWindow; s++ {
		probe := wire.Request{Client: "other", Seq: wire.SeqNo(s), Service: "svc", Probe: true}
		if err := other.Send(r.Addr(), probe); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Send(r.Addr(), stamped("c", 1, 1, "op1")); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if string(resp.Payload) != string(firstReply.Payload) {
		t.Errorf("replayed payload = %q, want %q", resp.Payload, firstReply.Payload)
	}
	if r.Replayed() != 1 {
		t.Errorf("Replayed = %d, want 1", r.Replayed())
	}
	if got := len(sm.history()); got != 5 {
		t.Errorf("applied ops = %d, want 5 (duplicate must not re-execute)", got)
	}
}

func TestOrderedStateTransfer(t *testing.T) {
	net := testNetwork(t)
	smA := &memSM{}
	a := startReplica(t, net, Config{
		ID: "rA", Service: "svc", Handler: echoHandler, StateMachine: smA,
	})
	cli, _ := net.Listen("cli")
	// Past one SnapshotEvery so the transfer carries a snapshot AND a log
	// suffix.
	const ops = SnapshotEvery + 6
	for s := uint64(1); s <= ops; s++ {
		if err := cli.Send(a.Addr(), stamped("c", wire.SeqNo(s), s, fmt.Sprintf("op%d", s))); err != nil {
			t.Fatal(err)
		}
		recvResponse(t, cli)
	}

	smB := &memSM{}
	b := startReplica(t, net, Config{
		ID: "rB", Service: "svc", Handler: echoHandler,
		StateMachine: smB, Recovering: true,
	})
	if b.CaughtUp() {
		t.Fatal("recovering replica reports CaughtUp before transfer")
	}
	b.UpdatePeers(map[wire.ReplicaID]transport.Addr{"rA": a.Addr(), "rB": b.Addr()})
	waitFor(t, "state transfer", func() bool { return b.CaughtUp() })
	if b.StateTransfers() != 1 {
		t.Errorf("StateTransfers = %d, want 1", b.StateTransfers())
	}
	if b.OrderedTail() != ops {
		t.Errorf("OrderedTail = %d, want %d", b.OrderedTail(), ops)
	}
	if gotA, gotB := strings.Join(smA.history(), ","), strings.Join(smB.history(), ","); gotA != gotB {
		t.Errorf("transferred state diverges:\n  A: %s\n  B: %s", gotA, gotB)
	}

	// The adopted cursors make the next stamp apply directly.
	if err := cli.Send(b.Addr(), stamped("c", ops+1, ops+1, "after")); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Err != "" || !resp.Perf.CaughtUp {
		t.Fatalf("post-transfer reply = %+v", resp)
	}
	if b.OrderedTail() != ops+1 {
		t.Errorf("post-transfer OrderedTail = %d, want %d", b.OrderedTail(), ops+1)
	}
}

func TestOrderedSoleSurvivorBootsFresh(t *testing.T) {
	net := testNetwork(t)
	sm := &memSM{}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		StateMachine: sm, Recovering: true,
	})
	// Learning that there are no peers at all means nothing to recover from.
	r.UpdatePeers(map[wire.ReplicaID]transport.Addr{"r1": r.Addr()})
	waitFor(t, "fresh boot", func() bool { return r.CaughtUp() })
	if r.StateTransfers() != 0 {
		t.Errorf("StateTransfers = %d, want 0", r.StateTransfers())
	}
}

// TestDedupGenerationAcrossRecovery is the satellite regression: the dedup
// window must be generation-tagged, because a recovery reset discards ordered
// state the gateway may legitimately re-send. Without the tag, the window
// swallows the re-sent frame and the replica can never be refilled.
func TestDedupGenerationAcrossRecovery(t *testing.T) {
	net := testNetwork(t)
	sm := &memSM{}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler, StateMachine: sm,
	})
	cli, _ := net.Listen("cli")

	for s := uint64(1); s <= 2; s++ {
		if err := cli.Send(r.Addr(), stamped("c", wire.SeqNo(s), s, fmt.Sprintf("op%d", s))); err != nil {
			t.Fatal(err)
		}
		recvResponse(t, cli)
	}

	// Same generation: an in-window duplicate frame is dropped silently.
	if err := cli.Send(r.Addr(), stamped("c", 2, 2, "op2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate dropped", func() bool { return r.DupFramesDropped() == 1 })

	// A Pruned answer to a (hypothetical) refill forces a full recovery,
	// which bumps the dedup generation.
	if err := cli.Send(r.Addr(), wire.StateChunk{Replica: "r1", Service: "svc", Pruned: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery entered", func() bool { return !r.CaughtUp() })

	// The same frame again: recorded under the old generation, it must NOT
	// count as a duplicate — the reset discarded the state that saw it. The
	// release cursor survived the reset, so the cached result answers it.
	if err := cli.Send(r.Addr(), stamped("c", 2, 2, "op2")); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Seq != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if r.DupFramesDropped() != 1 {
		t.Errorf("DupFramesDropped = %d, want still 1 (old-generation hit is not a duplicate)", r.DupFramesDropped())
	}
	if r.Replayed() != 1 {
		t.Errorf("Replayed = %d, want 1", r.Replayed())
	}
}
