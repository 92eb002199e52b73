package gateway

// Fences for what a call holds while it is in flight: pooled decision
// buffers, one recycled call state (reply channel + timer), nothing that
// outlives the call.

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"aqua/internal/selection"
	"aqua/internal/server"
	"aqua/internal/stats"
	"aqua/internal/trace"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// echoCluster starts one echoing replica per load on a fresh in-memory
// network and returns the network and the replicas' addresses.
func echoCluster(t *testing.T, loads ...stats.DelayDist) (*transport.InMem, map[wire.ReplicaID]transport.Addr) {
	t.Helper()
	net := transport.NewInMem()
	t.Cleanup(func() { _ = net.Close() })
	addrs := make(map[wire.ReplicaID]transport.Addr)
	for i, load := range loads {
		id := wire.ReplicaID(fmt.Sprintf("r%d", i))
		ep, err := net.Listen(transport.Addr(id))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(ep, server.Config{
			ID: id, Service: "svc", LoadDelay: load, Seed: int64(i + 1),
			Handler: func(_ string, payload []byte) ([]byte, error) { return payload, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		addrs[id] = srv.Addr()
	}
	return net, addrs
}

func echoHandler(t *testing.T, net *transport.InMem, cfg Config) *TimingFaultHandler {
	t.Helper()
	ep, err := net.Listen(transport.Addr("client:" + string(cfg.Client)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewTimingFaultHandler(ep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestTraceTargetsSurviveBufferReuse: callOnce releases the decision's pooled
// target buffer, so the recorder must hold its own copy. r0 is slow: the
// cold-start decision lists it first, every later one leaves it out and
// overwrites the recycled buffer with other IDs.
func TestTraceTargetsSurviveBufferReuse(t *testing.T) {
	rec := trace.New()
	net, addrs := echoCluster(t, stats.Constant{Delay: 2 * ms}, nil, nil)
	h := echoHandler(t, net, Config{
		Client: "traced", Service: "svc", StaticReplicas: addrs, Trace: rec,
		QoS: wire.QoS{Deadline: 300 * ms, MinProbability: 0.5},
	})
	ctx := context.Background()
	if _, err := h.Call(ctx, "", nil); err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(rec.Filter(trace.KindSchedule)[0].Targets)
	if len(first) != 3 {
		t.Fatalf("cold-start decision selected %v, want all three", first)
	}
	for i := 0; i < 1000; i++ {
		if _, err := h.Call(ctx, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	events := rec.Filter(trace.KindSchedule)
	if got := events[0].Targets; !slices.Equal(got, first) {
		t.Errorf("first schedule event now lists %v, recorded %v", got, first)
	}
	if last := events[len(events)-1].Targets; slices.Equal(last, first) {
		t.Fatalf("the last decision selected %v again: the test cannot see a reused buffer", last)
	}
}

// TestCallSteadyStateAllocs is ROADMAP's gateway.call_1r_allocs gate: a warm
// Call against one in-memory replica — gateway, scheduler, model, repository,
// transport and the replica itself — allocates at most 10 times.
func TestCallSteadyStateAllocs(t *testing.T) {
	net, addrs := echoCluster(t, nil)
	h := echoHandler(t, net, Config{
		Client: "steady", Service: "svc", StaticReplicas: addrs,
		QoS: wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
	})
	ctx := context.Background()
	payload := make([]byte, 64)
	call := func() {
		if _, err := h.Call(ctx, "", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	if allocs := testing.AllocsPerRun(500, call); allocs > 10 {
		t.Fatalf("a warm Call allocates %.1f times, want <= 10", allocs)
	}
}

// TestRecycledCallStateCarriesNoReply walks the two ways a reply could reach
// the wrong call through a recycled state: delivered just before its caller
// gave up (left in the channel), or arriving after (its waiter is gone).
func TestRecycledCallStateCarriesNoReply(t *testing.T) {
	net, addrs := echoCluster(t, nil)
	h := echoHandler(t, net, Config{
		Client: "recycle", Service: "svc", StaticReplicas: addrs,
		QoS: wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
	})
	late := func(seq wire.SeqNo) transport.Message {
		return transport.Message{Payload: wire.Response{Client: "recycle", Seq: seq, Service: "svc", Replica: "r0", Payload: []byte("late")}}
	}
	const a, b = wire.SeqNo(1 << 40), wire.SeqNo(1<<40 + 1) // never scheduled: the scheduler reports Unknown, the waiter decides
	cs := h.beginCall(a)
	h.handleMessage(late(a), time.Now()) // delivered, never read
	h.endCall(a, cs)
	if again := h.beginCall(b); again != cs {
		t.Fatal("the idle state was not reused")
	}
	h.handleMessage(late(a), time.Now()) // a's straggler while b waits on the same state
	select {
	case resp := <-cs.reply:
		t.Fatalf("call %d received call %d's reply through a recycled state", b, resp.Seq)
	default:
	}
	h.endCall(b, cs)
}

// TestPooledCallStateUnderConcurrentCallers: four callers, every request to
// both replicas, one of which answers only after MaxWait — so every call's
// tracking state outlives it and stragglers keep arriving for calls long
// returned. No caller may ever read another call's payload, and once they are
// done the handler holds one idle state per caller at most, each with its
// timer stopped, and no waiter.
func TestPooledCallStateUnderConcurrentCallers(t *testing.T) {
	const callers, perCaller = 4, 20000
	net, addrs := echoCluster(t, nil, stats.Constant{Delay: 150 * ms})
	h := echoHandler(t, net, Config{
		Client: "pooled", Service: "svc", StaticReplicas: addrs, Strategy: selection.All{},
		QoS: wire.QoS{Deadline: 50 * ms, MinProbability: 0.5}, MaxWait: 100 * ms,
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := uint64(c)<<32 | uint64(i)
				out, err := h.Call(ctx, "", binary.BigEndian.AppendUint64(nil, want))
				if err != nil {
					t.Errorf("caller %d call %d: %v", c, i, err)
					return
				}
				if got := binary.BigEndian.Uint64(out); got != want {
					t.Errorf("caller %d call %d received the reply to caller %d call %d", c, i, got>>32, got&(1<<32-1))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.waiters) != 0 || h.callsMade > callers || len(h.free) != h.callsMade {
		t.Errorf("%d waiters, %d call states made, %d idle after %d callers finished; want 0, <= %d, all idle",
			len(h.waiters), h.callsMade, len(h.free), callers, callers)
	}
	for _, cs := range h.free {
		if cs.timer.Stop() {
			t.Error("an idle call state's timer was still armed")
		}
	}
}
