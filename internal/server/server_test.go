package server

import (
	"errors"
	"testing"
	"time"

	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

func testNetwork(t *testing.T) *transport.InMem {
	t.Helper()
	n := transport.NewInMem()
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func startReplica(t *testing.T, net *transport.InMem, cfg Config) *Replica {
	t.Helper()
	ep, err := net.Listen(transport.Addr(cfg.ID))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Start(ep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// subscriberCount returns how many clients are subscribed to perf updates.
func (r *Replica) subscriberCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subscribers)
}

func echoHandler(method string, payload []byte) ([]byte, error) {
	return append([]byte(method+":"), payload...), nil
}

func recvResponse(t *testing.T, ep transport.Endpoint) wire.Response {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				t.Fatal("endpoint closed")
			}
			if resp, ok := m.Payload.(wire.Response); ok {
				return resp
			}
		case <-deadline:
			t.Fatal("no response within 2s")
		}
	}
}

func TestStartValidation(t *testing.T) {
	net := testNetwork(t)
	ep, _ := net.Listen("x")
	if _, err := Start(ep, Config{Service: "s", Handler: echoHandler}); err == nil {
		t.Error("want error for missing ID")
	}
	if _, err := Start(ep, Config{ID: "r", Handler: echoHandler}); err == nil {
		t.Error("want error for missing service")
	}
	if _, err := Start(ep, Config{ID: "r", Service: "s"}); err == nil {
		t.Error("want error for missing handler")
	}
}

func TestRequestResponseWithPerfReport(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	cli, _ := net.Listen("cli")

	req := wire.Request{Client: "c", Seq: 3, Service: "svc", Method: "m", Payload: []byte("x")}
	if err := cli.Send(r.Addr(), req); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Seq != 3 || resp.Replica != "r1" || string(resp.Payload) != "m:x" {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Perf.ServiceTime < 0 || resp.Perf.QueueDelay < 0 {
		t.Errorf("perf = %+v", resp.Perf)
	}
	if r.Served() != 1 {
		t.Errorf("Served = %d", r.Served())
	}
}

func TestWrongServiceIgnored(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	cli, _ := net.Listen("cli")

	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "other"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-cli.Recv():
		t.Fatalf("got %+v for foreign-service request", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
	if r.Served() != 0 {
		t.Errorf("Served = %d", r.Served())
	}
}

func TestHandlerErrorPropagated(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc",
		Handler: func(string, []byte) ([]byte, error) {
			return nil, errors.New("boom")
		},
	})
	cli, _ := net.Listen("cli")
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Err != "boom" {
		t.Errorf("Err = %q, want boom", resp.Err)
	}
}

func TestLoadDelayInflatesServiceTime(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		LoadDelay: stats.Constant{Delay: 40 * time.Millisecond},
	})
	cli, _ := net.Listen("cli")
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Perf.ServiceTime < 35*time.Millisecond {
		t.Errorf("ServiceTime = %v, want >= ~40ms with injected load", resp.Perf.ServiceTime)
	}
}

func TestFIFOQueueDelayMeasured(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		LoadDelay: stats.Constant{Delay: 30 * time.Millisecond},
	})
	cli, _ := net.Listen("cli")
	// Two back-to-back requests: the second must wait for the first.
	for seq := wire.SeqNo(1); seq <= 2; seq++ {
		if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: seq, Service: "svc"}); err != nil {
			t.Fatal(err)
		}
	}
	first := recvResponse(t, cli)
	second := recvResponse(t, cli)
	if first.Seq != 1 || second.Seq != 2 {
		t.Fatalf("out of order: %d then %d", first.Seq, second.Seq)
	}
	if second.Perf.QueueDelay < 20*time.Millisecond {
		t.Errorf("second request QueueDelay = %v, want >= ~30ms (FIFO wait)", second.Perf.QueueDelay)
	}
}

func TestSubscribersReceivePerfUpdates(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	requester, _ := net.Listen("requester")
	watcher, _ := net.Listen("watcher")

	// The watcher subscribes; the requester triggers work.
	if err := watcher.Send(r.Addr(), wire.Subscribe{Client: "w", Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the subscription to land", func() bool { return r.subscriberCount() == 1 })
	if err := requester.Send(r.Addr(), wire.Request{Client: "rq", Seq: 1, Service: "svc", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, requester)

	select {
	case m := <-watcher.Recv():
		u, ok := m.Payload.(wire.PerfUpdate)
		if !ok {
			t.Fatalf("watcher got %T", m.Payload)
		}
		if u.Replica != "r1" || u.Method != "m" {
			t.Errorf("update = %+v", u)
		}
	case <-time.After(time.Second):
		t.Fatal("watcher never received the perf update")
	}
}

func TestRequesterNotDoubledUpdated(t *testing.T) {
	// The requester gets its perf data piggybacked; it must NOT also get a
	// PerfUpdate for its own request.
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	requester, _ := net.Listen("requester")
	if err := requester.Send(r.Addr(), wire.Subscribe{Client: "rq", Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the subscription to land", func() bool { return r.subscriberCount() == 1 })
	if err := requester.Send(r.Addr(), wire.Request{Client: "rq", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, requester)
	select {
	case m := <-requester.Recv():
		if _, ok := m.Payload.(wire.PerfUpdate); ok {
			t.Fatal("requester received redundant PerfUpdate for its own request")
		}
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUnsubscribeStopsUpdates(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	requester, _ := net.Listen("requester")
	watcher, _ := net.Listen("watcher")

	if err := watcher.Send(r.Addr(), wire.Subscribe{Client: "w", Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the subscription to land", func() bool { return r.subscriberCount() == 1 })
	if err := watcher.Send(r.Addr(), wire.Unsubscribe{Client: "w", Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the unsubscription to land", func() bool { return r.subscriberCount() == 0 })
	if err := requester.Send(r.Addr(), wire.Request{Client: "rq", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, requester)
	select {
	case m := <-watcher.Recv():
		t.Fatalf("unsubscribed watcher got %T", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestStopIsIdempotentAndHalts: Stop wakes a worker asleep on the abort
// channel it reuses from an earlier serve, and a second Stop is a no-op.
func TestStopIsIdempotentAndHalts(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		LoadDelay: &delaySeq{0, time.Hour}, // seq 2 on: the worker sleeps forever
	})
	cli, _ := net.Listen("cli")
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, cli)
	reused := r.abortChannel()
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 2, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 2 to enter service", func() bool { return r.inService("c", 2) })
	if r.abortChannel() != reused {
		t.Fatal("seq 2 does not sleep on the channel seq 1 was served with")
	}
	done := make(chan struct{})
	go func() {
		r.Stop()
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung with a sleeping worker")
	}
}
