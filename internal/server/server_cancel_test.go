package server

// Fences for the cancel protocol and the two recvLoop/workerLoop bugfixes:
// duplicate frames re-delivered by the network must not be double-served,
// a Cancel must purge a queued request or abort the one in service, and the
// subscriber snapshot must not allocate when nobody subscribes.

import (
	"testing"
	"time"

	"aqua/internal/stats"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDuplicateFramesNotDoubleServed drives transport.Faulty's duplicate
// injector at probability 1: every request frame arrives twice, and the
// dedup window must drop the copy so each request burns exactly one service
// time.
func TestDuplicateFramesNotDoubleServed(t *testing.T) {
	inj := transport.NewInjector(1)
	inner := transport.NewInMem()
	t.Cleanup(func() { _ = inner.Close() })
	netw := transport.NewFaulty(inner, inj)
	ep, err := netw.Listen("r1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Start(ep, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	cli, err := netw.Listen("cli")
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate only the client→replica direction so response counting
	// stays simple.
	inj.SetLink("cli", "r1", transport.FaultPolicy{DupProb: 1})

	const n = 20
	for i := 0; i < n; i++ {
		if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: wire.SeqNo(i), Service: "svc", Method: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.After(5 * time.Second)
	for got < n {
		select {
		case m, ok := <-cli.Recv():
			if !ok {
				t.Fatal("endpoint closed")
			}
			if _, isResp := m.Payload.(wire.Response); isResp {
				got++
			}
		case <-deadline:
			t.Fatalf("received %d/%d responses", got, n)
		}
	}
	waitFor(t, "duplicates to drain", func() bool { return r.DupFramesDropped() == n })
	if served := r.Served(); served != n {
		t.Errorf("served %d requests, want %d (duplicates double-served)", served, n)
	}
}

// TestCancelPurgesQueued: a Cancel arriving while its request still waits in
// the FIFO removes it before service — the request is never served and the
// purge is counted.
func TestCancelPurgesQueued(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		LoadDelay: stats.Constant{Delay: 300 * time.Millisecond},
	})
	cli, _ := net.Listen("cli")

	// Seq 1 occupies the worker for 300ms; seq 2 queues behind it.
	for seq := wire.SeqNo(1); seq <= 2; seq++ {
		if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: seq, Service: "svc", Method: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "seq 2 to queue", func() bool { return r.QueueLen() == 1 })
	if err := cli.Send(r.Addr(), wire.Cancel{Client: "c", Seq: 2, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "purge to register", func() bool { purged, _, _ := r.CancelStats(); return purged == 1 })

	// Seq 1 completes normally; seq 2 must never answer.
	resp := recvResponse(t, cli)
	if resp.Seq != 1 {
		t.Errorf("response for seq %d, want 1", resp.Seq)
	}
	select {
	case m := <-cli.Recv():
		if resp, ok := m.Payload.(wire.Response); ok {
			t.Errorf("purged request answered: seq %d", resp.Seq)
		}
	case <-time.After(500 * time.Millisecond):
	}
	if served := r.Served(); served != 1 {
		t.Errorf("served %d, want 1", served)
	}
}

// TestCancelAbortsInService: a Cancel for the request currently being served
// counts an abort, suppresses the reply once the handler returns, and frees
// the worker for the next request.
func TestCancelAbortsInService(t *testing.T) {
	net := testNetwork(t)
	release := make(chan struct{})
	handler := func(method string, payload []byte) ([]byte, error) {
		if method == "block" {
			<-release
		}
		return []byte(method), nil
	}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: handler,
	})
	cli, _ := net.Listen("cli")

	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc", Method: "block"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 1 to enter service", func() bool { return r.inService("c", 1) })
	if err := cli.Send(r.Addr(), wire.Cancel{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "abort to register", func() bool { _, ab, _ := r.CancelStats(); return ab == 1 })
	close(release) // the handler already started, so it runs to completion

	// The worker is free: a follow-up request answers promptly, and the
	// aborted request never replies.
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 2, Service: "svc", Method: "fast"}); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Seq != 2 {
		t.Errorf("response for seq %d, want 2 (aborted request replied)", resp.Seq)
	}
	// The worker counts a request served only after sending its reply.
	waitFor(t, "seq 2 to be counted", func() bool { return r.Served() >= 1 })
	if served := r.Served(); served != 1 {
		t.Errorf("served %d, want 1", served)
	}
}

// delaySeq is a LoadDelay that serves its delays in order and repeats the
// last one forever after. Only the replica's worker samples it.
type delaySeq []time.Duration

func (d *delaySeq) Sample(*stats.Rand) time.Duration {
	next := (*d)[0]
	if len(*d) > 1 {
		*d = (*d)[1:]
	}
	return next
}
func (d *delaySeq) Mean() time.Duration { return 0 }
func (d *delaySeq) String() string      { return "sequence" }

// abortChannel returns the worker's abort channel, nil before the first serve
// and after an abort.
func (r *Replica) abortChannel() chan struct{} {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	return r.servingAbort
}

// inService reports whether the worker is serving (client, seq).
func (r *Replica) inService(client wire.ClientID, seq wire.SeqNo) bool {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	return r.servingOn && r.servingKey.Client == client && r.servingKey.Seq == seq
}

// abortFirstServe sends seq 1, which sleeps for the first of the replica's
// delays, and aborts it mid-service with a Cancel.
func abortFirstServe(t *testing.T, r *Replica, cli transport.Endpoint) {
	t.Helper()
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 1 to enter service", func() bool { return r.inService("c", 1) })
	if err := cli.Send(r.Addr(), wire.Cancel{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "abort to register", func() bool { _, ab, _ := r.CancelStats(); return ab == 1 })
	if ch := r.abortChannel(); ch != nil {
		t.Fatal("the aborted serve's closed channel is still registered for the next serve")
	}
}

// TestServeReusesAbortChannel: serving requests that nobody cancels makes no
// abort channel after the first — the worker's channel is the same one before
// and after N serves.
func TestServeReusesAbortChannel(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	cli, _ := net.Listen("cli")
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 0, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, cli)
	first := r.abortChannel()
	if first == nil {
		t.Fatal("no abort channel registered after a serve")
	}
	const n = 50
	for seq := wire.SeqNo(1); seq <= n; seq++ {
		if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: seq, Service: "svc"}); err != nil {
			t.Fatal(err)
		}
		recvResponse(t, cli)
	}
	if got := r.abortChannel(); got != first {
		t.Fatalf("the worker made a new abort channel within %d uncancelled serves", n)
	}
}

// TestNextServeAfterAbortSleepsAndReplies: the serve after an abort gets an
// open channel, so it sleeps its full delay and replies instead of reading the
// closed channel as its own abort.
func TestNextServeAfterAbortSleepsAndReplies(t *testing.T) {
	const delay = 30 * time.Millisecond
	net := testNetwork(t)
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: echoHandler,
		LoadDelay: &delaySeq{time.Hour, delay},
	})
	cli, _ := net.Listen("cli")
	abortFirstServe(t, r, cli)
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 2, Service: "svc", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	resp := recvResponse(t, cli)
	if resp.Seq != 2 {
		t.Fatalf("response for seq %d, want 2", resp.Seq)
	}
	if resp.Perf.ServiceTime < delay {
		t.Errorf("seq 2 served in %v, want >= %v: it did not sleep on an open channel", resp.Perf.ServiceTime, delay)
	}
	if _, ab, _ := r.CancelStats(); ab != 1 {
		t.Errorf("aborted %d serves, want 1", ab)
	}
}

// TestLateDuplicateCancelSparesNextServe: a second Cancel for the aborted
// (client, seq), arriving while the next request is in service, matches
// nothing and aborts nothing.
func TestLateDuplicateCancelSparesNextServe(t *testing.T) {
	net := testNetwork(t)
	release := make(chan struct{})
	handler := func(method string, payload []byte) ([]byte, error) {
		if method == "block" {
			<-release
		}
		return []byte(method), nil
	}
	r := startReplica(t, net, Config{
		ID: "r1", Service: "svc", Handler: handler,
		LoadDelay: &delaySeq{time.Hour, 0},
	})
	cli, _ := net.Listen("cli")
	abortFirstServe(t, r, cli)
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 2, Service: "svc", Method: "block"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 2 to enter service", func() bool { return r.inService("c", 2) })
	if err := cli.Send(r.Addr(), wire.Cancel{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the duplicate cancel to count unmatched", func() bool { _, _, um := r.CancelStats(); return um == 1 })
	close(release)
	if resp := recvResponse(t, cli); resp.Seq != 2 {
		t.Fatalf("response for seq %d, want 2", resp.Seq)
	}
	if _, ab, _ := r.CancelStats(); ab != 1 {
		t.Errorf("aborted %d serves, want 1", ab)
	}
}

// TestCancelUnmatchedCounted: a Cancel for an already-served request is a
// counted no-op.
func TestCancelUnmatchedCounted(t *testing.T) {
	net := testNetwork(t)
	r := startReplica(t, net, Config{ID: "r1", Service: "svc", Handler: echoHandler})
	cli, _ := net.Listen("cli")
	if err := cli.Send(r.Addr(), wire.Request{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	recvResponse(t, cli)
	if err := cli.Send(r.Addr(), wire.Cancel{Client: "c", Seq: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unmatched cancel to count", func() bool { _, _, um := r.CancelStats(); return um == 1 })
	purged, ab, _ := r.CancelStats()
	if purged != 0 || ab != 0 {
		t.Errorf("purged=%d aborted=%d, want 0/0", purged, ab)
	}
}

// TestSnapshotSubscribersZeroAllocs is the fence for the workerLoop
// per-request map copy: with no subscribers (the overwhelmingly common
// case) the snapshot must not allocate at all, and with subscribers it
// reuses the caller's buffer.
func TestSnapshotSubscribersZeroAllocs(t *testing.T) {
	r := &Replica{subscribers: make(map[wire.ClientID]transport.Addr)}
	buf := make([]subEntry, 0, 8)
	if allocs := testing.AllocsPerRun(200, func() {
		buf = r.snapshotSubscribers(buf, "c")
	}); allocs != 0 {
		t.Errorf("empty-subscriber snapshot: %.1f allocs/op, want 0", allocs)
	}
	r.subscribers["a"] = "addr-a"
	r.subscribers["b"] = "addr-b"
	if allocs := testing.AllocsPerRun(200, func() {
		buf = r.snapshotSubscribers(buf, "a")
	}); allocs != 0 {
		t.Errorf("reused-buffer snapshot: %.1f allocs/op, want 0", allocs)
	}
	if len(buf) != 1 || buf[0].client != "b" {
		t.Errorf("snapshot = %+v, want just b", buf)
	}
}

func BenchmarkSnapshotSubscribers(b *testing.B) {
	r := &Replica{subscribers: make(map[wire.ClientID]transport.Addr)}
	buf := make([]subEntry, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.snapshotSubscribers(buf, "c")
	}
}
