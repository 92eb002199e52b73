package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/wire"
)

// recvOne waits for a message with a timeout.
func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// networkUnderTest runs the same contract suite over both implementations.
func networkUnderTest(t *testing.T, name string, mk func(t *testing.T) (Network, func(i int) Addr, func())) {
	t.Run(name+"/round-trip", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		b, err := net.Listen(addr(2))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()

		req := wire.Request{Client: "c", Seq: 7, Service: "svc", Payload: []byte("hi")}
		if err := a.Send(b.Addr(), req); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b)
		got, ok := m.Payload.(wire.Request)
		if !ok {
			t.Fatalf("payload type %T", m.Payload)
		}
		if got.Seq != 7 || string(got.Payload) != "hi" {
			t.Errorf("payload = %+v", got)
		}
		if m.From != a.Addr() {
			t.Errorf("From = %v, want %v", m.From, a.Addr())
		}

		// Reply using the received From address.
		resp := wire.Response{Client: "c", Seq: 7, Replica: "r"}
		if err := b.Send(m.From, resp); err != nil {
			t.Fatal(err)
		}
		m2 := recvOne(t, a)
		if _, ok := m2.Payload.(wire.Response); !ok {
			t.Fatalf("reply type %T", m2.Payload)
		}
	})

	t.Run(name+"/all-wire-types", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		b, err := net.Listen(addr(2))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()

		payloads := []any{
			wire.Request{Client: "c", Seq: 1},
			wire.Response{Client: "c", Seq: 1, Perf: wire.PerfReport{ServiceTime: time.Millisecond}},
			wire.Subscribe{Client: "c", Service: "s"},
			wire.Unsubscribe{Client: "c", Service: "s"},
			wire.PerfUpdate{Replica: "r", Service: "s"},
			wire.Heartbeat{From: "r", Service: "s", View: 3},
		}
		for _, p := range payloads {
			if err := a.Send(b.Addr(), p); err != nil {
				t.Fatalf("send %T: %v", p, err)
			}
			m := recvOne(t, b)
			if fmt.Sprintf("%T", m.Payload) != fmt.Sprintf("%T", p) {
				t.Errorf("got %T, want %T", m.Payload, p)
			}
		}
	})

	t.Run(name+"/send-after-close", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(addr(2), wire.Request{}); err == nil {
			t.Error("want error sending on closed endpoint")
		}
		if err := a.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})

	t.Run(name+"/unknown-destination-drops", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		// A send to nowhere either errors (TCP) or silently drops (inmem);
		// it must not panic or block.
		_ = a.Send(addr(9), wire.Request{})
	})

	t.Run(name+"/multicast", func(t *testing.T) {
		net, addr, done := mk(t)
		defer done()
		a, err := net.Listen(addr(1))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		var targets []Addr
		var eps []Endpoint
		for i := 2; i <= 4; i++ {
			ep, err := net.Listen(addr(i))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ep.Close() }()
			targets = append(targets, ep.Addr())
			eps = append(eps, ep)
		}
		if err := Multicast(a, targets, wire.Request{Seq: 9}); err != nil {
			t.Fatal(err)
		}
		for _, ep := range eps {
			m := recvOne(t, ep)
			if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 9 {
				t.Errorf("multicast payload = %+v", m.Payload)
			}
		}
	})
}

func TestNetworks(t *testing.T) {
	networkUnderTest(t, "inmem", func(t *testing.T) (Network, func(int) Addr, func()) {
		n := NewInMem()
		return n, func(i int) Addr { return Addr(fmt.Sprintf("ep-%d", i)) }, func() { _ = n.Close() }
	})
	networkUnderTest(t, "tcp", func(t *testing.T) (Network, func(int) Addr, func()) {
		return NewTCP(), func(i int) Addr { return "127.0.0.1:0" }, func() {}
	})
}

func TestInMemDuplicateAddress(t *testing.T) {
	n := NewInMem()
	defer func() { _ = n.Close() }()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Error("want error for duplicate address")
	}
}

func TestInMemListenAfterNetworkClose(t *testing.T) {
	n := NewInMem()
	_ = n.Close()
	if _, err := n.Listen("x"); err == nil {
		t.Error("want error listening on closed network")
	}
}

func TestTCPSendToUnreachable(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// Sends are asynchronous: a dead destination loses the message like a
	// datagram, and the caller must return immediately, not pay the dial.
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = a.Send("127.0.0.1:1", wire.Request{Seq: wire.SeqNo(i)})
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("10 sends to unreachable peer took %v, want immediate return", elapsed)
	}
	// The failed destination must not poison traffic to a live peer.
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.Send(b.Addr(), wire.Request{Seq: 99}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 99 {
		t.Errorf("live peer got %+v", m.Payload)
	}
}

func TestTCPFailedFirstDialDoesNotPoisonLaterSends(t *testing.T) {
	// Reserve a port, then release it so the first dial fails cleanly.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := Addr(tmp.Addr().String())
	_ = tmp.Close()

	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// First sends fail to dial (connection refused) and enter backoff.
	for i := 0; i < 3; i++ {
		_ = a.Send(addr, wire.Request{Seq: 1})
		time.Sleep(10 * time.Millisecond)
	}

	// The peer comes up on that same port: sends must recover once the
	// (capped) backoff expires — no stale nil-connection state.
	b, err := netw.Listen(addr)
	if err != nil {
		t.Skipf("port %s re-taken by another process: %v", addr, err)
	}
	defer func() { _ = b.Close() }()
	delivered := make(chan Message, 16)
	go func() {
		for m := range b.Recv() {
			delivered <- m
		}
	}()
	deadline := time.After(10 * time.Second)
	for attempt := 0; ; attempt++ {
		_ = a.Send(addr, wire.Request{Seq: wire.SeqNo(attempt)})
		select {
		case <-delivered:
			return // recovered
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("sends never recovered after the peer came up")
		}
	}
}

// TestTCPSlowPeerDoesNotBlockSenders is the regression for the old
// synchronous Send, which held the per-destination lock across dial+write:
// one peer that stopped reading blocked every Send to that address, and a
// caller multicasting to it stalled past its own deadline.
func TestTCPSlowPeerDoesNotBlockSenders(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// A blackhole peer: accepts connections and never reads, so the OS
	// socket buffers fill and writes wedge until the write deadline.
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = blackhole.Close() }()
	stopAccept := make(chan struct{})
	defer close(stopAccept)
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				_ = c.Close()
			}
		}()
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // never read
			select {
			case <-stopAccept:
				return
			default:
			}
		}
	}()

	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	// Saturate the blackhole link with large frames; every Send must
	// return immediately even once the writer goroutine is wedged.
	big := wire.Request{Payload: make([]byte, 256<<10)}
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = a.Send(Addr(blackhole.Addr().String()), big)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("sends to wedged peer took %v, want immediate return", elapsed)
	}

	// Traffic to a healthy destination flows concurrently.
	if err := a.Send(b.Addr(), wire.Request{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 7 {
		t.Errorf("healthy peer got %+v", m.Payload)
	}
}

func TestTCPSendQueueBounded(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// Blackhole peer again: the writer goroutine wedges on a full socket
	// buffer, the queue fills, and overflow must surface as backpressure
	// rather than unbounded buffering or a blocked caller.
	blackhole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = blackhole.Close() }()
	go func() {
		for {
			c, err := blackhole.Accept()
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
		}
	}()

	// Concurrent fillers so enqueueing outpaces the writer even when the
	// race detector slows per-send encoding: the queue must overflow
	// within one of the writer's blocked-write windows.
	big := wire.Request{Payload: make([]byte, 64<<10)}
	to := Addr(blackhole.Addr().String())
	deadline := time.Now().Add(20 * time.Second)
	var mu sync.Mutex
	sawBackpressure := false
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				done := sawBackpressure
				mu.Unlock()
				if done {
					return
				}
				if err := a.Send(to, big); errors.Is(err, ErrBackpressure) {
					mu.Lock()
					sawBackpressure = true
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if !sawBackpressure {
		t.Error("queue never reported backpressure against a wedged peer")
	}
}

func TestTCPConcurrentSendCloseNoDeadlock(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // consume so b's buffer never backs sends up
		for range b.Recv() {
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := a.Send(b.Addr(), wire.Request{Seq: wire.SeqNo(i)}); err != nil {
					return // endpoint closed under us: expected
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // let sends overlap the close
	closed := make(chan struct{})
	go func() {
		_ = a.Close()
		_ = b.Close()
		close(closed)
	}()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against concurrent Send")
	}
	if err := a.Send(b.Addr(), wire.Request{}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestTCPRecvDrainsBufferedFramesAfterClose(t *testing.T) {
	netw := NewTCP()
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), wire.Request{Seq: wire.SeqNo(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for all frames to land in b's receive buffer before closing.
	ep := b.(*tcpEndpoint)
	deadline := time.Now().Add(5 * time.Second)
	for len(ep.recv) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames buffered", len(ep.recv), n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Frames already read off the wire must survive Close: the channel is
	// closed, not discarded, so a consumer drains the full buffer.
	got := 0
	for range b.Recv() {
		got++
	}
	if got != n {
		t.Errorf("drained %d frames after Close, want %d", got, n)
	}
}

// TestTCPReconnectAfterPeerRestart sends to a peer that restarted on the same
// port without waiting for the sender to notice. The first frame races the
// reader's report that the old connection closed: written before the report,
// it goes into the dead socket and is lost; after it, the frame redials.
// Either way the next frame redials, so at most one frame may be lost before
// delivery resumes.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	net := NewTCP()
	a, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b1, err := net.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	if err := a.Send(addr, wire.Request{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b1)
	_ = b1.Close()

	// Restart the peer on the same port.
	b2, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	delivered := make(chan Message, 16)
	go func() {
		for m := range b2.Recv() {
			delivered <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	for attempt := 0; ; attempt++ {
		_ = a.Send(addr, wire.Request{Seq: wire.SeqNo(attempt)})
		select {
		case m := <-delivered:
			// Frames on one link arrive in order, so every frame sent
			// before the first one delivered was lost.
			if lost := m.Payload.(wire.Request).Seq; lost > 1 {
				t.Errorf("%d frames lost before delivery resumed, want at most 1", lost)
			}
			return
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("endpoint never recovered after peer restart")
		}
	}
}

func TestCodecRejectsOversizedFrame(t *testing.T) {
	big := wire.Request{Payload: make([]byte, maxFrameSize+1)}
	if _, err := encodeFrame("a", big); err == nil {
		t.Error("want error for oversized frame")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	frame, err := encodeFrame("from-addr", wire.PerfUpdate{
		Replica: "r1",
		Perf:    wire.PerfReport{ServiceTime: 5 * time.Millisecond, QueueLength: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(uninterned(frame))
	if err != nil {
		t.Fatal(err)
	}
	if env.From != "from-addr" {
		t.Errorf("From = %v", env.From)
	}
	u, ok := env.Payload.(wire.PerfUpdate)
	if !ok {
		t.Fatalf("payload %T", env.Payload)
	}
	if u.Perf.QueueLength != 3 {
		t.Errorf("QueueLength = %d", u.Perf.QueueLength)
	}
}

// uninterned feeds b to decodeFrame on the plain path: a fresh buffered
// reader and no interner, so every string is copied out of the body.
func uninterned(b []byte) (*bufio.Reader, interner) {
	return bufio.NewReader(bytes.NewReader(b)), nil
}

func TestDecodeTruncatedFrame(t *testing.T) {
	frame, err := encodeFrame("a", wire.Request{Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 2, 4, len(frame) / 2, len(frame) - 1} {
		if _, err := decodeFrame(uninterned(frame[:cut])); err == nil {
			t.Errorf("decoding %d/%d bytes succeeded", cut, len(frame))
		}
	}
}

func TestDecodeGarbageBody(t *testing.T) {
	frame, err := encodeFrame("a", wire.Request{Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := make([]byte, len(frame))
	copy(corrupt, frame)
	for i := 4; i < len(corrupt); i++ {
		corrupt[i] ^= 0xFF
	}
	if _, err := decodeFrame(uninterned(corrupt)); err == nil {
		t.Error("decoding corrupted body succeeded")
	}
}

func TestDecodeHugeLengthHeaderRejected(t *testing.T) {
	// A hostile 4GB length prefix must be rejected before allocation.
	var hdr [8]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := decodeFrame(uninterned(hdr[:])); err == nil {
		t.Error("oversized length header accepted")
	}
}

func TestMalformedFrameDoesNotKillTCPEndpoint(t *testing.T) {
	// A peer sending garbage must only cost its own connection; the
	// endpoint keeps serving others.
	netw := NewTCP()
	ep, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()

	// Raw garbage connection.
	raw, err := net.Dial("tcp", string(ep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()

	// A well-formed peer still gets through.
	good, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = good.Close() }()
	if err := good.Send(ep.Addr(), wire.Request{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, ep)
	if r, ok := m.Payload.(wire.Request); !ok || r.Seq != 5 {
		t.Errorf("got %+v after garbage peer", m.Payload)
	}
}

// TestTCPConcurrentSendersFramesIntact fences the frame path against
// aliasing: 8 goroutines share one endpoint, each sending 2 000 distinct
// requests — payloads of 0 B, 64 B and 40 KiB, by Send to one of 3 peers or
// by SendMulticast to all three — and every message a peer receives must
// equal, byte for byte, the one sent under its (Client, Seq). Every frame not
// refused for backpressure must arrive, and none twice.
func TestTCPConcurrentSendersFramesIntact(t *testing.T) {
	const (
		senders = 8
		perG    = 2000
		peers   = 3
	)
	reg := metrics.NewRegistry()
	netw := NewTCPWithMetrics(reg)
	src, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()

	// sent regenerates the request sender g made at step i, so receivers
	// compare against it without the test holding every message. Payloads
	// are windows of one read-only pattern, starting where (g, i) says.
	pattern := make([]byte, 40<<10+256)
	for k := range pattern {
		pattern[k] = byte(k)
	}
	sent := func(g, i int) wire.Request {
		var payload []byte
		if size := [...]int{0, 64, 40 << 10}[i%3]; size > 0 {
			off := (g*131 + i*7) % 256
			payload = pattern[off : off+size]
		}
		return wire.Request{Client: wire.ClientID(fmt.Sprintf("sender-%d", g)), Seq: wire.SeqNo(i),
			Service: "svc", Method: fmt.Sprintf("m%d", i%5), Payload: payload, SentAt: time.Unix(0, int64(g)<<32|int64(i))}
	}

	var received atomic.Int64
	var targets []Addr
	var eps []Endpoint
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		ep, err := netw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		targets, eps = append(targets, ep.Addr()), append(eps, ep)
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[[2]int]bool)
			for m := range ep.Recv() {
				req, ok := m.Payload.(wire.Request)
				var g, i int
				if ok {
					_, scanErr := fmt.Sscanf(string(req.Client), "sender-%d", &g)
					ok = scanErr == nil
					i = int(req.Seq)
				}
				switch {
				case !ok || g < 0 || g >= senders || i < 0 || i >= perG:
					t.Errorf("peer %s received a message no sender made: %#v", ep.Addr(), m.Payload)
				case m.From != src.Addr() || !reflect.DeepEqual(req, sent(g, i)):
					t.Errorf("peer %s: sender %d step %d arrived altered (from %s, %d-byte payload)", ep.Addr(), g, i, m.From, len(req.Payload))
				case seen[[2]int{g, i}]:
					t.Errorf("peer %s: sender %d step %d arrived twice", ep.Addr(), g, i)
				}
				seen[[2]int{g, i}] = true
				received.Add(1)
			}
		}()
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
		wg.Wait()
	}()

	var attempted atomic.Int64 // frames handed to the endpoint, one per destination
	var senderWG sync.WaitGroup
	for g := 0; g < senders; g++ {
		senderWG.Add(1)
		go func() {
			defer senderWG.Done()
			for i := 0; i < perG; i++ {
				req := sent(g, i)
				var err error
				if i%2 == 0 {
					attempted.Add(1)
					err = src.Send(targets[(g+i)%peers], req)
				} else {
					attempted.Add(peers)
					err = src.(MultiSender).SendMulticast(targets, req)
				}
				switch {
				case errors.Is(err, ErrBackpressure):
					// Some frame of this step was dropped; let the writers
					// drain so most of the run's frames are delivered.
					time.Sleep(time.Millisecond)
				case err != nil:
					t.Errorf("sender %d step %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	senderWG.Wait()

	want := attempted.Load() - int64(reg.Counter(metrics.TransportBackpressureDrops).Value())
	deadline := time.Now().Add(30 * time.Second)
	for received.Load() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("%d of %d frames delivered, the rest refused for backpressure", want, attempted.Load())
	if got := received.Load(); got != want {
		t.Errorf("received %d frames, want %d (%d attempted, the rest refused for backpressure)", got, want, attempted.Load())
	}
	if want < attempted.Load()/2 {
		t.Errorf("only %d of %d frames got past backpressure: too few to check", want, attempted.Load())
	}
}

// TestTCPSharedFrameOutlivesFastWriter fences the reference count on shared
// frames: a frame multicast to a peer that reads and to one that does not
// must stay intact, for the second peer, after the first peer's writer is
// done with it and the pool has handed out buffers again. The held peer
// accepts and does not read until the sender's socket to it is full and its
// queue holds sendQueueLen frames; more sends to the fast peer then recycle
// pooled frames, and once released the held peer must read every multicast
// frame byte-exact and in order.
func TestTCPSharedFrameOutlivesFastWriter(t *testing.T) {
	netw := NewTCPWithMetrics(metrics.NewRegistry())
	src, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	fast, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fast.Close() }()
	fromFast := make(chan wire.ClientID, 4*sendQueueLen)
	go func() {
		for m := range fast.Recv() {
			if r, ok := m.Payload.(wire.Request); ok && r.Client == "fast" {
				fromFast <- r.Client
			}
		}
	}()
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = held.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := held.Accept(); err == nil {
			accepted <- c
		}
	}()

	// Each request fills a frame of just under pooledFrameCap with its own
	// byte, so frames are pooled and a recycled buffer shows.
	req := func(client wire.ClientID, i int) wire.Request {
		return wire.Request{Client: client, Seq: wire.SeqNo(i), Service: "svc",
			Payload: bytes.Repeat([]byte{byte(i)}, pooledFrameCap-64)}
	}
	heldQueue := func() int {
		ep := src.(*tcpEndpoint)
		ep.mu.Lock()
		defer ep.mu.Unlock()
		if s := ep.senders[Addr(held.Addr().String())]; s != nil {
			return len(s.frames)
		}
		return 0
	}
	to := []Addr{Addr(held.Addr().String()), fast.Addr()}
	multicast := 0
	send := func() {
		err := src.(MultiSender).SendMulticast(to, req("mcast", multicast))
		if err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
		multicast++
	}
	// Once the writer is connected, it writes until the held peer's socket
	// is full, and then the queue fills.
	send()
	var c net.Conn
	select {
	case c = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the sender never connected to the held peer")
	}
	defer func() { _ = c.Close() }()
	for heldQueue() < sendQueueLen {
		if multicast == 100_000 {
			t.Fatalf("the held peer's queue holds %d frames after %d multicasts; its socket never filled", heldQueue(), multicast)
		}
		send()
	}
	t.Logf("the held peer's socket and queue filled after %d multicasts", multicast)
	// The held queue was never full before a push, so it refused nothing;
	// the fast peer may have. Recycle: the fast peer reads every one of
	// these, so each of their frames went back to the pool and out again.
	for i := 0; i < 2*sendQueueLen; {
		if err := src.Send(fast.Addr(), req("fast", i)); errors.Is(err, ErrBackpressure) {
			time.Sleep(time.Millisecond)
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i := 0; i < 2*sendQueueLen; i++ {
		select {
		case <-fromFast:
		case <-time.After(10 * time.Second):
			t.Fatalf("the fast peer received %d of %d recycling frames", i, 2*sendQueueLen)
		}
	}

	_ = c.SetReadDeadline(time.Now().Add(20 * time.Second))
	r := bufio.NewReader(c)
	for i := 0; i < multicast; i++ {
		want, err := encodeFrame(src.Addr(), req("mcast", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("held peer, frame %d of %d: %v", i, multicast, err)
		}
		if !bytes.Equal(got, want) {
			env, derr := decodeFrame(bufio.NewReader(bytes.NewReader(got)), nil)
			r, _ := env.Payload.(wire.Request)
			t.Fatalf("held peer, frame %d of %d arrived altered: decodes as client %q seq %d (%v)", i, multicast, r.Client, r.Seq, derr)
		}
	}
}

// TestTCPIdleSendersExit is the regression for a writer leak: an endpoint
// kept a goroutine, a queue and a connection for every address it ever sent
// to. Sends to 50 closed ports and one live peer must leave, once the
// writers have been idle, no sender and no goroutine behind; a later send to
// the live peer starts a new writer and is delivered.
func TestTCPIdleSendersExit(t *testing.T) {
	netw := NewTCPWithMetrics(metrics.NewRegistry())
	live, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()
	src, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	ep := src.(*tcpEndpoint)
	ep.idleAfter = 50 * time.Millisecond
	baseline := runtime.NumGoroutine()

	var closed []Addr
	for range 50 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closed = append(closed, Addr(l.Addr().String()))
		_ = l.Close()
	}
	for _, to := range append(closed, live.Addr()) {
		if err := src.Send(to, wire.Request{Client: "c", Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	recvOne(t, live)

	senders := func() int {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.senders)
	}
	deadline := time.Now().Add(10 * time.Second)
	for senders() > 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d senders and %d goroutines left after the writers went idle, want 0 and %d", senders(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := src.Send(live.Addr(), wire.Request{Client: "c", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if r, ok := recvOne(t, live).Payload.(wire.Request); !ok || r.Seq != 2 {
		t.Errorf("after the writers retired the live peer got %+v", r)
	}
}

// TestTCPQueueDepthSeriesFollowsWriters is the regression for a leaked
// series: a destination's aqua_transport_queue_depth gauge stayed in the
// registry after its writer retired. Every writer holds its destination's
// series from creation until it exits. After one endpoint's writers retire
// idle, no series is left for the closed ports only it sent to, while the
// live peer's series stays for as long as a second endpoint's writer to it
// does, until that endpoint closes.
func TestTCPQueueDepthSeriesFollowsWriters(t *testing.T) {
	reg := metrics.NewRegistry()
	netw := NewTCPWithMetrics(reg)
	live, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = live.Close() }()
	var eps [2]*tcpEndpoint
	for i := range eps {
		ep, err := netw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		eps[i] = ep.(*tcpEndpoint)
	}
	retiring, holding := eps[0], eps[1]
	retiring.idleAfter = 50 * time.Millisecond

	var closed []Addr
	for range 5 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closed = append(closed, Addr(l.Addr().String()))
		_ = l.Close()
	}
	for _, to := range append(closed, live.Addr()) {
		if err := retiring.Send(to, wire.Request{Client: "c", Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := holding.Send(live.Addr(), wire.Request{Client: "c", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, live)
	recvOne(t, live)

	series := func(to Addr) bool {
		_, ok := reg.Snapshot().Gauges[depthSeries(to)]
		return ok
	}
	for _, to := range append(closed, live.Addr()) {
		if !series(to) {
			t.Fatalf("no queue-depth series for %s while its writer runs", to)
		}
	}
	retired := func() bool {
		retiring.mu.Lock()
		defer retiring.mu.Unlock()
		return len(retiring.senders) == 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for !retired() || slices.ContainsFunc(closed, series) {
		if time.Now().After(deadline) {
			t.Fatalf("after the idle period: writers retired %v, series left for a closed port %v, want true and false",
				retired(), slices.ContainsFunc(closed, series))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !series(live.Addr()) {
		t.Fatal("the live peer's series went while another endpoint's writer still sends there")
	}
	if err := holding.Close(); err != nil {
		t.Fatal(err)
	}
	if series(live.Addr()) {
		t.Error("the live peer's series outlived both writers")
	}
}

// connTo returns the connection ep's sender to addr holds, nil if it has
// no sender there or the sender has no connection.
func connTo(ep Endpoint, to Addr) net.Conn {
	e := ep.(*tcpEndpoint)
	e.mu.Lock()
	s := e.senders[to]
	e.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.current()
}

// TestTCPReplyRidesRequestConnection fences the shared connection: B
// answers A's requests on the connection A dialed, so B dials nothing, A
// accepts nothing, and each reply carries its request's acknowledgement.
func TestTCPReplyRidesRequestConnection(t *testing.T) {
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	a, err := NewTCPWithMetrics(regA).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPWithMetrics(regB).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	for i := range 10 {
		if err := a.Send(b.Addr(), wire.Request{Client: "c", Seq: wire.SeqNo(i)}); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b)
		if err := b.Send(m.From, wire.Response{Client: "c", Seq: wire.SeqNo(i)}); err != nil {
			t.Fatal(err)
		}
		if r, ok := recvOne(t, a).Payload.(wire.Response); !ok || r.Seq != wire.SeqNo(i) {
			t.Fatalf("reply %d arrived as %+v", i, r)
		}
	}
	if n := regB.Counter(metrics.TransportDials).Value(); n != 0 {
		t.Errorf("B dialed %d times to reply, want 0", n)
	}
	if n := regA.Counter(metrics.TransportDials).Value(); n != 1 {
		t.Errorf("A dialed %d times, want 1", n)
	}
	ea := a.(*tcpEndpoint)
	ea.mu.Lock()
	accepted := len(ea.inbound)
	ea.mu.Unlock()
	if accepted != 0 {
		t.Errorf("A accepted %d connections, want 0", accepted)
	}
	if ca, cb := connTo(a, b.Addr()), connTo(b, a.Addr()); ca == nil || cb == nil || ca.LocalAddr().String() != cb.RemoteAddr().String() {
		t.Errorf("A's and B's links are not one connection: %v and %v", ca, cb)
	}
}

// TestTCPIdleRetireKeepsReversePath fences the two-way idle rule: A sends
// once and then only receives, so its own writes go quiet, but B's frames
// on the shared connection keep the link in use. A must not close it: every
// one of B's frames arrives, and B never has to dial.
func TestTCPIdleRetireKeepsReversePath(t *testing.T) {
	regB := metrics.NewRegistry()
	a, err := NewTCPWithMetrics(metrics.NewRegistry()).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPWithMetrics(regB).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a.(*tcpEndpoint).idleAfter = 50 * time.Millisecond
	b.(*tcpEndpoint).idleAfter = 50 * time.Millisecond

	if err := a.Send(b.Addr(), wire.Request{Client: "c", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	got := make(chan wire.SeqNo, 64)
	go func() {
		for m := range a.Recv() {
			if r, ok := m.Payload.(wire.Response); ok {
				got <- r.Seq
			}
		}
	}()
	sent := 0
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); <-tick.C {
		if err := b.Send(a.Addr(), wire.Response{Client: "c", Seq: wire.SeqNo(sent)}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	for i := range sent {
		select {
		case seq := <-got:
			if seq != wire.SeqNo(i) {
				t.Fatalf("frame %d of B's %d arrived as %d", i, sent, seq)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("A received %d of B's %d frames", i, sent)
		}
	}
	if n := regB.Counter(metrics.TransportDials).Value(); n != 0 {
		t.Errorf("B dialed %d times: A closed the link B was sending on", n)
	}
}

// TestTCPFirstFrameAfterPeerRestartDelivered fences the reader's report of
// a closed connection: once the sender has dropped its connection to a peer
// that went away, the first frame to the peer restarted on the same port
// redials and is delivered, instead of going into the dead socket.
func TestTCPFirstFrameAfterPeerRestartDelivered(t *testing.T) {
	netw := NewTCPWithMetrics(metrics.NewRegistry())
	a, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b1, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	if err := a.Send(addr, wire.Request{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b1)
	_ = b1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for connTo(a, addr) != nil {
		if time.Now().After(deadline) {
			t.Fatal("the sender kept its connection to the closed peer")
		}
		time.Sleep(time.Millisecond)
	}

	b2, err := netw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	if err := a.Send(addr, wire.Request{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if r, ok := recvOne(t, b2).Payload.(wire.Request); !ok || r.Seq != 2 {
		t.Errorf("the restarted peer got %+v", r)
	}
}

// TestTCPAdoptRequiresMatchingRemoteIP fences adoption: a connection whose
// first frame claims a From on another host than the connection comes from
// is read and delivered, but never becomes the way to that address; one
// that claims an address on its own host does.
func TestTCPAdoptRequiresMatchingRemoteIP(t *testing.T) {
	ep, err := NewTCPWithMetrics(metrics.NewRegistry()).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	claim := func(from Addr) net.Conn {
		t.Helper()
		raw, err := net.Dial("tcp", string(ep.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = raw.Close() })
		b, err := encodeFrame(from, wire.Request{Client: "c", Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
		if m := recvOne(t, ep); m.From != from {
			t.Fatalf("frame claiming %s delivered from %s", from, m.From)
		}
		return raw
	}

	const offHost = Addr("10.0.0.9:7000")
	claim(offHost)
	e := ep.(*tcpEndpoint)
	e.mu.Lock()
	s := e.senders[offHost]
	e.mu.Unlock()
	if s != nil {
		t.Fatalf("a connection from 127.0.0.1 became the way to %s", offHost)
	}

	// The control: a closed port on the connection's own host is adopted,
	// so a send there arrives on the raw connection instead of failing to
	// dial.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	onHost := Addr(l.Addr().String())
	_ = l.Close()
	raw := claim(onHost)
	if err := ep.Send(onHost, wire.Request{Client: "c", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	env, err := decodeFrame(bufio.NewReader(raw), nil)
	if err != nil {
		t.Fatalf("the adopted connection carried no frame back: %v", err)
	}
	if r, ok := env.Payload.(wire.Request); !ok || r.Seq != 2 {
		t.Errorf("the adopted connection carried %+v", env.Payload)
	}
}

// TestTCPRemainderGoesFirst fences the order on a link: the part of a frame
// a write-through left unwritten goes out before the frame queued behind
// it, even when the writer goroutine takes the queued frame first. The test
// stages each short write by hand: it writes a frame's first bytes itself
// and, under the sender's lock, leaves the rest as the remainder and queues
// the next frame.
func TestTCPRemainderGoesFirst(t *testing.T) {
	src, err := NewTCPWithMetrics(metrics.NewRegistry()).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	to := Addr(peer.Addr().String())
	if err := src.Send(to, wire.Request{Client: "c", Seq: 0}); err != nil {
		t.Fatal(err)
	}
	c, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(c)
	next := wire.SeqNo(0)
	expect := func() {
		t.Helper()
		env, err := decodeFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q, ok := env.Payload.(wire.Request); !ok || q.Seq != next {
			t.Fatalf("frame %d arrived as %+v", next, env.Payload)
		}
		next++
	}
	expect()

	e := src.(*tcpEndpoint)
	e.mu.Lock()
	s := e.senders[to]
	e.mu.Unlock()
	for i := 1; i < 40; i += 2 {
		head, err := e.encode(wire.Request{Client: "c", Seq: wire.SeqNo(i)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		queued, err := e.encode(wire.Request{Client: "c", Seq: wire.SeqNo(i + 1)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		if _, err := s.conn.Write(head.b[:10]); err != nil {
			t.Fatal(err)
		}
		s.rem, s.remAt, s.remOn = head, 10, s.conn
		s.frames <- queued
		s.queued++
		s.mu.Unlock()
		s.signal()
		expect()
		expect()
	}
}
