package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aqua/internal/metrics"
)

const (
	// dialTimeout bounds connection establishment to an unresponsive peer.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one frame write so a peer that stops reading
	// (full socket buffers, frozen process) cannot wedge the sender.
	writeTimeout = 2 * time.Second
	// sendQueueLen bounds the per-destination outbound queue. When the
	// queue is full the frame is dropped and Send reports backpressure —
	// bounded memory under overload, never a blocked caller.
	sendQueueLen = 256
	// redialBackoffMin/Max shape the capped exponential backoff after a
	// failed dial. While backing off, frames to that destination are
	// dropped immediately (the link is treated as down) instead of paying
	// a dial timeout per message.
	redialBackoffMin = 50 * time.Millisecond
	redialBackoffMax = 2 * time.Second
	// readBufferSize is each inbound connection's read buffer: one read
	// syscall brings in a small frame's length and body together (and often
	// the frames queued behind it). A body at least this large is read
	// mostly straight into its own allocation, so a small buffer also keeps
	// the second copy of a large frame small.
	readBufferSize = 4 << 10
)

// ErrBackpressure reports a frame dropped because the destination's send
// queue was full. The message is lost (datagram semantics); the layers
// above tolerate loss by design, but the caller gets to count it.
var ErrBackpressure = errors.New("transport: send queue full")

// TCP is a Network whose endpoints listen on real sockets and exchange
// length-prefixed frames (the binary codec for the internal/wire messages —
// see codec.go and binary.go — and an encode error for anything else). Sends
// are asynchronous: each destination gets its own bounded queue and writer
// goroutine, so a slow, partitioned, or dead peer never blocks callers or
// traffic to other destinations. Connections are cached per destination,
// written with a deadline, and re-dialed on failure with capped exponential
// backoff. A frame is encoded once (into one buffer of its exact size, up to
// 32 KiB) and shared read-only by every destination of a multicast. Each inbound connection is
// read by one goroutine through a small buffered reader and a bounded table
// of the identifier strings it has seen, so a repeated client, replica,
// service or method name decodes without allocating; every frame body is
// still a fresh allocation, because decoded payloads alias it.
type TCP struct {
	reg *metrics.Registry
}

var _ Network = TCP{}

// NewTCP returns the TCP network factory. Endpoints report frames, dials,
// backpressure drops, and per-destination queue depth to the process-wide
// default metrics registry; use NewTCPWithMetrics to direct them elsewhere.
func NewTCP() TCP { return TCP{} }

// NewTCPWithMetrics returns a TCP network whose endpoints report to reg.
func NewTCPWithMetrics(reg *metrics.Registry) TCP { return TCP{reg: reg} }

// transportInstruments are the shared frame/drop counters, resolved once
// per endpoint so the send and receive paths only touch atomics.
type transportInstruments struct {
	framesSent        *metrics.Counter
	framesReceived    *metrics.Counter
	backpressureDrops *metrics.Counter
	recvDrops         *metrics.Counter
	dials             *metrics.Counter
	dialFailures      *metrics.Counter
	encodes           *metrics.Counter
}

func resolveTransportInstruments(reg *metrics.Registry) transportInstruments {
	return transportInstruments{
		framesSent:        reg.Counter(metrics.TransportFramesSent),
		framesReceived:    reg.Counter(metrics.TransportFramesReceived),
		backpressureDrops: reg.Counter(metrics.TransportBackpressureDrops),
		recvDrops:         reg.Counter(metrics.TransportRecvDrops),
		dials:             reg.Counter(metrics.TransportDials),
		dialFailures:      reg.Counter(metrics.TransportDialFailures),
		encodes:           reg.Counter(metrics.TransportEncodes),
	}
}

// Listen starts a listener on addr ("host:port"; ":0" picks a free port —
// read the bound address back with Addr()).
func (t TCP) Listen(addr Addr) (Endpoint, error) {
	l, err := net.Listen("tcp", string(addr))
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	dialCtx, dialCancel := context.WithCancel(context.Background())
	reg := metrics.OrDefault(t.reg)
	ep := &tcpEndpoint{
		listener:   l,
		addr:       Addr(l.Addr().String()),
		recv:       make(chan Message, recvBuffer),
		senders:    make(map[Addr]*tcpSender),
		inbound:    make(map[net.Conn]bool),
		done:       make(chan struct{}),
		dialCtx:    dialCtx,
		dialCancel: dialCancel,
		reg:        reg,
		met:        resolveTransportInstruments(reg),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

type tcpEndpoint struct {
	listener net.Listener
	addr     Addr
	recv     chan Message
	done     chan struct{}
	wg       sync.WaitGroup
	// dialCtx is canceled on Close so writer goroutines blocked mid-dial
	// return promptly instead of holding shutdown for the dial timeout.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	reg        *metrics.Registry
	met        transportInstruments

	mu      sync.Mutex
	senders map[Addr]*tcpSender // per-destination writer state
	inbound map[net.Conn]bool   // accepted connections, closed on shutdown
	closed  bool
}

// tcpSender owns the outbound path to one destination: a bounded frame
// queue drained by a dedicated goroutine that dials, writes, and re-dials.
// The current connection is reachable under mu so Close can sever it and
// unblock an in-flight write.
type tcpSender struct {
	to     Addr
	frames chan []byte
	depth  *metrics.Gauge // live queue occupancy, labelled by destination

	mu   sync.Mutex
	conn net.Conn
}

func (s *tcpSender) haveConn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil
}

func (s *tcpSender) setConn(c net.Conn) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

func (s *tcpSender) closeConn() {
	s.mu.Lock()
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
	s.mu.Unlock()
}

// write sends one frame on the current connection under a write deadline.
func (s *tcpSender) write(frame []byte) error {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c == nil {
		return errors.New("transport: connection closed")
	}
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.Write(frame)
	return err
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) Addr() Addr { return e.addr }

func (e *tcpEndpoint) Recv() <-chan Message { return e.recv }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = c.Close()
			return
		}
		e.inbound[c] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		_ = c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()
	// Both belong to this goroutine alone, so neither takes a lock.
	r := bufio.NewReaderSize(c, readBufferSize)
	in := newInterner()
	for {
		env, err := decodeFrame(r, in)
		if err != nil {
			return
		}
		select {
		case <-e.done:
			return
		default:
		}
		select {
		case e.recv <- Message{From: env.From, Payload: env.Payload}:
			e.met.framesReceived.Inc()
		case <-e.done:
			return
		}
	}
}

// Send queues one frame for the destination and returns immediately. The
// destination's writer goroutine dials (or re-dials) and writes it. A
// frame that cannot be delivered — queue full, link in backoff, peer
// unreachable — is lost like a datagram; only queue overflow is reported
// (ErrBackpressure), because it is the one failure the caller caused.
func (e *tcpEndpoint) Send(to Addr, payload any) error {
	frame, err := e.encode(payload)
	if err != nil {
		return err
	}
	return e.enqueue(to, frame)
}

// SendMulticast implements MultiSender: the payload is serialized exactly
// once and the same frame is enqueued to every destination. Sharing the
// buffer is safe because nothing downstream mutates a frame — writer
// goroutines only pass it to net.Conn.Write.
func (e *tcpEndpoint) SendMulticast(to []Addr, payload any) error {
	frame, err := e.encode(payload)
	if err != nil {
		return err
	}
	var firstErr error
	for _, t := range to {
		if err := e.enqueue(t, frame); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("transport: multicast to %s: %w", t, err)
		}
	}
	return firstErr
}

var _ MultiSender = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) encode(payload any) ([]byte, error) {
	frame, err := encodeFrame(e.addr, payload)
	if err != nil {
		return nil, err
	}
	e.met.encodes.Inc()
	return frame, nil
}

// enqueue hands one already-encoded frame to the destination's writer,
// creating the writer on first use.
func (e *tcpEndpoint) enqueue(to Addr, frame []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	s, ok := e.senders[to]
	if !ok {
		s = &tcpSender{
			to:     to,
			frames: make(chan []byte, sendQueueLen),
			depth:  e.reg.Gauge(metrics.Label(metrics.TransportQueueDepth, "dest", string(to))),
		}
		e.senders[to] = s
		e.wg.Add(1)
		go e.runSender(s)
	}
	e.mu.Unlock()

	select {
	case s.frames <- frame:
		s.depth.Set(int64(len(s.frames)))
		return nil
	default:
		e.met.backpressureDrops.Inc()
		return fmt.Errorf("transport: to %s: %w", to, ErrBackpressure)
	}
}

// runSender drains one destination's queue. Dial failures start a capped
// exponential backoff during which frames are dropped on arrival; a write
// failure gets one immediate redial-and-retry (the cached connection was
// likely killed by a peer restart) before the link is declared down. A
// failed dial never leaves poisoned state behind: the next frame after the
// backoff window re-dials from scratch.
func (e *tcpEndpoint) runSender(s *tcpSender) {
	defer e.wg.Done()
	defer s.closeConn()
	backoff := redialBackoffMin
	var downUntil time.Time
	for {
		select {
		case <-e.done:
			return
		case frame := <-s.frames:
			s.depth.Set(int64(len(s.frames)))
			if !downUntil.IsZero() {
				if time.Now().Before(downUntil) {
					continue // link down: frame dropped
				}
				downUntil = time.Time{}
			}
			if !s.haveConn() {
				if !e.dial(s) {
					downUntil = time.Now().Add(backoff)
					backoff = nextBackoff(backoff)
					continue
				}
				backoff = redialBackoffMin
			}
			if err := s.write(frame); err == nil {
				e.met.framesSent.Inc()
				continue
			}
			s.closeConn()
			if !e.dial(s) {
				downUntil = time.Now().Add(backoff)
				backoff = nextBackoff(backoff)
				continue
			}
			if err := s.write(frame); err != nil {
				s.closeConn()
				downUntil = time.Now().Add(backoff)
				backoff = nextBackoff(backoff)
				continue
			}
			e.met.framesSent.Inc()
			backoff = redialBackoffMin
		}
	}
}

func nextBackoff(b time.Duration) time.Duration {
	b *= 2
	if b > redialBackoffMax {
		b = redialBackoffMax
	}
	return b
}

// dial connects the sender to its destination. It returns false on failure
// or shutdown; nothing is cached on failure, so the next attempt starts
// clean.
func (e *tcpEndpoint) dial(s *tcpSender) bool {
	d := net.Dialer{Timeout: dialTimeout}
	e.met.dials.Inc()
	c, err := d.DialContext(e.dialCtx, "tcp", string(s.to))
	if err != nil {
		e.met.dialFailures.Inc()
		return false
	}
	select {
	case <-e.done:
		_ = c.Close()
		return false
	default:
	}
	s.setConn(c)
	return true
}

// Close shuts the endpoint down: no new sends are accepted, writer
// goroutines stop (in-flight dials are canceled, in-flight writes severed),
// inbound connections close, and — after every goroutine has drained — the
// receive channel is closed. Frames already pushed into the receive buffer
// remain readable until the consumer drains them.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	senders := make([]*tcpSender, 0, len(e.senders))
	for _, s := range e.senders {
		senders = append(senders, s)
	}
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()

	close(e.done)
	e.dialCancel()
	_ = e.listener.Close()
	for _, s := range senders {
		s.closeConn()
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	e.wg.Wait()
	close(e.recv)
	return nil
}
