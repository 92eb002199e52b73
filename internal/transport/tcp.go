package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	// senderIdle is how long a destination's writer waits without a frame
	// before it closes its connection and goes away; the next frame to that
	// address starts a new one. Replicas come and go on fresh ports, so
	// without it an endpoint keeps a goroutine, a queue and a connection for
	// every address it ever sent to. It is well above redialBackoffMax, so
	// a link in backoff is not forgotten between two of its frames.
	senderIdle = 30 * time.Second
	// readBufferSize is each inbound connection's read buffer: one read
	// syscall brings in a small frame's length and body together (and often
	// the frames queued behind it). A body at least this large is read
	// mostly straight into its own allocation, so a small buffer also keeps
	// the second copy of a large frame small.
	readBufferSize = 4 << 10
	// pooledFrameCap is the largest buffer a released frame keeps for the
	// next encode; a larger one, made for a rare big frame, is left to the
	// collector. pooledFrameMin is the least a pooled buffer is made with,
	// so the small frames of a request and its reply fit one buffer.
	pooledFrameCap = 4 << 10
	pooledFrameMin = 512
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
// backoff; a writer idle for senderIdle closes its connection and exits. A
// frame is encoded once, into a pooled buffer, and shared read-only by every
// destination of a multicast; its reference count returns the buffer to the
// pool when the last destination is done with it. Each inbound connection is
// read by one goroutine through a small buffered reader and a bounded table
// of the identifier strings it has seen; a frame that fits the reader's
// buffer is decoded in place, so a small frame costs only what the receiver
// keeps: its byte fields, copied out, and the decoded message.
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
		idleAfter:  senderIdle,
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
	idleAfter  time.Duration // senderIdle; tests shorten it before the first send

	mu      sync.Mutex
	senders map[Addr]*tcpSender // per-destination writer state
	inbound map[net.Conn]bool   // accepted connections, closed on shutdown
	closed  bool
}

// frame is one encoded frame on its way to the writers of every destination
// it was sent to. Writers only pass b to net.Conn.Write, so they share it;
// refs counts the destinations still holding it, and each releases it once,
// whatever becomes of the frame: written, refused for backpressure, dropped
// in backoff or after a failed retry, or refused by a closed endpoint. The
// last release returns it to framePool; a frame never released (one still
// queued when the endpoint closes) is left to the collector.
type frame struct {
	b    []byte
	refs atomic.Int32
}

// framePool holds released frames, each with a buffer of at most
// pooledFrameCap bytes (or none) for the next encode to write into.
var framePool = sync.Pool{New: func() any { return new(frame) }}

// release ends one destination's hold on f; the last one pools it. A
// release beyond the count is a bug that would hand a frame in use to
// another encode, so it panics instead.
func (f *frame) release() {
	switch n := f.refs.Add(-1); {
	case n < 0:
		panic("transport: frame released more often than it was shared")
	case n == 0:
		if cap(f.b) > pooledFrameCap {
			f.b = nil
		}
		framePool.Put(f)
	}
}

// tcpSender owns the outbound path to one destination: a bounded frame
// queue drained by a dedicated goroutine that dials, writes, and re-dials.
// The current connection is reachable under mu so Close can sever it and
// unblock an in-flight write.
type tcpSender struct {
	to     Addr
	frames chan *frame
	depth  *metrics.Gauge // live queue occupancy, labelled by destination
	// The writer goroutine's own state: when it last read the clock for a
	// frame, and the link's backoff.
	used      time.Time
	backoff   time.Duration
	downUntil time.Time // frames are dropped until then

	mu   sync.Mutex
	conn net.Conn
}

// now reads the clock for the frame at hand and marks the writer as in use.
func (s *tcpSender) now() time.Time {
	s.used = time.Now()
	return s.used
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
func (s *tcpSender) write(b []byte) error {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c == nil {
		return errors.New("transport: connection closed")
	}
	_ = c.SetWriteDeadline(s.now().Add(writeTimeout))
	_, err := c.Write(b)
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
	f, err := e.encode(payload, 1)
	if err != nil {
		return err
	}
	return e.enqueue(to, f)
}

// SendMulticast implements MultiSender: the payload is serialized exactly
// once and the same frame is enqueued to every destination, each holding
// one of its references.
func (e *tcpEndpoint) SendMulticast(to []Addr, payload any) error {
	f, err := e.encode(payload, len(to))
	if err != nil {
		return err
	}
	var firstErr error
	for _, t := range to {
		if err := e.enqueue(t, f); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("transport: multicast to %s: %w", t, err)
		}
	}
	return firstErr
}

var _ MultiSender = (*tcpEndpoint)(nil)

// encode serializes payload into a pooled frame held by dests destinations.
// A frame of up to pooledFrameCap bytes is written into the pooled buffer
// (allocating one only if the buffer is missing or too small); a larger one
// gets a buffer of its own, the release drops it, and one over largeFrame
// is appended into a small seed, as encodeFrame does.
func (e *tcpEndpoint) encode(payload any, dests int) (*frame, error) {
	typ, size, err := sizeFrame(e.addr, payload)
	if err != nil {
		return nil, err
	}
	f := framePool.Get().(*frame)
	switch n := 4 + size; {
	case n > largeFrame:
		f.b = make([]byte, 0, 64)
	case n > pooledFrameCap:
		f.b = make([]byte, 0, n)
	case n > cap(f.b):
		f.b = make([]byte, 0, max(n, pooledFrameMin))
	}
	f.b = appendFrame(f.b[:0], typ, size, e.addr, payload)
	f.refs.Store(int32(dests))
	e.met.encodes.Inc()
	return f, nil
}

// enqueue hands one destination's hold on an encoded frame to that
// destination's writer, creating the writer on first use; a frame it
// refuses is released here. The push happens under e.mu, where an idle
// writer retires, so a frame never lands in the queue of a writer that has
// gone.
func (e *tcpEndpoint) enqueue(to Addr, f *frame) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		f.release()
		return ErrClosed
	}
	s, ok := e.senders[to]
	if !ok {
		s = &tcpSender{
			to:      to,
			frames:  make(chan *frame, sendQueueLen),
			depth:   e.reg.AcquireGauge(depthSeries(to)),
			used:    time.Now(),
			backoff: redialBackoffMin,
		}
		e.senders[to] = s
		e.wg.Add(1)
		go e.runSender(s)
	}
	select {
	case s.frames <- f:
		s.depth.Set(int64(len(s.frames)))
		e.mu.Unlock()
		return nil
	default:
		e.mu.Unlock()
		f.release()
		e.met.backpressureDrops.Inc()
		return fmt.Errorf("transport: to %s: %w", to, ErrBackpressure)
	}
}

// depthSeries names the queue-depth gauge of the writer to one destination.
// Every endpoint sending there shares the series: each writer holds it from
// creation until it exits (idle retirement or Close), and the last to exit
// deletes it.
func depthSeries(to Addr) string {
	return metrics.Label(metrics.TransportQueueDepth, "dest", string(to))
}

// retire removes s from the endpoint if its queue is still empty, under the
// lock enqueue pushes under; it reports whether the writer may exit.
func (e *tcpEndpoint) retire(s *tcpSender) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(s.frames) > 0 {
		return false
	}
	delete(e.senders, s.to)
	return true
}

// runSender drains one destination's queue, releasing each frame once it
// is written or dropped, and exits on Close (frames still queued are left
// to the collector) or once the queue has been idle for e.idleAfter. The
// idle check costs one timer per idle period: the timer fires, compares the
// clock with the last time a frame read it, and re-arms for the rest of the
// period.
func (e *tcpEndpoint) runSender(s *tcpSender) {
	defer e.wg.Done()
	defer s.closeConn()
	defer e.reg.ReleaseGauge(depthSeries(s.to))
	idle := time.NewTimer(e.idleAfter)
	defer idle.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-idle.C:
			if wait := e.idleAfter - time.Since(s.used); wait > 0 {
				idle.Reset(wait)
			} else if e.retire(s) {
				return
			} else {
				idle.Reset(e.idleAfter)
			}
		case f := <-s.frames:
			s.depth.Set(int64(len(s.frames)))
			if e.deliver(s, f) {
				e.met.framesSent.Inc()
			}
			f.release()
		}
	}
}

// deliver writes one frame to s's destination and reports whether it went
// out. Dial failures start a capped exponential backoff during which frames
// are dropped on arrival; a write failure gets one immediate
// redial-and-retry (the cached connection was likely killed by a peer
// restart) before the link is declared down. A failed dial never leaves
// poisoned state behind: the next frame after the backoff window re-dials
// from scratch.
func (e *tcpEndpoint) deliver(s *tcpSender, f *frame) bool {
	if !s.downUntil.IsZero() {
		if s.now().Before(s.downUntil) {
			return false // link down: frame dropped
		}
		s.downUntil = time.Time{}
	}
	if !s.haveConn() {
		if !e.dial(s) {
			s.down()
			return false
		}
		s.backoff = redialBackoffMin
	}
	if s.write(f.b) == nil {
		return true
	}
	s.closeConn()
	if !e.dial(s) {
		s.down()
		return false
	}
	if s.write(f.b) != nil {
		s.closeConn()
		s.down()
		return false
	}
	s.backoff = redialBackoffMin
	return true
}

// down opens a backoff window on the link and doubles the next one.
func (s *tcpSender) down() {
	s.downUntil = s.now().Add(s.backoff)
	s.backoff = nextBackoff(s.backoff)
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
