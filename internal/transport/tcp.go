package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
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
	// senderIdle is how long a destination's link may carry no frame, in
	// either direction, before its writer closes the connection and goes
	// away; the next frame to that address starts a new one. Replicas come
	// and go on fresh ports, so without it an endpoint keeps a goroutine, a
	// queue and a connection for every address it ever sent to. It is well
	// above redialBackoffMax, so a link in backoff is not forgotten between
	// two of its frames.
	senderIdle = 30 * time.Second
	// readBufferSize is each connection's read buffer: one read syscall
	// brings in a small frame's length and body together (and often the
	// frames queued behind it). A body at least this large is read mostly
	// straight into its own allocation, so a small buffer also keeps the
	// second copy of a large frame small.
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
// see codec.go and binary.go — and an encode error for anything else). Two
// endpoints share one connection, which carries both directions: the
// endpoint that sends first dials, and the other adopts the accepted
// connection as its way back to the sender of its first frame, so a reply
// carries the TCP acknowledgement of its request instead of a packet of its
// own. Sends never block on a peer: a frame to a link with nothing queued
// or being written is written through on the caller's goroutine, by one
// non-blocking write, and otherwise (or for whatever that write leaves)
// goes to the destination's bounded queue and writer goroutine, so a slow,
// partitioned, or dead peer never blocks callers or traffic to other
// destinations. The writer dials, writes under a deadline, re-dials on
// failure with capped exponential backoff, and closes the connection once
// it has carried no frame in either direction for senderIdle, or as soon as
// its reader finds it closed. A frame is encoded once, into a pooled buffer,
// and shared read-only by every destination of a multicast; its reference
// count returns the buffer to the pool when the last destination is done
// with it. Each connection is read by one goroutine through a small
// buffered reader and a bounded table of the identifier strings it has
// seen; a frame that fits the reader's buffer is decoded in place, so a
// small frame costs only what the receiver keeps: its byte fields, copied
// out, and the decoded message.
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

// frame is one encoded frame on its way to every destination it was sent
// to. Writers only pass b to a socket write, so they share it; refs counts
// the destinations still holding it, and each releases it once, whatever
// becomes of the frame: written, refused for backpressure, dropped in
// backoff or after a failed retry, or refused by a closed endpoint. The
// last release returns it to framePool; a frame never released (one still
// queued, or a write-through's remainder, when the endpoint closes) is left
// to the collector.
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

// clockBase anchors the senders' activity stamps, which are monotonic
// nanoseconds since it, so a stamp is one atomic word.
var clockBase = time.Now()

// tcpSender owns the outbound path to one destination: one connection,
// dialed by the sender's writer goroutine or adopted from an accepted
// connection whose first frame came from the destination, and read by a
// goroutine of its own. A frame handed over while nothing is queued,
// unfinished or being written goes out through the connection's
// write-through on the caller's goroutine, under the claim; anything else
// joins the bounded queue. The writer goroutine finishes what a
// write-through leaves, before any queued frame, drains the queue, dials,
// re-dials, and retires the sender.
type tcpSender struct {
	to     Addr
	frames chan *frame
	wake   chan struct{}  // one slot: a remainder waits, or the reader lost the connection
	depth  *metrics.Gauge // live queue occupancy, labelled by destination
	// active is when a frame last crossed the connection in either
	// direction, in nanoseconds since clockBase: every write and the
	// connection's reader stamp it, and the idle check reads it.
	active atomic.Int64
	// The writer goroutine's own state: the link's backoff.
	backoff   time.Duration
	downUntil time.Time // frames are dropped until then unless a connection comes up

	mu      sync.Mutex
	unclaim sync.Cond  // on mu: a write-through dropped its claim
	conn    net.Conn   // nil while there is none; Close severs it
	raw     *rawWriter // conn's write-through; nil with conn, or where there is none
	lost    bool       // the reader found conn closed, and none has replaced it
	queued  int        // frames pushed into frames and not yet done by the writer
	claimed bool       // a write-through is writing on conn
	// rem is the frame a write-through left unfinished: remAt of its bytes
	// went out on remOn. While it is set, and while frames are queued, every
	// frame goes to the queue, so the link's frames keep their order.
	rem   *frame
	remAt int
	remOn net.Conn
}

// stamp marks the link as in use now.
func (s *tcpSender) stamp() { s.active.Store(int64(time.Since(clockBase))) }

// idleFor is how long the link has carried no frame.
func (s *tcpSender) idleFor() time.Duration {
	return time.Since(clockBase) - time.Duration(s.active.Load())
}

// now reads the clock for the frame at hand and marks the link as in use.
func (s *tcpSender) now() time.Time {
	t := time.Now()
	s.active.Store(int64(t.Sub(clockBase)))
	return t
}

func (s *tcpSender) current() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// setConnLocked makes c the sender's connection.
func (s *tcpSender) setConnLocked(c net.Conn) {
	s.conn, s.raw, s.lost = c, newRawWriter(c), false
}

// drop closes c and, if it is still the connection, forgets it.
func (s *tcpSender) drop(c net.Conn) {
	s.mu.Lock()
	if s.conn == c {
		s.conn, s.raw = nil, nil
	}
	s.mu.Unlock()
	_ = c.Close()
}

func (s *tcpSender) closeConn() {
	s.mu.Lock()
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn, s.raw = nil, nil
	}
	s.mu.Unlock()
}

// lose is the reader's report that c is closed or broken. If c is still the
// connection, the sender forgets it, so the next frame redials instead of
// going into a dead socket, and wakes the writer, which retires the sender
// if nothing waits to go out.
func (s *tcpSender) lose(c net.Conn) {
	s.mu.Lock()
	lost := s.conn == c
	if lost {
		s.conn, s.raw, s.lost = nil, nil, true
	}
	s.mu.Unlock()
	if lost {
		s.signal()
	}
}

// signal wakes the writer; a wake already pending covers this one.
func (s *tcpSender) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// write sends b on c under a write deadline, which it then clears: a
// write-through sets none, and the poller refuses any write on a
// connection whose deadline has passed.
func (s *tcpSender) write(c net.Conn, b []byte) error {
	_ = c.SetWriteDeadline(s.now().Add(writeTimeout))
	_, err := c.Write(b)
	_ = c.SetWriteDeadline(time.Time{})
	return err
}

// awaitUnclaimed waits out a write-through still running on the link, which
// the frame the writer has just taken from the queue must follow. A
// write-through is one non-blocking write, so the wait is short.
func (s *tcpSender) awaitUnclaimed() {
	s.mu.Lock()
	for s.claimed {
		s.unclaim.Wait()
	}
	s.mu.Unlock()
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
		go e.readLoop(c, nil)
	}
}

// readLoop reads one connection's frames into the receive channel until the
// connection fails. s is the sender whose connection c is: the one that
// dialed it, or, for an accepted connection, the sender adopt hands it to
// at its first frame (none if adopt declines). While c belongs to a sender,
// each frame stamps the sender's link as in use, and the loop's end tells
// the sender that c is gone.
func (e *tcpEndpoint) readLoop(c net.Conn, s *tcpSender) {
	defer e.wg.Done()
	accepted := s == nil
	defer func() {
		_ = c.Close()
		if accepted {
			e.mu.Lock()
			delete(e.inbound, c)
			e.mu.Unlock()
		}
		if s != nil {
			s.lose(c)
		}
	}()
	// Both belong to this goroutine alone, so neither takes a lock.
	r := bufio.NewReaderSize(c, readBufferSize)
	in := newInterner()
	for first := accepted; ; first = false {
		env, err := decodeFrame(r, in)
		if err != nil {
			return
		}
		if first {
			s = e.adopt(c, env.From)
		}
		if s != nil {
			s.stamp()
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

// adopt makes the accepted connection c the way back to from, the sender of
// its first frame, when the endpoint has no connection to from and from's
// host is plausible for c (plausiblePeer). It runs before that frame is
// delivered, so a reply to it already finds the connection. It returns the
// sender that now owns c, or nil.
func (e *tcpEndpoint) adopt(c net.Conn, from Addr) *tcpSender {
	if !plausiblePeer(c, from) {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	s := e.senders[from]
	if s == nil {
		s = e.addSenderLocked(from)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		return nil
	}
	s.setConnLocked(c)
	return s
}

// plausiblePeer reports whether c may carry frames back to from: from's
// host must be c's remote IP. A host that is not a literal IP, or is
// unspecified, passes, because the read path resolves no names. This keeps
// a peer on another host from capturing the frames meant for an address it
// only claims; a process on the claimed host can still claim any port
// there, as it can put any From in a frame.
func plausiblePeer(c net.Conn, from Addr) bool {
	host, _, err := net.SplitHostPort(string(from))
	if err != nil {
		return false
	}
	ip, err := netip.ParseAddr(host)
	if err != nil || ip.IsUnspecified() {
		return true
	}
	remote, ok := c.RemoteAddr().(*net.TCPAddr)
	return ok && remote.AddrPort().Addr().Unmap() == ip.Unmap()
}

// Send hands one frame to the destination and returns without waiting on
// the peer: the frame is written through if the link is idle, and queued
// for the destination's writer goroutine otherwise. A frame that cannot be
// delivered — queue full, link in backoff, peer unreachable — is lost like
// a datagram; only queue overflow is reported (ErrBackpressure), because it
// is the one failure the caller caused.
func (e *tcpEndpoint) Send(to Addr, payload any) error {
	f, err := e.encode(payload, 1)
	if err != nil {
		return err
	}
	return e.enqueue(to, f)
}

// SendMulticast implements MultiSender: the payload is serialized exactly
// once and the same frame is handed to every destination, each holding one
// of its references.
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
// destination, creating its sender on first use: it writes the frame
// through when the link is up and idle, pushes it into the queue otherwise,
// and releases a frame the full queue refuses. The sender is found, and the
// claim taken or the frame pushed, under the lock a retiring sender leaves
// under, so a frame never goes to a sender that has gone.
func (e *tcpEndpoint) enqueue(to Addr, f *frame) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		f.release()
		return ErrClosed
	}
	s := e.senders[to]
	if s == nil {
		s = e.addSenderLocked(to)
	}
	s.mu.Lock()
	e.mu.Unlock()
	if s.raw != nil && s.queued == 0 && s.rem == nil && !s.claimed {
		s.claimed = true
		w, c := s.raw, s.conn
		s.mu.Unlock()
		e.writeThrough(s, w, c, f)
		return nil
	}
	select {
	case s.frames <- f:
		s.queued++
		s.depth.Set(int64(len(s.frames)))
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		f.release()
		e.met.backpressureDrops.Inc()
		return fmt.Errorf("transport: to %s: %w", to, ErrBackpressure)
	}
}

// writeThrough writes f to c on the caller's goroutine, under the claim
// enqueue took, with one write that does not wait for the socket. What the
// socket does not take then becomes the remainder, which the writer
// goroutine writes before any frame queued behind it.
func (e *tcpEndpoint) writeThrough(s *tcpSender, w *rawWriter, c net.Conn, f *frame) {
	n := w.write(f.b)
	s.stamp()
	s.mu.Lock()
	s.claimed = false
	if n < len(f.b) {
		s.rem, s.remAt, s.remOn = f, n, c
	}
	s.mu.Unlock()
	s.unclaim.Signal()
	if n < len(f.b) {
		s.signal()
		return
	}
	e.met.framesSent.Inc()
	f.release()
}

// addSenderLocked creates the sender to one destination and starts its
// writer; e.mu is held.
func (e *tcpEndpoint) addSenderLocked(to Addr) *tcpSender {
	s := &tcpSender{
		to:      to,
		frames:  make(chan *frame, sendQueueLen),
		wake:    make(chan struct{}, 1),
		depth:   e.reg.AcquireGauge(depthSeries(to)),
		backoff: redialBackoffMin,
	}
	s.unclaim.L = &s.mu
	s.stamp()
	e.senders[to] = s
	e.wg.Add(1)
	go e.runSender(s)
	return s
}

// depthSeries names the queue-depth gauge of the writer to one destination.
// Every endpoint sending there shares the series: each writer holds it from
// creation until it exits (idle retirement, a lost connection or Close), and
// the last to exit deletes it.
func depthSeries(to Addr) string {
	return metrics.Label(metrics.TransportQueueDepth, "dest", string(to))
}

// retire removes s from the endpoint, under the lock that enqueue and adopt
// find senders under, and reports whether the writer may exit. It does so
// only when nothing is queued, unfinished or being written, and either the
// link has carried no frame in either direction for e.idleAfter or, when
// lost is set, the reader lost the connection and none has replaced it.
func (e *tcpEndpoint) retire(s *tcpSender, lost bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.queued > 0 || s.rem != nil || s.claimed:
		return false
	case lost && (!s.lost || s.conn != nil):
		return false
	case !lost && s.idleFor() < e.idleAfter:
		return false
	}
	delete(e.senders, s.to)
	return true
}

// runSender is one destination's writer: it finishes a write-through's
// remainder, drains the queue, releasing each frame once it is written or
// dropped, and exits on Close (frames still queued are left to the
// collector), once the link has been idle for e.idleAfter, or once the
// reader has lost the connection with nothing left to send. The idle check
// costs one timer per idle period: the timer fires, compares the clock with
// the link's last frame, and re-arms for the rest of the period.
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
			if wait := e.idleAfter - s.idleFor(); wait > 0 {
				idle.Reset(wait)
			} else if e.retire(s, false) {
				return
			} else {
				idle.Reset(e.idleAfter)
			}
		case <-s.wake:
			e.finishRemainder(s)
			if e.retire(s, true) {
				return
			}
		case f := <-s.frames:
			s.depth.Set(int64(len(s.frames)))
			s.awaitUnclaimed()
			e.finishRemainder(s)
			e.send(s, f, 0, nil)
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
		}
	}
}

// finishRemainder writes what a write-through left of its frame, if
// anything. The remainder stays set until then, so no write-through passes
// it.
func (e *tcpEndpoint) finishRemainder(s *tcpSender) {
	s.mu.Lock()
	f, at, on := s.rem, s.remAt, s.remOn
	s.mu.Unlock()
	if f == nil {
		return
	}
	e.send(s, f, at, on)
	s.mu.Lock()
	s.rem, s.remOn = nil, nil
	s.mu.Unlock()
}

// send delivers f, counts it if it went out, and ends this destination's
// hold on it.
func (e *tcpEndpoint) send(s *tcpSender, f *frame, at int, on net.Conn) {
	if e.deliver(s, f, at, on) {
		e.met.framesSent.Inc()
	}
	f.release()
}

// deliver writes one frame to s's destination and reports whether it went
// out; the first at bytes already went out on the connection on, so only
// the rest goes there, and the whole frame goes on any other connection.
// Without a connection, a failed dial starts a capped exponential backoff
// during which frames are dropped on arrival; a write failure gets one
// immediate redial-and-retry (the connection was likely killed by a peer
// restart) before the link is declared down. A failed dial never leaves
// poisoned state behind: the next frame after the backoff window re-dials
// from scratch.
func (e *tcpEndpoint) deliver(s *tcpSender, f *frame, at int, on net.Conn) bool {
	c := s.current()
	if c == nil {
		if !s.downUntil.IsZero() && s.now().Before(s.downUntil) {
			return false // link down: frame dropped
		}
		if c = e.dial(s); c == nil {
			s.down()
			return false
		}
		s.downUntil, s.backoff = time.Time{}, redialBackoffMin
	}
	b := f.b
	if c == on {
		b = f.b[at:]
	}
	if s.write(c, b) == nil {
		return true
	}
	s.drop(c)
	if c = e.dial(s); c == nil {
		s.down()
		return false
	}
	if s.write(c, f.b) != nil {
		s.drop(c)
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

// dial connects the sender to its destination and starts the connection's
// reader. It returns the connection, or nil on failure or shutdown; nothing
// is cached on failure, so the next attempt starts clean. If the endpoint
// adopted a connection from the destination meanwhile, that one is kept and
// the new one closed.
func (e *tcpEndpoint) dial(s *tcpSender) net.Conn {
	d := net.Dialer{Timeout: dialTimeout}
	e.met.dials.Inc()
	c, err := d.DialContext(e.dialCtx, "tcp", string(s.to))
	if err != nil {
		e.met.dialFailures.Inc()
		return nil
	}
	s.mu.Lock()
	cur := s.conn
	select {
	case <-e.done:
		cur = nil
	default:
		if cur == nil {
			s.setConnLocked(c)
			s.mu.Unlock()
			e.wg.Add(1)
			go e.readLoop(c, s)
			return c
		}
	}
	s.mu.Unlock()
	_ = c.Close()
	return cur
}

// Close shuts the endpoint down: no new sends are accepted, writer
// goroutines stop (in-flight dials are canceled, in-flight writes severed),
// every connection closes, and — after every goroutine has drained — the
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
