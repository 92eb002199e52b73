package transport

import (
	"fmt"
	"sync"

	"aqua/internal/metrics"
)

// recvBuffer sizes each endpoint's incoming queue. Large enough that a burst
// of duplicate replies never blocks a sender; overflow drops the message
// (datagram semantics).
const recvBuffer = 1024

// InMem is an in-process Network connecting endpoints through channels.
// Delivery is immediate and lossless; wrap it in NewFaulty to inject latency
// and loss. The zero value is not usable; construct with NewInMem.
type InMem struct {
	met transportInstruments

	mu        sync.Mutex
	endpoints map[Addr]*inmemEndpoint
	closed    bool
}

var _ Network = (*InMem)(nil)

// InMemOption configures the in-memory network.
type InMemOption func(*InMem)

// WithMetrics directs the network's frame and drop counters to reg instead
// of the process-wide default registry.
func WithMetrics(reg *metrics.Registry) InMemOption {
	return func(n *InMem) {
		n.met = resolveTransportInstruments(reg)
	}
}

// NewInMem returns an empty in-memory network.
func NewInMem(opts ...InMemOption) *InMem {
	n := &InMem{
		endpoints: make(map[Addr]*inmemEndpoint),
		met:       resolveTransportInstruments(metrics.Default()),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Listen implements Network.
func (n *InMem) Listen(addr Addr) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	ep := &inmemEndpoint{
		net:  n,
		addr: addr,
		recv: make(chan Message, recvBuffer),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// Close shuts down the network and all endpoints.
func (n *InMem) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*inmemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// deliver routes a message to the destination endpoint. Called with the
// network lock NOT held.
func (n *InMem) deliver(from, to Addr, payload any) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.met.framesSent.Inc()
	dst, ok := n.endpoints[to]
	n.mu.Unlock()
	if !ok {
		return // unknown destination: datagram dropped
	}
	dst.push(Message{From: from, Payload: payload})
}

type inmemEndpoint struct {
	net  *InMem
	addr Addr

	mu     sync.Mutex
	recv   chan Message
	closed bool
}

var _ Endpoint = (*inmemEndpoint)(nil)

func (e *inmemEndpoint) Addr() Addr { return e.addr }

func (e *inmemEndpoint) Send(to Addr, payload any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	e.net.deliver(e.addr, to, payload)
	return nil
}

func (e *inmemEndpoint) Recv() <-chan Message { return e.recv }

func (e *inmemEndpoint) push(m Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	select {
	case e.recv <- m:
		e.net.met.framesReceived.Inc()
	default:
		// Receiver overloaded: drop, as a datagram network would.
		e.net.met.recvDrops.Inc()
	}
}

func (e *inmemEndpoint) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.recv)
	}
	e.mu.Unlock()

	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	return nil
}
