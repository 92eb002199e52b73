// Package transport provides the point-to-point message layer underneath
// the group-communication substrate: addressed endpoints that exchange the
// message types defined in internal/wire.
//
// Two implementations are provided. The in-memory network wires endpoints
// through channels — the substrate for unit and integration tests. The TCP
// network carries length-prefixed binary frames over real sockets — the
// substrate for the runnable examples and the standalone binaries — and
// refuses, at Send, any payload that is not one of the internal/wire message
// types. Faulty wraps either one to inject loss, delay, duplication,
// reordering and partitions. (The original AQuA used the Maestro/Ensemble
// stack over a LAN; see DESIGN.md for the substitution argument.)
package transport

import (
	"errors"
	"fmt"
)

// Addr is a transport address. For TCP it is "host:port"; for the in-memory
// network it is any unique string.
type Addr string

// Message is a received envelope.
type Message struct {
	From    Addr
	Payload any // one of the internal/wire message types
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Endpoint is one addressable participant on a network.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send delivers payload to the endpoint at to. Send is non-blocking
	// aside from serialization; delivery is asynchronous and unreliable
	// (a crashed or absent destination loses the message, as in a LAN
	// datagram — the layers above tolerate loss by design).
	Send(to Addr, payload any) error
	// Recv returns the channel of incoming messages. It is closed when the
	// endpoint closes.
	Recv() <-chan Message
	// Close releases the endpoint. Safe to call more than once.
	Close() error
}

// Network creates endpoints.
type Network interface {
	// Listen materializes an endpoint at addr.
	Listen(addr Addr) (Endpoint, error)
}

// MultiSender is implemented by endpoints that can deliver one payload to
// many destinations from a single serialization. Without it, Multicast
// degrades to per-destination Send calls, which re-encode an identical frame
// once per target — pure waste on the request fan-out path, where every
// multicast payload is the same bytes for every destination.
type MultiSender interface {
	// SendMulticast encodes payload once and enqueues the shared frame to
	// every target, attempting all targets and returning the first error.
	SendMulticast(to []Addr, payload any) error
}

// Multicast sends payload to each target through ep, collecting the first
// error but attempting every target (a failed member must not mask delivery
// to the rest). Endpoints implementing MultiSender serialize the payload
// exactly once for the whole target set.
func Multicast(ep Endpoint, targets []Addr, payload any) error {
	if ms, ok := ep.(MultiSender); ok {
		return ms.SendMulticast(targets, payload)
	}
	var firstErr error
	for _, t := range targets {
		if err := ep.Send(t, payload); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("transport: multicast to %s: %w", t, err)
		}
	}
	return firstErr
}
