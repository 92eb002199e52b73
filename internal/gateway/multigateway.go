package gateway

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// MultiGateway is a client gateway hosting one protocol handler per service,
// exactly as the paper describes: "an AQuA client uses different gateway
// handlers to communicate with different server groups ... a client that is
// communicating with multiple servers would have multiple handlers loaded in
// its gateway" (§2, §5.2). All handlers share a single transport endpoint;
// the gateway demultiplexes incoming traffic to the owning handler by
// service, so each handler keeps its private information repository and QoS
// state.
type MultiGateway struct {
	client wire.ClientID
	ep     transport.Endpoint

	metDemuxDropped *metrics.Counter
	dropLogOnce     sync.Once

	mu       sync.Mutex
	handlers map[wire.Service]*TimingFaultHandler
	closed   bool

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewMultiGateway creates an empty gateway on ep. The gateway owns ep's
// receive stream; Close closes the endpoint. An optional metrics registry
// receives the demux drop counter; by default it reports to the process-wide
// default registry.
func NewMultiGateway(ep transport.Endpoint, client wire.ClientID, reg ...*metrics.Registry) (*MultiGateway, error) {
	if client == "" {
		return nil, fmt.Errorf("gateway: client ID is required")
	}
	var r *metrics.Registry
	if len(reg) > 0 {
		r = reg[0]
	}
	g := &MultiGateway{
		client:          client,
		ep:              ep,
		metDemuxDropped: metrics.OrDefault(r).Counter(metrics.GatewayDemuxDropped),
		handlers:        make(map[wire.Service]*TimingFaultHandler),
		stop:            make(chan struct{}),
	}
	g.wg.Add(1)
	go g.recvLoop()
	return g, nil
}

// LoadHandler loads a timing fault handler for one service into the
// gateway. The handler uses the gateway's shared endpoint; cfg.Client is
// overridden with the gateway's client ID, and exactly one handler may be
// loaded per service.
func (g *MultiGateway) LoadHandler(cfg Config) (*TimingFaultHandler, error) {
	if cfg.Service == "" {
		return nil, fmt.Errorf("gateway: service name is required")
	}
	cfg.Client = g.client
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("gateway: gateway closed")
	}
	if _, ok := g.handlers[cfg.Service]; ok {
		return nil, fmt.Errorf("gateway: handler for %q already loaded", cfg.Service)
	}
	h, err := newTimingFaultHandlerOn(sharedEndpoint{g.ep}, cfg, false)
	if err != nil {
		return nil, err
	}
	g.handlers[cfg.Service] = h
	return h, nil
}

// UnloadHandler removes and closes a service's handler.
func (g *MultiGateway) UnloadHandler(service wire.Service) error {
	g.mu.Lock()
	h, ok := g.handlers[service]
	delete(g.handlers, service)
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("gateway: no handler for %q", service)
	}
	h.Close()
	return nil
}

// Handler returns the handler loaded for a service.
func (g *MultiGateway) Handler(service wire.Service) (*TimingFaultHandler, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.handlers[service]
	return h, ok
}

// Services lists the services with loaded handlers.
func (g *MultiGateway) Services() []wire.Service {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]wire.Service, 0, len(g.handlers))
	for s := range g.handlers {
		out = append(out, s)
	}
	return out
}

// Call invokes a service through its loaded handler.
func (g *MultiGateway) Call(ctx context.Context, service wire.Service, method string, payload []byte) ([]byte, error) {
	h, ok := g.Handler(service)
	if !ok {
		return nil, fmt.Errorf("gateway: no handler loaded for %q", service)
	}
	return h.Call(ctx, method, payload)
}

// Close closes every handler and the shared endpoint.
func (g *MultiGateway) Close() {
	g.stopOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		handlers := make([]*TimingFaultHandler, 0, len(g.handlers))
		for _, h := range g.handlers {
			handlers = append(handlers, h)
		}
		g.handlers = make(map[wire.Service]*TimingFaultHandler)
		g.mu.Unlock()
		for _, h := range handlers {
			h.Close()
		}
		close(g.stop)
		_ = g.ep.Close()
		g.wg.Wait()
	})
}

// recvLoop demultiplexes incoming messages to the owning handler.
func (g *MultiGateway) recvLoop() {
	defer g.wg.Done()
	for msg := range g.ep.Recv() {
		service, ok := messageService(msg.Payload)
		if !ok {
			// A payload the demux has no route for — typically a newer
			// peer's message type on a mixed-version fleet. Count it (and
			// say so once) instead of silently discarding.
			g.metDemuxDropped.Inc()
			g.dropLogOnce.Do(func() {
				log.Printf("gateway %s: demux dropping unknown payload type %T from %s (counted in %s)",
					g.client, msg.Payload, msg.From, metrics.GatewayDemuxDropped)
			})
			continue
		}
		g.mu.Lock()
		h := g.handlers[service]
		g.mu.Unlock()
		if h == nil {
			continue // no handler loaded (stale traffic after unload)
		}
		h.handleMessage(msg, time.Now())
	}
}

// messageService extracts the service a message belongs to.
func messageService(payload any) (wire.Service, bool) {
	switch m := payload.(type) {
	case wire.Response:
		return m.Service, true
	case wire.PerfUpdate:
		return m.Service, true
	case wire.Heartbeat:
		return wire.Service(m.Service), true
	case wire.DigestSync:
		return m.Service, true
	case wire.StateRequest:
		return m.Service, true
	default:
		return "", false
	}
}

// sharedEndpoint wraps the gateway's endpoint for handlers that must not
// close it or consume its receive stream.
type sharedEndpoint struct {
	transport.Endpoint
}

// Close is a no-op: the MultiGateway owns the underlying endpoint.
func (sharedEndpoint) Close() error { return nil }
