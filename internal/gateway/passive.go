package gateway

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"aqua/internal/group"
	"aqua/internal/transport"
	"aqua/internal/wire"
)

// PassiveConfig configures a PassiveHandler.
type PassiveConfig struct {
	// Client identifies this client gateway.
	Client wire.ClientID
	// Service is the replicated service.
	Service wire.Service
	// AttemptTimeout is how long to wait for the primary before failing
	// over to the next replica.
	AttemptTimeout time.Duration
	// Group tracks membership; nil requires StaticReplicas.
	Group *group.Config
	// StaticReplicas maps replica IDs to addresses for group-less use.
	StaticReplicas map[wire.ReplicaID]transport.Addr
}

// PassiveHandler is AQuA's passive-replication protocol handler: requests go
// to the primary (the lowest-ID live replica); on timeout the handler fails
// over to the next replica in the view. It serves as the crash-tolerance
// baseline without redundant execution.
type PassiveHandler struct {
	cfg  PassiveConfig
	ep   transport.Endpoint
	node *group.Node

	mu      sync.Mutex
	members []wire.ReplicaID
	addrOf  map[wire.ReplicaID]transport.Addr
	waiters map[wire.SeqNo]chan wire.Response
	nextSeq wire.SeqNo

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewPassiveHandler creates the handler on ep. The handler owns ep's
// receive stream; Close closes the endpoint.
func NewPassiveHandler(ep transport.Endpoint, cfg PassiveConfig) (*PassiveHandler, error) {
	if cfg.Client == "" {
		return nil, fmt.Errorf("gateway: client ID is required")
	}
	if cfg.AttemptTimeout <= 0 {
		return nil, fmt.Errorf("gateway: attempt timeout is required")
	}
	h := &PassiveHandler{
		cfg:     cfg,
		ep:      ep,
		addrOf:  make(map[wire.ReplicaID]transport.Addr),
		waiters: make(map[wire.SeqNo]chan wire.Response),
		stop:    make(chan struct{}),
	}
	for id, addr := range cfg.StaticReplicas {
		h.addrOf[id] = addr
		h.members = append(h.members, id)
	}
	slices.Sort(h.members)
	if cfg.Group != nil {
		gcfg := *cfg.Group
		gcfg.Role = group.Observer
		gcfg.Group = cfg.Service
		gcfg.OnViewChange = func(v group.View) {
			h.mu.Lock()
			h.members = v.Members
			h.mu.Unlock()
		}
		node, err := group.Join(ep, gcfg)
		if err != nil {
			return nil, fmt.Errorf("gateway: joining group: %w", err)
		}
		h.node = node
	} else if len(cfg.StaticReplicas) == 0 {
		return nil, fmt.Errorf("gateway: either Group or StaticReplicas is required")
	}
	h.wg.Add(1)
	go h.recvLoop()
	return h, nil
}

// Close stops the handler and closes its endpoint.
func (h *PassiveHandler) Close() {
	h.stopOnce.Do(func() {
		close(h.stop)
		if h.node != nil {
			h.node.Leave()
		}
		_ = h.ep.Close()
		h.wg.Wait()
	})
}

// Primary returns the current primary replica, if any.
func (h *PassiveHandler) Primary() (wire.ReplicaID, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.members) == 0 {
		return "", false
	}
	return h.members[0], true
}

// Call sends the request to the primary and fails over through the
// remaining replicas until one responds or the context is done.
func (h *PassiveHandler) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	h.mu.Lock()
	candidates := make([]wire.ReplicaID, len(h.members))
	copy(candidates, h.members)
	seq := h.nextSeq
	h.nextSeq++
	// One buffer slot per candidate: a late reply from a timed-out replica
	// must never occupy the only slot and squeeze out the reply of the
	// replica currently being tried.
	waiter := make(chan wire.Response, len(candidates)+1)
	h.waiters[seq] = waiter
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.waiters, seq)
		h.mu.Unlock()
	}()

	if len(candidates) == 0 {
		return nil, fmt.Errorf("gateway: no replicas available for %q", h.cfg.Service)
	}
	req := wire.Request{
		Client:  h.cfg.Client,
		Seq:     seq,
		Service: h.cfg.Service,
		Method:  method,
		Payload: payload,
	}
	var lastErr error
	for _, target := range candidates {
		addr, ok := h.resolve(target)
		if !ok {
			lastErr = fmt.Errorf("gateway: no address for %s", target)
			continue
		}
		req.SentAt = time.Now()
		if err := h.ep.Send(addr, req); err != nil {
			lastErr = fmt.Errorf("gateway: sending to %s: %w", target, err)
			continue
		}
		attempt := time.NewTimer(h.cfg.AttemptTimeout)
	wait:
		for {
			select {
			case resp := <-waiter:
				if resp.Err != "" {
					// An application error is a failed attempt, not a final
					// answer: fail over exactly as a timeout would. A stale
					// error from an already-abandoned target must not abort
					// the attempt currently in flight either — keep waiting.
					lastErr = fmt.Errorf("gateway: replica %s: %s", resp.Replica, resp.Err)
					if resp.Replica == target {
						break wait
					}
					continue
				}
				// A successful reply from any candidate answers the call —
				// a straggler from a timed-out replica is still the same
				// request's result.
				attempt.Stop()
				return resp.Payload, nil
			case <-attempt.C:
				lastErr = fmt.Errorf("gateway: %s did not respond within %v", target, h.cfg.AttemptTimeout)
				break wait
			case <-ctx.Done():
				attempt.Stop()
				return nil, fmt.Errorf("gateway: call canceled: %w", ctx.Err())
			case <-h.stop:
				attempt.Stop()
				return nil, transport.ErrClosed
			}
		}
		attempt.Stop()
	}
	return nil, fmt.Errorf("gateway: all replicas failed: %w", lastErr)
}

func (h *PassiveHandler) resolve(id wire.ReplicaID) (transport.Addr, bool) {
	if h.node != nil {
		if a, ok := h.node.AddrOf(id); ok {
			return a, true
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.addrOf[id]
	return a, ok
}

func (h *PassiveHandler) recvLoop() {
	defer h.wg.Done()
	for msg := range h.ep.Recv() {
		switch m := msg.Payload.(type) {
		case wire.Response:
			if m.Client != h.cfg.Client {
				continue
			}
			h.mu.Lock()
			w := h.waiters[m.Seq]
			h.mu.Unlock()
			if w != nil {
				select {
				case w <- m:
				default: // duplicate or late; primary already answered
				}
			}
		case wire.Heartbeat:
			if h.node != nil {
				h.node.HandleHeartbeat(m, msg.From, time.Now())
			}
		default:
		}
	}
}
