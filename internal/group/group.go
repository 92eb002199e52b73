// Package group is the stand-in for the Maestro/Ensemble group-communication
// layer that AQuA is built on. It provides the membership services the timing
// fault handler consumes (§5.4):
//
//   - named multicast groups whose server members are tracked by a
//     heartbeat-based failure detector;
//   - numbered membership views delivered to every participant when members
//     join or are suspected crashed ("Maestro-Ensemble detects the failure
//     and notifies all the group members about the change in the
//     membership");
//
// The handler's third service, multicast "to a specified list of members in
// a group rather than ... to all group members" (the paper's extension of
// the AQuA connection group), is transport.Multicast over the member
// addresses AddrOf resolves.
//
// A participant joins either as a Member (a server replica: it emits
// heartbeats and appears in views) or as an Observer (a client gateway: it
// watches views without appearing in them). Views are maintained locally by
// each participant from the heartbeat stream — adequate for the stateless
// services the paper targets, which need failure *detection*, not agreement
// on view order.
package group

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aqua/internal/transport"
	"aqua/internal/wire"
)

// Role distinguishes replicas from watching clients. Roles start at 1 so the
// zero value is invalid and cannot be passed accidentally.
type Role int

const (
	// Member participates in the membership (a server replica).
	Member Role = iota + 1
	// Observer tracks membership without being part of it (a client).
	Observer
)

// View is a numbered membership snapshot.
type View struct {
	Number  uint64
	Members []wire.ReplicaID // sorted
}

// clone returns a deep copy so listeners can retain views safely.
func (v View) clone() View {
	m := make([]wire.ReplicaID, len(v.Members))
	copy(m, v.Members)
	return View{Number: v.Number, Members: m}
}

// Contains reports whether id is in the view.
func (v View) Contains(id wire.ReplicaID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Config configures a group participant.
type Config struct {
	// Group names the multicast group (one per replicated service).
	Group wire.Service
	// Role is Member for replicas, Observer for clients.
	Role Role
	// Self is the participant's replica ID; required for members, ignored
	// for observers.
	Self wire.ReplicaID
	// Seeds are transport addresses of potential members; members announce
	// themselves to seeds and to every address they learn of.
	Seeds []transport.Addr
	// HeartbeatInterval is how often members emit heartbeats. Zero means
	// DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// FailureTimeout is how long a member may stay silent before it is
	// suspected crashed and removed from the view. Zero means
	// DefaultFailureTimeout.
	FailureTimeout time.Duration
	// OnViewChange, if set, is invoked (on the node's goroutine) for every
	// installed view, including the initial empty one.
	OnViewChange func(View)
}

// Default failure-detection parameters, tuned for LAN latencies.
const (
	DefaultHeartbeatInterval = 20 * time.Millisecond
	DefaultFailureTimeout    = 100 * time.Millisecond
)

// Node is one group participant bound to a transport endpoint. Create with
// Join; stop with Leave.
type Node struct {
	cfg Config
	ep  transport.Endpoint

	mu        sync.Mutex
	view      View
	lastSeen  map[wire.ReplicaID]time.Time
	addrOf    map[wire.ReplicaID]transport.Addr
	listeners []func(View)
	stopped   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Join creates a node for the configured group over ep. The caller remains
// responsible for draining non-group messages: the node does not consume
// from ep.Recv(); instead the owner routes wire.Heartbeat messages to
// HandleHeartbeat. (A gateway multiplexes one endpoint across request
// traffic and group traffic, so the endpoint's receive loop must live in
// exactly one place — the gateway.)
func Join(ep transport.Endpoint, cfg Config) (*Node, error) {
	if cfg.Group == "" {
		return nil, fmt.Errorf("group: group name is required")
	}
	if cfg.Role != Member && cfg.Role != Observer {
		return nil, fmt.Errorf("group: invalid role %d", cfg.Role)
	}
	if cfg.Role == Member && cfg.Self == "" {
		return nil, fmt.Errorf("group: members need a replica ID")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.FailureTimeout <= 0 {
		cfg.FailureTimeout = DefaultFailureTimeout
	}
	n := &Node{
		cfg:      cfg,
		ep:       ep,
		lastSeen: make(map[wire.ReplicaID]time.Time),
		addrOf:   make(map[wire.ReplicaID]transport.Addr),
		stop:     make(chan struct{}),
	}
	if cfg.OnViewChange != nil {
		n.listeners = append(n.listeners, cfg.OnViewChange)
	}
	if cfg.Role == Member {
		// Install the singleton view so a member sees itself immediately.
		n.mu.Lock()
		v := n.rebuildViewLocked()
		listeners := n.snapshotListenersLocked()
		n.mu.Unlock()
		notify(listeners, v)
	}
	n.wg.Add(1)
	go n.tickLoop()
	return n, nil
}

// Leave stops heartbeating and failure detection. It does not close the
// endpoint (the owner does).
func (n *Node) Leave() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
}

// OnViewChange registers an additional view listener.
func (n *Node) OnViewChange(f func(View)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listeners = append(n.listeners, f)
}

// CurrentView returns the node's latest installed view.
func (n *Node) CurrentView() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.clone()
}

// AddrOf resolves a member's transport address, learned from heartbeats.
func (n *Node) AddrOf(id wire.ReplicaID) (transport.Addr, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrOf[id]
	return a, ok
}

// HandleHeartbeat ingests a heartbeat routed to this node by the endpoint
// owner. from is the transport-level sender address.
func (n *Node) HandleHeartbeat(hb wire.Heartbeat, from transport.Addr, now time.Time) {
	if wire.Service(hb.Service) != n.cfg.Group {
		return
	}
	n.mu.Lock()
	_, known := n.lastSeen[hb.From]
	n.lastSeen[hb.From] = now
	n.addrOf[hb.From] = from
	var installed *View
	if !known {
		v := n.rebuildViewLocked()
		installed = &v
	}
	listeners := n.snapshotListenersLocked()
	n.mu.Unlock()
	if installed != nil {
		notify(listeners, *installed)
	}
}

// tickLoop emits heartbeats (members) and sweeps for suspected crashes.
func (n *Node) tickLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case now := <-ticker.C:
			if n.cfg.Role == Member {
				n.broadcastHeartbeat(now)
			}
			n.sweep(now)
		}
	}
}

// broadcastHeartbeat announces liveness to the seeds and every learned
// member address.
func (n *Node) broadcastHeartbeat(now time.Time) {
	n.mu.Lock()
	targets := make(map[transport.Addr]bool, len(n.cfg.Seeds)+len(n.addrOf))
	for _, s := range n.cfg.Seeds {
		targets[s] = true
	}
	for _, a := range n.addrOf {
		targets[a] = true
	}
	view := n.view.Number
	n.mu.Unlock()

	hb := wire.Heartbeat{
		From:    n.cfg.Self,
		Service: string(n.cfg.Group),
		View:    view,
		At:      now,
	}
	for a := range targets {
		if a == n.ep.Addr() {
			continue
		}
		// Failure of an individual send is indistinguishable from a slow
		// peer; the detector on the other side handles it.
		_ = n.ep.Send(a, hb)
	}
}

// sweep removes members whose heartbeats stopped.
func (n *Node) sweep(now time.Time) {
	n.mu.Lock()
	var changed bool
	for id, seen := range n.lastSeen {
		if now.Sub(seen) > n.cfg.FailureTimeout {
			delete(n.lastSeen, id)
			delete(n.addrOf, id)
			changed = true
		}
	}
	var installed View
	if changed {
		installed = n.rebuildViewLocked()
	}
	listeners := n.snapshotListenersLocked()
	n.mu.Unlock()
	if changed {
		notify(listeners, installed)
	}
}

// rebuildViewLocked installs a new view from lastSeen. Caller holds n.mu.
func (n *Node) rebuildViewLocked() View {
	members := make([]wire.ReplicaID, 0, len(n.lastSeen))
	for id := range n.lastSeen {
		members = append(members, id)
	}
	if n.cfg.Role == Member {
		members = append(members, n.cfg.Self)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	n.view = View{Number: n.view.Number + 1, Members: members}
	return n.view.clone()
}

func (n *Node) snapshotListenersLocked() []func(View) {
	out := make([]func(View), len(n.listeners))
	copy(out, n.listeners)
	return out
}

func notify(listeners []func(View), v View) {
	for _, f := range listeners {
		f(v.clone())
	}
}
