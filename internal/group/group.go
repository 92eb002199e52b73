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
// addresses a view carries.
//
// A participant joins either as a Member (a server replica: it emits
// heartbeats and appears in views) or as an Observer (a client gateway: it
// watches views without appearing in them). Views are maintained locally by
// each participant from the heartbeat stream — adequate for the stateless
// services the paper targets, which need failure *detection*, not agreement
// on views. They do need order: a node notifies from its receive and its
// tick goroutine, so a listener puts a Fence in front of its install.
package group

import (
	"fmt"
	"maps"
	"slices"
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

// View is a numbered membership snapshot: the one membership value every
// viewer applies. A view is not modified once built, so viewers may keep
// and share its slice and map.
type View struct {
	Number  uint64
	Members []wire.ReplicaID // sorted
	Addrs   map[wire.ReplicaID]transport.Addr
}

// NewView builds view number from a member address table; the view takes
// ownership of addrs.
func NewView(number uint64, addrs map[wire.ReplicaID]transport.Addr) View {
	members := make([]wire.ReplicaID, 0, len(addrs))
	for id := range addrs {
		members = append(members, id)
	}
	slices.Sort(members)
	return View{Number: number, Members: members, Addrs: addrs}
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

// Fence applies numbered views in order, one at a time, so a viewer fed from
// several goroutines never goes back to an older view. The zero Fence stands
// at view 0, the static table a viewer starts from.
type Fence struct {
	mu   sync.Mutex
	last uint64
}

// Apply runs install(v) under the fence's lock if v is newer than every view
// applied before it, and reports whether it did.
func (f *Fence) Apply(v View, install func(View)) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v.Number <= f.last {
		return false
	}
	f.last = v.Number
	install(v)
	return true
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
	// OnViewChange, if set, is invoked for every installed view, outside the
	// node's lock and from either the receive or the tick goroutine, so two
	// views can arrive out of order: put a Fence in front of the install.
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
	return n.view
}

// HandleHeartbeat ingests a heartbeat routed to this node by the endpoint
// owner. from is the transport-level sender address.
func (n *Node) HandleHeartbeat(hb wire.Heartbeat, from transport.Addr, now time.Time) {
	if wire.Service(hb.Service) != n.cfg.Group {
		return
	}
	n.mu.Lock()
	// A view carries addresses, so a member heard at a new address (restarted
	// under the same ID) is a view change too.
	prev, known := n.addrOf[hb.From]
	n.lastSeen[hb.From] = now
	n.addrOf[hb.From] = from
	changed := !known || prev != from
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

// rebuildViewLocked installs the next view from the addresses heartbeats
// have taught the node (lastSeen and addrOf share keys), plus the node
// itself when it is a member. Caller holds n.mu.
func (n *Node) rebuildViewLocked() View {
	addrs := maps.Clone(n.addrOf)
	if n.cfg.Role == Member {
		addrs[n.cfg.Self] = n.ep.Addr()
	}
	n.view = NewView(n.view.Number+1, addrs)
	return n.view
}

func (n *Node) snapshotListenersLocked() []func(View) {
	out := make([]func(View), len(n.listeners))
	copy(out, n.listeners)
	return out
}

func notify(listeners []func(View), v View) {
	for _, f := range listeners {
		f(v)
	}
}
