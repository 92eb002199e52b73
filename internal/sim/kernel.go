// Package sim is a deterministic discrete-event simulator reproducing the
// paper's experimental environment (§6): a LAN of hosts running server
// replicas whose load is simulated by a configurable service-delay
// distribution, and clients issuing requests with QoS deadlines through the
// timing fault handler.
//
// The simulator drives the very same decision code as the real gateway —
// internal/core.Scheduler with the paper's repository, model, and selection
// algorithm — on a virtual clock, so a 50-request-per-point parameter sweep
// that takes minutes of wall time on a testbed runs in milliseconds and is
// bit-for-bit reproducible from its seed. Every replica in every scenario is
// one Replica: a FIFO queue and its workers, run event by event on the
// kernel, so a Cancel or a crash acts on the copies it holds.
package sim

import (
	"container/heap"
	"time"
)

// Kernel is a single-threaded discrete-event scheduler. Events run in
// timestamp order; ties run in scheduling order (FIFO), which keeps runs
// deterministic.
type Kernel struct {
	events eventHeap
	now    time.Duration
	seq    uint64
	// base anchors virtual time onto the time.Time scale used by the
	// shared scheduler code.
	base time.Time
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel() *Kernel {
	// An arbitrary fixed epoch: virtual timestamps must be stable across
	// runs, so the wall clock is never consulted.
	return &Kernel{base: time.Date(2001, time.July, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current virtual time as an offset from the start.
func (k *Kernel) Now() time.Duration { return k.now }

// NowTime returns the current virtual time on the time.Time scale.
func (k *Kernel) NowTime() time.Time { return k.base.Add(k.now) }

// At schedules fn at absolute virtual time at (clamped to now if earlier).
func (k *Kernel) At(at time.Duration, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	heap.Push(&k.events, &event{at: at, seq: k.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// Run executes events until the queue drains or virtual time would exceed
// until (inclusive). It returns the number of events executed.
func (k *Kernel) Run(until time.Duration) int {
	executed := 0
	for k.events.Len() > 0 {
		next := k.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&k.events)
		k.now = next.at
		next.fn()
		executed++
	}
	if k.now < until {
		k.now = until
	}
	return executed
}

// RunAll executes events until the queue drains.
func (k *Kernel) RunAll() int {
	executed := 0
	for k.events.Len() > 0 {
		next := heap.Pop(&k.events).(*event)
		k.now = next.at
		next.fn()
		executed++
	}
	return executed
}

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return k.events.Len() }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
