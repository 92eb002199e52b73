// Package queue implements the instrumented FIFO request queue inside the
// server-side gateway (§5.1, §5.4.1). Enqueue stamps t2 and Dequeue hands
// the stamp back so the worker computes the queuing delay tq = t3 − t2 on
// its own clock. The queue itself is clock-free.
//
// The queue is indexed by (Client, Seq) so a first-response-wins Cancel can
// purge a queued duplicate in O(1) before it burns a full service time.
package queue

import (
	"sync"
	"time"

	"aqua/internal/wire"
)

// Item is one queued request with its enqueue timestamp (t2).
type Item struct {
	Req        wire.Request
	From       string // transport-level reply address
	EnqueuedAt time.Time
}

// Key globally identifies a request: (ClientID, SeqNo) pairs are never
// reused (a shed retry gets a fresh seq), so the key is stable for the
// request's whole lifetime.
type Key struct {
	Client wire.ClientID
	Seq    wire.SeqNo
}

// slot is one ring-buffer cell. A cancelled slot keeps its position (FIFO
// order is preserved lazily) but its payload is zeroed immediately so a
// purged request pins nothing while it waits to be skipped.
type slot struct {
	item      Item
	cancelled bool
}

// Queue is a blocking FIFO with enqueue instrumentation and O(1) cancel of
// queued requests. The zero value is not usable; construct with New.
//
// Internally it is a ring buffer: popping advances head without copying, and
// every vacated slot is zeroed so the backing array never pins a served (or
// purged) request's payload.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []slot
	head   int            // index of the oldest slot in buf
	n      int            // occupied slots, including cancelled ones awaiting skip
	live   int            // occupied, non-cancelled slots (== Len())
	base   uint64         // absolute index of buf[head]; monotone over the queue's life
	index  map[Key]uint64 // key → absolute index of its slot
	purged uint64
	closed bool
}

// New returns an empty open queue.
func New() *Queue {
	q := &Queue{index: make(map[Key]uint64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// at returns the slot for absolute index abs.
func (q *Queue) at(abs uint64) *slot {
	return &q.buf[(q.head+int(abs-q.base))%len(q.buf)]
}

// grow doubles the ring, unwrapping it so head lands at 0.
func (q *Queue) grow() {
	capNew := 2 * len(q.buf)
	if capNew == 0 {
		capNew = 8
	}
	next := make([]slot, capNew)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = next
	q.head = 0
}

// Enqueue appends a request stamped with t2 = now. It reports false if the
// queue is closed. Duplicate keys are accepted (deduplication is the
// server's job); the index tracks the most recent occurrence.
func (q *Queue) Enqueue(req wire.Request, from string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	abs := q.base + uint64(q.n)
	*q.at(abs) = slot{item: Item{Req: req, From: from, EnqueuedAt: now}}
	q.n++
	q.live++
	q.index[Key{Client: req.Client, Seq: req.Seq}] = abs
	q.cond.Signal()
	return true
}

// pop removes and returns the oldest live item, skipping (and reclaiming)
// cancelled slots. Caller holds q.mu and guarantees live > 0.
func (q *Queue) pop() Item {
	for {
		sl := &q.buf[q.head]
		item := sl.item
		cancelled := sl.cancelled
		// Zero the vacated slot so the backing array doesn't pin the
		// request's payload after it is served (or purged).
		*sl = slot{}
		if !cancelled {
			// Drop the index entry unless a duplicate key was enqueued
			// later and now owns it.
			key := Key{Client: item.Req.Client, Seq: item.Req.Seq}
			if abs, ok := q.index[key]; ok && abs == q.base {
				delete(q.index, key)
			}
		}
		q.head = (q.head + 1) % len(q.buf)
		q.base++
		q.n--
		if !cancelled {
			q.live--
			return item
		}
	}
}

// Dequeue blocks until an item is available or the queue closes. ok is
// false on close. The caller stamps t3 on return and computes
// tq = t3 − item.EnqueuedAt.
func (q *Queue) Dequeue() (item Item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.live == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.live == 0 {
		return Item{}, false
	}
	return q.pop(), true
}

// TryDequeue is Dequeue without blocking; ok is false if empty or closed.
func (q *Queue) TryDequeue() (item Item, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.live == 0 {
		return Item{}, false
	}
	return q.pop(), true
}

// Cancel purges the queued request identified by (client, seq) before it is
// served: O(1) index lookup, the slot's payload is released immediately, and
// FIFO order of the remaining items is untouched. It reports false when no
// such request is queued — already served, never enqueued, or already
// cancelled — which the server counts as an abort attempt or a no-op.
// Cancelling still works after Close, so a drain can be trimmed.
func (q *Queue) Cancel(client wire.ClientID, seq wire.SeqNo) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	key := Key{Client: client, Seq: seq}
	abs, ok := q.index[key]
	if !ok {
		return false
	}
	delete(q.index, key)
	sl := q.at(abs)
	sl.cancelled = true
	sl.item = Item{}
	q.live--
	q.purged++
	return true
}

// Purged returns the number of requests removed by Cancel before service.
func (q *Queue) Purged() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.purged
}

// Len returns the number of outstanding requests — the queue-length figure
// the replica publishes with each performance report. Cancelled slots
// awaiting reclamation are not counted.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.live
}

// Close wakes all blocked Dequeues; subsequent Enqueues are rejected.
// Items already queued can still be drained with TryDequeue.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}
