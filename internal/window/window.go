// Package window implements the fixed-capacity sliding windows that the
// gateway information repository keeps per replica (the paper's service time
// vector and queuing delay vector, §5.2). A window retains the most recent l
// measurements and evicts the oldest, so "obsolete measurements" age out as
// the paper prescribes.
//
// Every window maintains an incremental bin-count histogram of its contents
// at a fixed quantization resolution: each Add increments the new sample's
// bin and decrements the evicted sample's bin. The histogram is
// exactly the bin/count multiset dist.FromSamples would compute from
// Values(), but costs O(log k) per update instead of O(l log l) per
// prediction, which is what makes the response-time model's fast path cheap.
package window

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"aqua/internal/dist"
)

// versionCounter issues window versions. It is global and monotonic so a
// version is never reused across window instances: a replica that is removed
// and re-added gets fresh versions, and any cache keyed by version cannot
// alias stale state.
var versionCounter atomic.Uint64

// Window is a fixed-capacity FIFO ring buffer of duration samples. The most
// recent capacity samples are retained. Window is not safe for concurrent use;
// the repository serializes access.
type Window struct {
	buf     []time.Duration
	head    int // index of the oldest sample
	version uint64

	// Incremental histogram state.
	res       time.Duration
	bins      []int64 // sorted ascending, distinct
	binCounts []int   // parallel to bins, each > 0
}

// NewHistogrammed returns a window retaining the most recent capacity
// samples, with an incremental histogram of its contents quantized at res
// (see HistCounts). It panics on non-positive capacity or resolution: a
// zero-length history makes the response-time model undefined, and both are
// static configuration values, so this is a programmer error rather than a
// runtime condition.
func NewHistogrammed(capacity int, res time.Duration) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("window: capacity must be positive, got %d", capacity))
	}
	if res <= 0 {
		panic(fmt.Sprintf("window: histogram resolution must be positive, got %v", res))
	}
	return &Window{buf: make([]time.Duration, 0, capacity), version: versionCounter.Add(1), res: res}
}

// Add appends a sample, evicting the oldest if the window is full.
func (w *Window) Add(d time.Duration) {
	w.version = versionCounter.Add(1)
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, d)
		w.histAdd(d)
		return
	}
	evicted := w.buf[w.head]
	w.buf[w.head] = d
	w.head = (w.head + 1) % cap(w.buf)
	w.histRemove(evicted)
	w.histAdd(d)
}

// histAdd increments the bin holding d, inserting the bin if new.
func (w *Window) histAdd(d time.Duration) {
	b := dist.Quantize(d, w.res)
	i := w.searchBin(b)
	if i < len(w.bins) && w.bins[i] == b {
		w.binCounts[i]++
		return
	}
	w.bins = append(w.bins, 0)
	copy(w.bins[i+1:], w.bins[i:])
	w.bins[i] = b
	w.binCounts = append(w.binCounts, 0)
	copy(w.binCounts[i+1:], w.binCounts[i:])
	w.binCounts[i] = 1
}

// histRemove decrements the bin holding d, removing the bin at count zero.
func (w *Window) histRemove(d time.Duration) {
	b := dist.Quantize(d, w.res)
	i := w.searchBin(b)
	if i >= len(w.bins) || w.bins[i] != b {
		panic(fmt.Sprintf("window: histogram out of sync, missing bin %d", b))
	}
	w.binCounts[i]--
	if w.binCounts[i] == 0 {
		w.bins = append(w.bins[:i], w.bins[i+1:]...)
		w.binCounts = append(w.binCounts[:i], w.binCounts[i+1:]...)
	}
}

// searchBin returns the insertion index for bin b in the sorted bin list.
func (w *Window) searchBin(b int64) int {
	lo, hi := 0, len(w.bins)
	for lo < hi {
		mid := (lo + hi) / 2
		if w.bins[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of samples currently retained.
func (w *Window) Len() int { return len(w.buf) }

// Version returns a value that changes on every mutation and is never reused
// by any other window instance in the process. Equal versions therefore
// guarantee identical window contents, which is what tells the response-time
// model that a replica's table is still current.
func (w *Window) Version() uint64 { return w.version }

// Hist returns the incremental histogram without copying: distinct bins
// (dist.Quantize(v, res) for the retained values v) in ascending order with
// their positive counts. The slices are the window's own: read-only, and
// valid only until the next mutation.
func (w *Window) Hist() (bins []int64, counts []int) { return w.bins, w.binCounts }

// HistCounts returns a copy of Hist the caller may keep. ok is false when the
// window is empty.
func (w *Window) HistCounts() (bins []int64, counts []int, ok bool) {
	if len(w.bins) == 0 {
		return nil, nil, false
	}
	return slices.Clone(w.bins), slices.Clone(w.binCounts), true
}

// Values returns the retained samples ordered oldest to newest. The returned
// slice is freshly allocated; callers may keep it.
func (w *Window) Values() []time.Duration {
	out := make([]time.Duration, 0, len(w.buf))
	for i := 0; i < len(w.buf); i++ {
		out = append(out, w.buf[(w.head+i)%cap(w.buf)])
	}
	return out
}

// TrimOldest evicts the single oldest sample, keeping the histogram in sync.
// It returns false on an empty window. The repository uses it to displace
// one digest-borrowed sample for each locally measured one, so a cold-started
// window converges to purely local evidence within l measurements.
func (w *Window) TrimOldest() bool {
	if len(w.buf) == 0 {
		return false
	}
	w.version = versionCounter.Add(1)
	w.histRemove(w.buf[w.head])
	// Add appends while the ring is not full, so what is left must lie oldest
	// first from index 0: rotate the oldest to the front, then drop it.
	slices.Reverse(w.buf[:w.head])
	slices.Reverse(w.buf[w.head:])
	slices.Reverse(w.buf)
	w.buf = append(w.buf[:0], w.buf[1:]...)
	w.head = 0
	return true
}
