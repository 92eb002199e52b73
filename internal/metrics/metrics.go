// Package metrics is a dependency-free registry of counters, gauges, and
// fixed-bucket histograms for live introspection of the running system.
//
// The paper evaluates the timing fault handler post-hoc — timely fraction,
// mean |K|, selection overhead δ (Figures 3–5) — but a production deployment
// needs the same signals observable while traffic flows. Every instrument
// here is lock-free on the write path (plain atomic operations), so the
// scheduler's ~27µs/request budget is unaffected: instruments are resolved
// once at component construction and incremented without any map lookup or
// mutex on the hot path. Registration (get-or-create by name) takes the
// registry mutex and is expected only at construction time or on rare events
// such as a new replica appearing.
//
// Snapshots are exported three ways: the Snapshot API (aqua.Metrics /
// Cluster.Metrics), an expvar-style JSON document, and a Prometheus
// text-format page (see export.go and http.go).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is usable,
// but instruments should normally be obtained from a Registry so they are
// visible in snapshots.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). Observations and the running sum use only atomic
// operations; there is no mutex and no allocation on the observe path.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot captures the histogram state. The per-bucket counts are read
// without a global lock, so a concurrent Observe may be partially visible;
// totals remain self-consistent to within the in-flight observations.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the implicit +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket. Values in the overflow bucket report the
// highest finite bound (the estimate saturates, as in Prometheus).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			return lower + (upper-lower)*((rank-cum)/float64(c))
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns a counter's value by full name (zero if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value by full name (zero if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram snapshot by full name.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// Registry holds named instruments. Get-or-create accessors are safe for
// concurrent use; the instruments they return are shared, so two components
// asking for the same name increment the same counter.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	holders    map[string]int // AcquireGauge holds per gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		holders:    make(map[string]int),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry used when a component is not
// given an explicit one (see OrDefault).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// OrDefault returns r, or the process-wide default registry when r is nil.
// Components accept an optional *Registry in their configs and resolve it
// through this helper, so everything is observable out of the box while
// tests can isolate themselves with a fresh registry.
func OrDefault(r *Registry) *Registry {
	if r == nil {
		return defaultRegistry
	}
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// AcquireGauge returns the named gauge, creating it on first use, and counts
// the caller as one of its holders until a matching ReleaseGauge. It is for a
// series that describes something with a lifetime, such as one peer link:
// the series stays while any holder does.
func (r *Registry) AcquireGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.holders[name]++
	return r.gaugeLocked(name)
}

// ReleaseGauge drops one AcquireGauge hold on the named gauge; the last
// release deletes the series from the registry. A holder must not set the
// gauge after releasing it.
func (r *Registry) ReleaseGauge(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.holders[name] > 1 {
		r.holders[name]--
		return
	}
	delete(r.holders, name)
	delete(r.gauges, name)
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later calls with different bounds return the
// existing histogram unchanged (first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hists[n] = h
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}
