// Package model implements the paper's online response-time model (§5.3.1).
//
// For a replica i, the response time is R_i = S_i + W_i + T_i. S_i, W_i and
// T_i are the empirical pmfs of the sliding windows in the gateway
// information repository: service time, queuing delay, and the per-link
// gateway-to-gateway delay. With the paper's configuration the T window holds
// one sample, so T_i is a point mass at the most recent measurement; with a
// longer gateway-delay history (the WAN extension) the same pmf keeps a
// bimodal link's congested mode instead of forgetting it the moment one calm
// sample arrives. F_Ri(t), the probability that replica i responds within t,
// is the CDF of the discrete convolution of the three. Equation 1 combines
// per-replica probabilities into the probability that a subset produces at
// least one timely response.
//
// The model's cost is the paper's own overhead term δ (§5.3.3). There is one
// pipeline: pmfs come straight from the repository's incrementally
// maintained bin-count histograms (dist.FromCounts), are convolved over dense
// arrays (dist.ConvolveDense), and each replica's convolved CDF table is
// memoized under the three window versions, so back-to-back requests with
// unchanged windows reuse the cached F_Ri(t) at the cost of one bin lookup.
// The paper's formulation — pmfs rebuilt from samples, map convolution,
// point-mass shift — is the oracle in reference_test.go, pinned to this
// pipeline within 1e-12.
package model

import (
	"fmt"
	"sync"
	"time"

	"aqua/internal/dist"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

// defaultMaxSupport caps the number of pmf support points carried through a
// convolution. When the windowed pmfs are wider than this, they are rebinned
// to a coarser resolution first, bounding the (k²) convolution cost.
const defaultMaxSupport = 4096

// maxCacheEntries bounds the memoization table. Steady state needs one entry
// per (replica, method); the bound only matters under extreme method or
// membership churn, where the whole table is dropped and rebuilt.
const maxCacheEntries = 8192

// cacheShardCount stripes the memoization table so concurrent lookups do not
// serialize on one mutex: cache hits — the per-request steady state — take
// only a shard's read lock. Must be a power of two.
const cacheShardCount = 16

// cacheShard is one stripe of the memoization table.
type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]*cachedCDF
}

// cacheKey identifies one memoized convolved distribution. Window versions
// are globally unique and bumped on every mutation, so equal keys guarantee
// identical window contents even across replica removal/re-addition, and a
// mutation of any of the three windows invalidates the memoized table
// without an explicit flush.
type cacheKey struct {
	replica wire.ReplicaID
	method  string
	sVer    uint64
	wVer    uint64
	tVer    uint64
}

// cachedCDF is the convolved, support-bounded distribution of S+W+T as a CDF
// table.
type cachedCDF struct {
	res  time.Duration // resolution after support bounding (≥ dist.DefaultResolution)
	bins []int64
	cdf  []float64
}

// Predictor computes F_Ri(t) from repository snapshots. It is safe for
// concurrent use. The zero value is not usable; construct with NewPredictor.
type Predictor struct {
	maxSupport int
	queueAware bool

	shards [cacheShardCount]cacheShard
}

// shardFor stripes by the service-window version: versions are globally
// unique and monotonic, so they spread entries evenly and a struct-keyed map
// lookup stays allocation-free (unlike sync.Map, which boxes the key).
func (p *Predictor) shardFor(key cacheKey) *cacheShard {
	return &p.shards[key.sVer&(cacheShardCount-1)]
}

// PredictorOption configures a Predictor.
type PredictorOption func(*Predictor)

// WithQueueAwareWait replaces the paper's windowed W pmf with a model-based
// one: the wait for a request arriving at a queue of length q is the q-fold
// convolution of the service-time pmf (FIFO, one server). This is the A6
// ablation from DESIGN.md, not the paper's formulation. Its tables are not
// memoized (W depends on the live queue length, not just the windows).
func WithQueueAwareWait() PredictorOption {
	return func(p *Predictor) { p.queueAware = true }
}

// NewPredictor returns a configured predictor.
func NewPredictor(opts ...PredictorOption) *Predictor {
	p := &Predictor{maxSupport: defaultMaxSupport}
	for i := range p.shards {
		p.shards[i].m = make(map[cacheKey]*cachedCDF)
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// FlushCache drops every memoized distribution. The scheduler calls it on
// membership changes; it is also the safety valve for any event that could
// otherwise leave stale entries resident (they would never be hit again, but
// would hold memory).
func (p *Predictor) FlushCache() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.m = make(map[cacheKey]*cachedCDF)
		sh.mu.Unlock()
	}
}

// CacheSize returns the number of memoized distributions (for tests and
// introspection).
func (p *Predictor) CacheSize() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// histPMF builds one window's pmf from its histogram: O(k), no map, no sort.
func histPMF(h repository.HistView, what string, id wire.ReplicaID) (*dist.PMF, error) {
	pmf, err := dist.FromCounts(dist.DefaultResolution, h.Bins, h.Counts)
	if err != nil {
		return nil, fmt.Errorf("model: %s pmf for %q: %w", what, id, err)
	}
	return pmf, nil
}

// ResponsePMF computes the pmf of R_i for one replica snapshot. It fails if
// the snapshot has no history (the scheduler's cold-start rule selects all
// replicas instead of predicting).
func (p *Predictor) ResponsePMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	pmf, off, err := p.convolved(snap)
	if err != nil {
		return nil, err
	}
	return pmf.Shift(time.Duration(off) * pmf.Resolution()), nil
}

// convolved runs the S→W→T pipeline for one snapshot and returns the
// support-bounded pmf of R_i up to a bin offset. T is the pmf of the T
// window. When that pmf has one bin — the paper's window of 1 always, a
// longer window on a steady link — convolving it only moves the support, so
// it comes back as off, in bins of the returned pmf's resolution, and the
// caller adds it; the result is the three-factor convolution bit for bit
// without the third pass. A T window with no sample yet is offset 0.
func (p *Predictor) convolved(snap repository.ReplicaSnapshot) (pmf *dist.PMF, off int64, err error) {
	if !snap.HasHistory {
		return nil, 0, fmt.Errorf("model: replica %q has no performance history", snap.ID)
	}
	s, err := histPMF(snap.ServiceHist, "service-time", snap.ID)
	if err != nil {
		return nil, 0, err
	}
	w, err := p.waitPMF(snap, s)
	if err != nil {
		return nil, 0, err
	}
	s, w, err = align(p.bound(s), p.bound(w))
	if err != nil {
		return nil, 0, fmt.Errorf("model: aligning S and W for %q: %w", snap.ID, err)
	}
	sw, err := s.ConvolveDense(w)
	if err != nil {
		return nil, 0, fmt.Errorf("model: convolving S and W for %q: %w", snap.ID, err)
	}
	sw = p.bound(sw)
	switch t := snap.GatewayHist; len(t.Bins) {
	case 0:
		return sw, 0, nil
	case 1:
		// The bin, re-quantized to sw's (possibly coarsened) resolution
		// exactly as align would rebin a one-bin pmf.
		return sw, dist.Quantize(time.Duration(t.Bins[0])*dist.DefaultResolution, sw.Resolution()), nil
	}
	tp, err := histPMF(snap.GatewayHist, "gateway-delay", snap.ID)
	if err != nil {
		return nil, 0, err
	}
	sw, tp, err = align(sw, p.bound(tp))
	if err != nil {
		return nil, 0, fmt.Errorf("model: aligning S+W and T for %q: %w", snap.ID, err)
	}
	swt, err := sw.ConvolveDense(tp)
	if err != nil {
		return nil, 0, fmt.Errorf("model: convolving S+W and T for %q: %w", snap.ID, err)
	}
	return p.bound(swt), 0, nil
}

// waitPMF returns the queuing-delay pmf: the paper's empirical window pmf,
// or the queue-length-aware variant when configured.
func (p *Predictor) waitPMF(snap repository.ReplicaSnapshot, service *dist.PMF) (*dist.PMF, error) {
	if !p.queueAware {
		return histPMF(snap.QueueHist, "queuing-delay", snap.ID)
	}
	// Wait ≈ sum of the service times of the QueueLength requests ahead.
	w, err := dist.PointMass(0, dist.DefaultResolution)
	if err != nil {
		return nil, err
	}
	for i := 0; i < snap.QueueLength; i++ {
		w, err = p.bound(w).ConvolveDense(service)
		if err != nil {
			return nil, fmt.Errorf("model: queue-aware wait for %q: %w", snap.ID, err)
		}
	}
	return w, nil
}

// align rebins the finer-resolution pmf up to the coarser one so the pair
// can be convolved. Bounding may have coarsened the two inputs by different
// power-of-two factors, so one resolution always divides the other.
func align(a, b *dist.PMF) (*dist.PMF, *dist.PMF, error) {
	switch {
	case a.Resolution() == b.Resolution():
		return a, b, nil
	case a.Resolution() < b.Resolution():
		ra, err := a.Rebin(b.Resolution())
		return ra, b, err
	default:
		rb, err := b.Rebin(a.Resolution())
		return a, rb, err
	}
}

// bound rebins a pmf to keep its support below maxSupport.
func (p *Predictor) bound(pmf *dist.PMF) *dist.PMF {
	for pmf.Support() > p.maxSupport {
		rb, err := pmf.Rebin(pmf.Resolution() * 2)
		if err != nil {
			// Doubling a positive resolution cannot fail; guard anyway.
			return pmf
		}
		pmf = rb
	}
	return pmf
}

// buildTable computes a snapshot's convolved distribution as a CDF table.
func (p *Predictor) buildTable(snap repository.ReplicaSnapshot) (*cachedCDF, error) {
	pmf, off, err := p.convolved(snap)
	if err != nil {
		return nil, err
	}
	bins, cdf := pmf.CDFTable()
	for i := range bins {
		bins[i] += off
	}
	return &cachedCDF{res: pmf.Resolution(), bins: bins, cdf: cdf}, nil
}

// Probability computes F_Ri(t): the probability that replica i responds
// within t. Callers compensating for scheduler overhead pass t − δ (§5.3.3).
func (p *Predictor) Probability(snap repository.ReplicaSnapshot, t time.Duration) (float64, error) {
	if p.queueAware {
		pmf, err := p.ResponsePMF(snap)
		if err != nil {
			return 0, err
		}
		return pmf.CDF(t), nil
	}
	key := cacheKey{
		replica: snap.ID,
		method:  snap.Method,
		sVer:    snap.ServiceHist.Version,
		wVer:    snap.QueueHist.Version,
		tVer:    snap.GatewayHist.Version,
	}
	sh := p.shardFor(key)
	sh.mu.RLock()
	entry := sh.m[key]
	sh.mu.RUnlock()
	if entry == nil {
		var err error
		if entry, err = p.buildTable(snap); err != nil {
			return 0, err
		}
		sh.mu.Lock()
		if len(sh.m) >= maxCacheEntries/cacheShardCount {
			sh.m = make(map[cacheKey]*cachedCDF)
		}
		sh.m[key] = entry
		sh.mu.Unlock()
	}
	if t < 0 {
		return 0, nil
	}
	return dist.CDFLookup(entry.bins, entry.cdf, dist.Quantize(t, entry.res)), nil
}

// ReplicaProbability pairs a replica with its predicted F_Ri(t). It is the
// input row of the selection algorithm (the paper's V = <i, F_Ri(t)>).
type ReplicaProbability struct {
	Snapshot    repository.ReplicaSnapshot
	Probability float64
}

// ProbabilityTable computes F_Ri(t) for every snapshot that has history.
// Snapshots without history are returned separately so the scheduler can
// apply the cold-start rule. t should already include the overhead
// compensation if enabled.
func (p *Predictor) ProbabilityTable(snaps []repository.ReplicaSnapshot, t time.Duration) (table []ReplicaProbability, cold []repository.ReplicaSnapshot, err error) {
	return p.ProbabilityTableInto(snaps, t, make([]ReplicaProbability, 0, len(snaps)), nil)
}

// ProbabilityTableInto is ProbabilityTable appending into caller-provided
// buffers (pass them length-zero; they are not reset here), so a caller that
// recycles its buffers pays no allocation once they have grown to capacity —
// the scheduler's per-decision fast path.
func (p *Predictor) ProbabilityTableInto(snaps []repository.ReplicaSnapshot, t time.Duration, table []ReplicaProbability, cold []repository.ReplicaSnapshot) ([]ReplicaProbability, []repository.ReplicaSnapshot, error) {
	for _, s := range snaps {
		if !s.HasHistory {
			cold = append(cold, s)
			continue
		}
		prob, perr := p.Probability(s, t)
		if perr != nil {
			return nil, nil, perr
		}
		table = append(table, ReplicaProbability{Snapshot: s, Probability: prob})
	}
	return table, cold, nil
}

// SubsetProbability evaluates Equation 1: the probability that at least one
// replica in the subset responds by the deadline, assuming independent
// response times: P_K(t) = 1 − ∏_{i∈K} (1 − F_Ri(t)).
func SubsetProbability(probs []float64) float64 {
	failAll := 1.0
	for _, f := range probs {
		g := 1 - f
		if g < 0 {
			g = 0
		}
		failAll *= g
	}
	return 1 - failAll
}
