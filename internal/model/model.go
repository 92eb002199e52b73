// Package model implements the paper's online response-time model (§5.3.1).
//
// For a replica i, the response time is R_i = S_i + W_i + T_i. S_i and W_i
// are empirical pmfs over the sliding-window measurements in the gateway
// information repository; T_i is the per-link gateway-to-gateway delay. With
// the paper's configuration T_i is a point mass at the most recent
// measurement; with a gateway-delay history window (the WAN extension) it is
// an empirical pmf convolved as a third factor, so a bimodal link's
// congested mode keeps its probability mass instead of being forgotten the
// moment one calm sample arrives. F_Ri(t), the probability that replica i
// responds within t, is the CDF of the discrete convolution of the three.
// Equation 1 combines per-replica probabilities into the probability that a
// subset produces at least one timely response.
//
// The model's cost is the paper's own overhead term δ (§5.3.3), so the
// package keeps two arithmetically equivalent implementations:
//
//   - a reference path that rebuilds map-backed pmfs from the raw window
//     samples on every call (the original formulation, kept under test);
//   - a fast path that consumes the repository's incrementally maintained
//     bin-count histograms (dist.FromCounts), convolves over dense arrays
//     (dist.ConvolveDense), and memoizes each replica's convolved S+W CDF
//     table keyed by the window versions, so back-to-back requests with an
//     unchanged window reuse the cached F_Ri(t) at the cost of two bin
//     lookups.
//
// The fast path engages automatically when a snapshot carries histograms at
// the predictor's resolution; equivalence tests pin it to the reference path
// within 1e-12.
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
// identical window contents even across replica removal/re-addition. tVer is
// 0 when T is a point mass (the shift-at-lookup special case: the entry
// ignores T, so it survives T fluctuations); for a distributional T it is
// the gateway window's version, so a T mutation invalidates the memoized
// table without any explicit flush.
type cacheKey struct {
	replica wire.ReplicaID
	method  string
	sVer    uint64
	wVer    uint64
	tVer    uint64
}

// cachedCDF is a convolved, support-bounded distribution as a CDF table:
// S+W when T is a point mass (the gateway-delay shift is applied at lookup
// time — a point mass only offsets bins — so the entry stays valid while T
// fluctuates), S+W+T when T is distributional (keyed by tVer).
type cachedCDF struct {
	res  time.Duration // resolution after support bounding (≥ predictor resolution)
	bins []int64
	cdf  []float64
}

// Predictor computes F_Ri(t) from repository snapshots. It is safe for
// concurrent use. The zero value is not usable; construct with NewPredictor.
type Predictor struct {
	resolution    time.Duration
	maxSupport    int
	queueAware    bool
	referenceOnly bool

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

// WithResolution sets the pmf bin width (default dist.DefaultResolution).
func WithResolution(res time.Duration) PredictorOption {
	return func(p *Predictor) { p.resolution = res }
}

// WithMaxSupport caps pmf support size during convolution.
func WithMaxSupport(n int) PredictorOption {
	return func(p *Predictor) { p.maxSupport = n }
}

// WithQueueAwareWait replaces the paper's windowed W pmf with a model-based
// one: the wait for a request arriving at a queue of length q is the q-fold
// convolution of the service-time pmf (FIFO, one server). This is the A6
// ablation from DESIGN.md, not the paper's formulation. The fast path does
// not apply (W depends on the live queue length, not just the windows).
func WithQueueAwareWait() PredictorOption {
	return func(p *Predictor) { p.queueAware = true }
}

// WithReferencePath forces the original map-based formulation: pmfs rebuilt
// from raw samples, map convolution, no memoization. It stays a production
// option for two callers: experiment.RunFig3 reproduces the paper's
// per-request pmf rebuild with it, and the model equivalence fences
// (fastpath_test.go, digest_equivalence_test.go) use it as the 1e-12
// reference.
func WithReferencePath() PredictorOption {
	return func(p *Predictor) { p.referenceOnly = true }
}

// NewPredictor returns a configured predictor.
func NewPredictor(opts ...PredictorOption) *Predictor {
	p := &Predictor{
		resolution: dist.DefaultResolution,
		maxSupport: defaultMaxSupport,
	}
	for i := range p.shards {
		p.shards[i].m = make(map[cacheKey]*cachedCDF)
	}
	for _, o := range opts {
		o(p)
	}
	if p.resolution <= 0 {
		p.resolution = dist.DefaultResolution
	}
	if p.maxSupport < 16 {
		p.maxSupport = 16
	}
	return p
}

// Resolution returns the pmf bin width used by the predictor.
func (p *Predictor) Resolution() time.Duration { return p.resolution }

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

// fastEligible reports whether the snapshot can take the histogram fast
// path: matching resolution, both histograms present, plain windowed W, and
// a non-negative gateway delay (Shift's clamp-at-zero merging only occurs
// for negative shifts, which the fast lookup does not model). A
// distributional T additionally needs its own histogram — without one the
// memo key has no T version to invalidate on.
func (p *Predictor) fastEligible(snap repository.ReplicaSnapshot) bool {
	return !p.referenceOnly && !p.queueAware &&
		snap.HasHistory &&
		snap.Resolution == p.resolution &&
		snap.ServiceHist.OK() && snap.QueueHist.OK() &&
		snap.GatewayDelay >= 0 &&
		(!distributionalT(snap) || snap.GatewayHist.OK())
}

// distributionalT reports whether the snapshot's T window holds more than
// one sample. If so, T enters the model as an empirical pmf (convolved third
// factor); otherwise it is the paper's point mass at GatewayDelay. Both the
// fast and reference paths branch on this same predicate, so they cannot
// disagree about which model a snapshot gets.
func distributionalT(snap repository.ReplicaSnapshot) bool {
	return len(snap.GatewayDelays) > 1
}

// gatewayPMF builds the empirical T pmf, from the incremental histogram when
// it is usable at the predictor's resolution and from the raw samples
// otherwise.
func (p *Predictor) gatewayPMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	if !p.referenceOnly && snap.Resolution == p.resolution && snap.GatewayHist.OK() {
		tp, err := dist.FromCounts(p.resolution, snap.GatewayHist.Bins, snap.GatewayHist.Counts)
		if err != nil {
			return nil, fmt.Errorf("model: gateway-delay pmf for %q: %w", snap.ID, err)
		}
		return tp, nil
	}
	tp, err := dist.FromSamples(snap.GatewayDelays, p.resolution)
	if err != nil {
		return nil, fmt.Errorf("model: gateway-delay pmf for %q: %w", snap.ID, err)
	}
	return tp, nil
}

// inputPMFs builds the S and W pmfs for a snapshot, from the incremental
// histograms when available (O(k), no map, no sort) and from the raw samples
// otherwise.
func (p *Predictor) inputPMFs(snap repository.ReplicaSnapshot) (s, w *dist.PMF, err error) {
	if !p.referenceOnly && snap.Resolution == p.resolution && snap.ServiceHist.OK() {
		s, err = dist.FromCounts(p.resolution, snap.ServiceHist.Bins, snap.ServiceHist.Counts)
	} else {
		s, err = dist.FromSamples(snap.ServiceTimes, p.resolution)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("model: service-time pmf for %q: %w", snap.ID, err)
	}
	w, err = p.waitPMF(snap, s)
	if err != nil {
		return nil, nil, err
	}
	return s, w, nil
}

// ResponsePMF computes the pmf of R_i for one replica snapshot. It fails if
// the snapshot has no history (the scheduler's cold-start rule selects all
// replicas instead of predicting).
func (p *Predictor) ResponsePMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	if !snap.HasHistory {
		return nil, fmt.Errorf("model: replica %q has no performance history", snap.ID)
	}
	pmf, err := p.convolvedPMF(snap)
	if err != nil {
		return nil, err
	}
	if distributionalT(snap) {
		return pmf, nil
	}
	// T is a point mass at the most recent gateway delay, so the final
	// convolution is a shift.
	return pmf.Shift(snap.GatewayDelay), nil
}

// convolvedPMF runs the S→W→(T) pipeline for one snapshot: the
// support-bounded pmf of S+W, with the empirical per-link T pmf convolved in
// as a third factor when T is distributional (the WAN extension). A
// point-mass T is left to the caller: ResponsePMF shifts by it, the memoized
// table applies it at lookup.
func (p *Predictor) convolvedPMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	s, w, err := p.inputPMFs(snap)
	if err != nil {
		return nil, err
	}
	s, w = p.bound(s), p.bound(w)
	s, w, err = align(s, w)
	if err != nil {
		return nil, fmt.Errorf("model: aligning S and W for %q: %w", snap.ID, err)
	}
	sw, err := p.convolve(s, w)
	if err != nil {
		return nil, fmt.Errorf("model: convolving S and W for %q: %w", snap.ID, err)
	}
	sw = p.bound(sw)
	if !distributionalT(snap) {
		return sw, nil
	}
	tp, err := p.gatewayPMF(snap)
	if err != nil {
		return nil, err
	}
	sw, tp, err = align(sw, p.bound(tp))
	if err != nil {
		return nil, fmt.Errorf("model: aligning S+W and T for %q: %w", snap.ID, err)
	}
	swt, err := p.convolve(sw, tp)
	if err != nil {
		return nil, fmt.Errorf("model: convolving S+W and T for %q: %w", snap.ID, err)
	}
	return p.bound(swt), nil
}

// convolve dispatches between the dense fast convolution and the map-based
// reference implementation.
func (p *Predictor) convolve(s, w *dist.PMF) (*dist.PMF, error) {
	if p.referenceOnly {
		return s.Convolve(w)
	}
	return s.ConvolveDense(w)
}

// waitPMF returns the queuing-delay pmf: the paper's empirical window pmf,
// or the queue-length-aware variant when configured.
func (p *Predictor) waitPMF(snap repository.ReplicaSnapshot, service *dist.PMF) (*dist.PMF, error) {
	if !p.queueAware {
		if !p.referenceOnly && snap.Resolution == p.resolution && snap.QueueHist.OK() {
			w, err := dist.FromCounts(p.resolution, snap.QueueHist.Bins, snap.QueueHist.Counts)
			if err != nil {
				return nil, fmt.Errorf("model: queuing-delay pmf for %q: %w", snap.ID, err)
			}
			return w, nil
		}
		w, err := dist.FromSamples(snap.QueueDelays, p.resolution)
		if err != nil {
			return nil, fmt.Errorf("model: queuing-delay pmf for %q: %w", snap.ID, err)
		}
		return w, nil
	}
	// Wait ≈ sum of the service times of the QueueLength requests ahead.
	w, err := dist.PointMass(0, p.resolution)
	if err != nil {
		return nil, err
	}
	for i := 0; i < snap.QueueLength; i++ {
		w, err = p.convolve(p.bound(w), service)
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

// buildSW computes the support-bounded S+W distribution for a fast-eligible
// snapshot — S+W+T when T is distributional — and returns it as a CDF table.
func (p *Predictor) buildSW(snap repository.ReplicaSnapshot) (*cachedCDF, error) {
	sw, err := p.convolvedPMF(snap)
	if err != nil {
		return nil, err
	}
	bins, cdf := sw.CDFTable()
	return &cachedCDF{res: sw.Resolution(), bins: bins, cdf: cdf}, nil
}

// fastProbability evaluates F_Ri(t) via the memoized CDF table. ok is false
// when the snapshot is not fast-eligible; the caller then takes the
// reference route.
func (p *Predictor) fastProbability(snap repository.ReplicaSnapshot, t time.Duration) (v float64, ok bool, err error) {
	if !p.fastEligible(snap) {
		return 0, false, nil
	}
	key := cacheKey{replica: snap.ID, method: snap.Method, sVer: snap.ServiceHist.Version, wVer: snap.QueueHist.Version}
	dT := distributionalT(snap)
	if dT {
		key.tVer = snap.GatewayHist.Version
	}
	sh := p.shardFor(key)
	sh.mu.RLock()
	entry := sh.m[key]
	sh.mu.RUnlock()
	if entry == nil {
		entry, err = p.buildSW(snap)
		if err != nil {
			return 0, false, err
		}
		sh.mu.Lock()
		if len(sh.m) >= maxCacheEntries/cacheShardCount {
			sh.m = make(map[cacheKey]*cachedCDF)
		}
		sh.m[key] = entry
		sh.mu.Unlock()
	}
	if t < 0 {
		return 0, true, nil
	}
	target := dist.Quantize(t, entry.res)
	if !dT {
		// Shifting by the point mass T offsets every support bin by
		// Quantize(T); evaluating the shifted CDF at t is a lookup at
		// Quantize(t) − Quantize(T) on the unshifted table. (A distributional
		// T is already convolved into the cached table.)
		target -= dist.Quantize(snap.GatewayDelay, entry.res)
	}
	return dist.CDFLookup(entry.bins, entry.cdf, target), true, nil
}

// Probability computes F_Ri(t): the probability that replica i responds
// within t. Callers compensating for scheduler overhead pass t − δ (§5.3.3).
func (p *Predictor) Probability(snap repository.ReplicaSnapshot, t time.Duration) (float64, error) {
	if v, ok, err := p.fastProbability(snap, t); err != nil {
		return 0, err
	} else if ok {
		return v, nil
	}
	pmf, err := p.ResponsePMF(snap)
	if err != nil {
		return 0, err
	}
	return pmf.CDF(t), nil
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
