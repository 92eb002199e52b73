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
// maintained bin-count histograms and are convolved over dense arrays, all in
// buffers that belong to the (replica, method) slot holding the resulting CDF
// table. A slot remembers the three window versions its table was built
// from: a request that finds them unchanged pays one bin lookup, one that
// finds a window moved rebuilds the table in place — a few dozen multiply-adds
// for the paper's windows, no allocation. The paper's formulation — pmfs from
// samples, map convolution, point-mass shift — is the oracle in
// reference_test.go, pinned to this pipeline within 1e-12.
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

type slotKey struct {
	replica wire.ReplicaID
	method  string
}

// slot holds the convolved, support-bounded distribution of S+W+T for one
// (replica, method) as a CDF table, the window versions it was built from,
// and the scratch pmfs the pipeline runs through. Window versions are
// globally unique and bumped on every mutation, so equal versions guarantee
// identical window contents even across replica removal/re-addition.
type slot struct {
	mu               sync.Mutex
	built            bool
	sVer, wVer, tVer uint64
	res              time.Duration // resolution after support bounding (≥ dist.DefaultResolution)
	bins             []int64
	cdf              []float64
	s, w, sw, t, swt dist.PMF // scratch
}

// Predictor computes F_Ri(t) from repository snapshots. It is safe for
// concurrent use. The zero value is not usable; construct with NewPredictor.
type Predictor struct {
	maxSupport int
	queueAware bool
	mu         sync.RWMutex // guards the map; each slot has its own lock
	slots      map[slotKey]*slot
}

// PredictorOption configures a Predictor.
type PredictorOption func(*Predictor)

// WithQueueAwareWait replaces the paper's windowed W pmf with a model-based
// one: the wait for a request arriving at a queue of length q is the q-fold
// convolution of the service-time pmf (FIFO, one server). This is the A6
// ablation from DESIGN.md, not the paper's formulation. Its tables are not
// kept (W depends on the live queue length, not just the windows).
func WithQueueAwareWait() PredictorOption {
	return func(p *Predictor) { p.queueAware = true }
}

// NewPredictor returns a configured predictor.
func NewPredictor(opts ...PredictorOption) *Predictor {
	p := &Predictor{maxSupport: defaultMaxSupport, slots: make(map[slotKey]*slot)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// FlushCache drops every slot. The scheduler calls it on membership changes,
// so a departed replica's table and scratch do not stay resident.
func (p *Predictor) FlushCache() {
	p.mu.Lock()
	p.slots = make(map[slotKey]*slot)
	p.mu.Unlock()
}

// CacheSize returns the number of slots: one per (replica, method) predicted
// since the last flush (for tests and introspection).
func (p *Predictor) CacheSize() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.slots)
}

// slotFor returns the slot of snap's (replica, method), created on first use.
func (p *Predictor) slotFor(snap *repository.ReplicaSnapshot) *slot {
	if p.queueAware {
		return &slot{} // W follows the live queue length: nothing to keep
	}
	key := slotKey{replica: snap.ID, method: snap.Method}
	p.mu.RLock()
	sl := p.slots[key]
	p.mu.RUnlock()
	if sl == nil {
		p.mu.Lock()
		if sl = p.slots[key]; sl == nil {
			sl = &slot{}
			p.slots[key] = sl
		}
		p.mu.Unlock()
	}
	return sl
}

// ResponsePMF computes the pmf of R_i for one replica snapshot. It fails if
// the snapshot has no history (the scheduler's cold-start rule selects all
// replicas instead of predicting).
func (p *Predictor) ResponsePMF(snap repository.ReplicaSnapshot) (*dist.PMF, error) {
	pmf, off, err := p.convolved(&slot{}, &snap)
	if err != nil {
		return nil, err
	}
	return pmf.Shift(time.Duration(off) * pmf.Resolution()), nil
}

// convolved runs the S→W→T pipeline for one snapshot through sl's scratch
// pmfs and returns the support-bounded pmf of R_i (one of them) up to a bin
// offset. T is the pmf of the T window. When that pmf has one bin — the
// paper's window of 1 always, a longer window on a steady link — convolving
// it only moves the support, so it comes back as off, in bins of the returned
// pmf's resolution, and the caller adds it: the three-factor convolution bit
// for bit without the third pass. A T window with no sample yet is offset 0.
func (p *Predictor) convolved(sl *slot, snap *repository.ReplicaSnapshot) (pmf *dist.PMF, off int64, err error) {
	if !snap.HasHistory {
		return nil, 0, fmt.Errorf("model: replica %q has no performance history", snap.ID)
	}
	if err := setHist(&sl.s, snap.ServiceHist, "service-time", snap.ID); err != nil {
		return nil, 0, err
	}
	if err := p.setWait(sl, snap); err != nil {
		return nil, 0, err
	}
	if err := p.sum(&sl.sw, &sl.s, &sl.w); err != nil {
		return nil, 0, fmt.Errorf("model: convolving S and W for %q: %w", snap.ID, err)
	}
	switch t := snap.GatewayHist; len(t.Bins) {
	case 0:
		return &sl.sw, 0, nil
	case 1:
		// The bin, re-quantized to sw's (possibly coarsened) resolution
		// exactly as aligning a one-bin pmf to it would.
		return &sl.sw, dist.Quantize(time.Duration(t.Bins[0])*dist.DefaultResolution, sl.sw.Resolution()), nil
	}
	if err := setHist(&sl.t, snap.GatewayHist, "gateway-delay", snap.ID); err != nil {
		return nil, 0, err
	}
	if err := p.sum(&sl.swt, &sl.sw, &sl.t); err != nil {
		return nil, 0, fmt.Errorf("model: convolving S+W and T for %q: %w", snap.ID, err)
	}
	return &sl.swt, 0, nil
}

// setHist loads one window's pmf from its histogram: O(k), no map, no sort.
func setHist(dst *dist.PMF, h repository.HistView, what string, id wire.ReplicaID) error {
	if err := dst.SetCounts(dist.DefaultResolution, h.Bins, h.Counts); err != nil {
		return fmt.Errorf("model: %s pmf for %q: %w", what, id, err)
	}
	return nil
}

// setWait loads sl.w with the queuing-delay pmf: the paper's empirical window
// pmf, or the queue-length-aware variant when configured (from sl.s, not yet
// bounded).
func (p *Predictor) setWait(sl *slot, snap *repository.ReplicaSnapshot) error {
	if !p.queueAware {
		return setHist(&sl.w, snap.QueueHist, "queuing-delay", snap.ID)
	}
	// Wait ≈ sum of the service times of the QueueLength requests ahead.
	w, next := &sl.w, &sl.t
	if err := w.SetCounts(dist.DefaultResolution, []int64{0}, []int{1}); err != nil {
		return err
	}
	for i := 0; i < snap.QueueLength; i++ {
		p.bound(w)
		if err := next.SetConvolution(w, &sl.s); err != nil {
			return fmt.Errorf("model: queue-aware wait for %q: %w", snap.ID, err)
		}
		w, next = next, w
	}
	if w != &sl.w {
		sl.w, sl.t = sl.t, sl.w
	}
	return nil
}

// sum sets dst to the support-bounded pmf of a+b. It bounds a and b in place
// first; bounding may coarsen the two by different power-of-two factors, so
// the finer is then rebinned up to the coarser.
func (p *Predictor) sum(dst, a, b *dist.PMF) error {
	p.bound(a)
	p.bound(b)
	var err error
	if a.Resolution() < b.Resolution() {
		err = a.Coarsen(b.Resolution())
	} else if b.Resolution() < a.Resolution() {
		err = b.Coarsen(a.Resolution())
	}
	if err == nil {
		err = dst.SetConvolution(a, b)
	}
	p.bound(dst)
	return err
}

// bound coarsens a pmf in place until its support is below maxSupport.
// Doubling a positive resolution cannot fail.
func (p *Predictor) bound(pmf *dist.PMF) {
	for pmf.Support() > p.maxSupport {
		_ = pmf.Coarsen(pmf.Resolution() * 2)
	}
}

// rebuild recomputes sl's CDF table from snap. Caller holds sl.mu.
func (p *Predictor) rebuild(sl *slot, snap *repository.ReplicaSnapshot) error {
	sl.built = false
	pmf, off, err := p.convolved(sl, snap)
	if err != nil {
		return err
	}
	sl.res = pmf.Resolution()
	sl.bins, sl.cdf = pmf.AppendCDFTable(sl.bins[:0], sl.cdf[:0])
	for i := range sl.bins {
		sl.bins[i] += off
	}
	sl.sVer, sl.wVer, sl.tVer = snap.ServiceHist.Version, snap.QueueHist.Version, snap.GatewayHist.Version
	sl.built = true
	return nil
}

// Probability computes F_Ri(t): the probability that replica i responds
// within t. Callers compensating for scheduler overhead pass t − δ (§5.3.3).
func (p *Predictor) Probability(snap repository.ReplicaSnapshot, t time.Duration) (float64, error) {
	return p.probability(&snap, t)
}

func (p *Predictor) probability(snap *repository.ReplicaSnapshot, t time.Duration) (float64, error) {
	sl := p.slotFor(snap)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.built || sl.sVer != snap.ServiceHist.Version || sl.wVer != snap.QueueHist.Version || sl.tVer != snap.GatewayHist.Version {
		if err := p.rebuild(sl, snap); err != nil {
			return 0, err
		}
	}
	if t < 0 {
		return 0, nil
	}
	return dist.CDFLookup(sl.bins, sl.cdf, dist.Quantize(t, sl.res)), nil
}

// ReplicaProbability pairs a replica with its predicted F_Ri(t). It is the
// input row of the selection algorithm (the paper's V = <i, F_Ri(t)>), plus
// the replica-reported queue length that load-conditioned selection reads and
// the outstanding work that breaks ties between equal F_Ri(t).
type ReplicaProbability struct {
	ID          wire.ReplicaID
	QueueLength int
	Probability float64
	// Work is this gateway's outstanding work at the replica: its unsettled
	// copies (ReplicaSnapshot.InFlight) times its median service-time bin
	// for the method. It is 0 when nothing is in flight or the median
	// service time quantizes to 0.
	Work time.Duration
}

// ranksBefore is the rank order of a probability table: decreasing F_Ri(t),
// ties broken by ascending Work, then by ascending replica ID. IDs are
// unique, so it is a total order. Equation 1 depends only on the multiset of
// F_Ri(t) in a prefix, so the tie order changes which replicas K names, never
// its size or P_K(t).
func ranksBefore(a, b *ReplicaProbability) bool {
	if a.Probability != b.Probability {
		return a.Probability > b.Probability
	}
	if a.Work != b.Work {
		return a.Work < b.Work
	}
	return a.ID < b.ID
}

// ProbabilityTable computes F_Ri(t) for every snapshot that has history and
// returns the rows in rank order (decreasing F_Ri(t), ties by ascending Work,
// then ID): the sorted list Algorithm 1 starts from. Snapshots without
// history are returned separately, in input order, so the scheduler can
// apply the cold-start rule. t should already include the overhead
// compensation if enabled.
func (p *Predictor) ProbabilityTable(snaps []repository.ReplicaSnapshot, t time.Duration) (table []ReplicaProbability, cold []repository.ReplicaSnapshot, err error) {
	return p.ProbabilityTableInto(snaps, t, make([]ReplicaProbability, 0, len(snaps)), nil)
}

// ProbabilityTableInto is ProbabilityTable appending into caller-provided
// buffers (pass them length-zero; they are not reset here), so a caller that
// recycles its buffers pays no allocation once they have grown to capacity —
// the scheduler's per-decision fast path. The rows this call appends are
// ranked among themselves: each is inserted into place as it is appended, so
// ranking costs no allocation and no second pass.
func (p *Predictor) ProbabilityTableInto(snaps []repository.ReplicaSnapshot, t time.Duration, table []ReplicaProbability, cold []repository.ReplicaSnapshot) ([]ReplicaProbability, []repository.ReplicaSnapshot, error) {
	base := len(table)
	for i := range snaps {
		s := &snaps[i]
		if !s.HasHistory {
			cold = append(cold, *s)
			continue
		}
		prob, perr := p.probability(s, t)
		if perr != nil {
			return nil, nil, perr
		}
		row := ReplicaProbability{ID: s.ID, QueueLength: s.QueueLength, Probability: prob}
		if s.InFlight > 0 {
			bin, _ := s.ServiceHist.MedianBin()
			row.Work = time.Duration(int64(s.InFlight)*bin) * dist.DefaultResolution
		}
		j := len(table)
		table = append(table, row)
		for ; j > base && ranksBefore(&row, &table[j-1]); j-- {
			table[j] = table[j-1]
		}
		table[j] = row
	}
	return table, cold, nil
}

// SubsetProbability evaluates Equation 1 over table rows: the probability that
// at least one replica in the subset responds by the deadline, assuming
// independent response times: P_K(t) = 1 − ∏_{i∈K} (1 − F_Ri(t)). The factors
// are multiplied in row order.
func SubsetProbability(rows []ReplicaProbability) float64 {
	failAll := 1.0
	for i := range rows {
		g := 1 - rows[i].Probability
		if g < 0 {
			g = 0
		}
		failAll *= g
	}
	return 1 - failAll
}
