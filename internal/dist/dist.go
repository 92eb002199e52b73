// Package dist implements the discrete probability machinery behind the
// paper's response-time model (§5.3.1): empirical probability mass functions
// built from sliding-window measurements, discrete convolution, and
// distribution-function evaluation.
//
// A replica's response time is modelled as R = S + W + T, where S (service
// time) and W (queuing delay) have empirical pmfs computed from the relative
// frequency of recent measurements and T (two-way gateway-to-gateway delay)
// is a point mass at its most recent value. The pmf of R is the discrete
// convolution of the three; F_R(t) is its CDF.
//
// Support points are quantized to a fixed resolution so convolution stays
// exact and compact: a pmf with resolution r has support {k*r : k ∈ ℤ≥0}.
package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// DefaultResolution is the bin width used by the response-time model unless
// configured otherwise. One millisecond matches the measurement granularity
// of the paper's testbed.
const DefaultResolution = time.Millisecond

// probEpsilon bounds the tolerated drift of total probability mass away
// from 1 before Normalize clamps it back.
const probEpsilon = 1e-9

// PMF is a discrete probability mass function over non-negative durations
// quantized to a fixed resolution. The zero value holds no distribution:
// construct with FromSamples, PointMass, or FromBins, or fill a PMF in place
// with SetCounts or SetConvolution, which reuse its buffers.
type PMF struct {
	res  time.Duration
	bins []int64   // sorted ascending, support point = bins[i] * res
	prob []float64 // parallel to bins, each > 0, sums to ~1
	acc  []float64 // SetConvolution's dense scratch, kept between calls
}

// FromSamples builds an empirical pmf from measurement samples: each sample
// is quantized to the resolution and contributes relative frequency 1/n,
// exactly as the paper computes pmfs "based on the relative frequency of
// their values recorded in the sliding window".
func FromSamples(samples []time.Duration, res time.Duration) (*PMF, error) {
	if res <= 0 {
		return nil, fmt.Errorf("dist: resolution must be positive, got %v", res)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("dist: cannot build pmf from zero samples")
	}
	counts := make(map[int64]int, len(samples))
	for _, s := range samples {
		counts[quantize(s, res)]++
	}
	bins := make([]int64, 0, len(counts))
	for b := range counts {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	prob := make([]float64, len(bins))
	n := float64(len(samples))
	for i, b := range bins {
		prob[i] = float64(counts[b]) / n
	}
	return &PMF{res: res, bins: bins, prob: prob}, nil
}

// PointMass returns the degenerate pmf concentrated at v (quantized). It is
// how the model represents the most recent gateway-to-gateway delay T.
func PointMass(v time.Duration, res time.Duration) (*PMF, error) {
	if res <= 0 {
		return nil, fmt.Errorf("dist: resolution must be positive, got %v", res)
	}
	return &PMF{res: res, bins: []int64{quantize(v, res)}, prob: []float64{1}}, nil
}

// FromBins builds a pmf directly from (bin, probability) pairs. Probabilities
// must be non-negative and sum to 1 within a small tolerance. It is intended
// for tests and synthetic workloads.
func FromBins(res time.Duration, bins map[int64]float64) (*PMF, error) {
	if res <= 0 {
		return nil, fmt.Errorf("dist: resolution must be positive, got %v", res)
	}
	if len(bins) == 0 {
		return nil, fmt.Errorf("dist: cannot build pmf from zero bins")
	}
	keys := make([]int64, 0, len(bins))
	var total float64
	for b, p := range bins {
		if p < 0 {
			return nil, fmt.Errorf("dist: negative probability %v at bin %d", p, b)
		}
		if p > 0 {
			keys = append(keys, b)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("dist: probabilities sum to %v, want 1", total)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	prob := make([]float64, len(keys))
	for i, b := range keys {
		prob[i] = bins[b] / total
	}
	return &PMF{res: res, bins: keys, prob: prob}, nil
}

// SetCounts makes p the empirical pmf of an already-quantized histogram,
// reusing p's buffers: bins must be strictly increasing and counts positive,
// as maintained incrementally by window.Window. Probabilities are count/total,
// exactly what FromSamples computes for the same samples, but in O(k) with no
// map, no sort and, once p's buffers have grown, no allocation.
func (p *PMF) SetCounts(res time.Duration, bins []int64, counts []int) error {
	if res <= 0 {
		return fmt.Errorf("dist: resolution must be positive, got %v", res)
	}
	if len(bins) == 0 || len(bins) != len(counts) {
		return fmt.Errorf("dist: need matching non-empty bins/counts, got %d/%d", len(bins), len(counts))
	}
	var total int
	for i, c := range counts {
		if c <= 0 {
			return fmt.Errorf("dist: non-positive count %d at bin %d", c, bins[i])
		}
		if i > 0 && bins[i] <= bins[i-1] {
			return fmt.Errorf("dist: bins not strictly increasing at index %d", i)
		}
		total += c
	}
	p.res = res
	p.bins = append(p.bins[:0], bins...)
	p.prob = p.prob[:0]
	n := float64(total)
	for _, c := range counts {
		p.prob = append(p.prob, float64(c)/n)
	}
	return nil
}

// quantize maps a duration to its bin index, rounding to nearest and
// clamping negatives to zero (delays are physically non-negative).
func quantize(d, res time.Duration) int64 {
	if b := quantizeSigned(d, res); b > 0 {
		return b
	}
	return 0
}

// quantizeSigned maps a duration to its bin index, rounding half away from
// zero, without clamping. It is the one place signed rounding happens, so
// Shift and quantize cannot disagree about where bin boundaries fall.
func quantizeSigned(d, res time.Duration) int64 {
	if d < 0 {
		return -int64((-d + res/2) / res)
	}
	return int64((d + res/2) / res)
}

// Quantize exposes the pmf bin mapping: the index of the bin a duration
// falls in at the given resolution (rounding to nearest, negatives clamped
// to bin 0). Callers that maintain incremental histograms (internal/window)
// must use this so their bins coincide exactly with FromSamples.
func Quantize(d, res time.Duration) int64 { return quantize(d, res) }

// Resolution returns the bin width.
func (p *PMF) Resolution() time.Duration { return p.res }

// Support returns the number of support points.
func (p *PMF) Support() int { return len(p.bins) }

// Mass returns the total probability mass (≈1; exposed for invariant tests).
func (p *PMF) Mass() float64 {
	var m float64
	for _, pr := range p.prob {
		m += pr
	}
	return m
}

// Convolve returns the pmf of the sum of two independent random variables
// with pmfs p and q. Both must share the same resolution.
func (p *PMF) Convolve(q *PMF) (*PMF, error) {
	if p.res != q.res {
		return nil, fmt.Errorf("dist: resolution mismatch %v vs %v", p.res, q.res)
	}
	acc := make(map[int64]float64, len(p.bins)*len(q.bins))
	for i, bi := range p.bins {
		for j, bj := range q.bins {
			acc[bi+bj] += p.prob[i] * q.prob[j]
		}
	}
	bins := make([]int64, 0, len(acc))
	for b := range acc {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	prob := make([]float64, len(bins))
	for i, b := range bins {
		prob[i] = acc[b]
	}
	return &PMF{res: p.res, bins: bins, prob: prob}, nil
}

// maxDenseCells bounds the scratch array SetConvolution may allocate. Support
// ranges wider than this (pathological resolution/range combinations) fall
// back to the map-based path rather than allocating tens of megabytes.
const maxDenseCells = 1 << 22

// SetConvolution makes p the pmf a.Convolve(b) returns, reusing p's buffers:
// a dense scratch array indexed by output bin instead of a map, and no sort —
// output bins come out in ascending order by construction. It is the selection
// hot path; Convolve remains the reference. p must be neither a nor b.
func (p *PMF) SetConvolution(a, b *PMF) error {
	if a.res != b.res {
		return fmt.Errorf("dist: resolution mismatch %v vs %v", a.res, b.res)
	}
	lo := a.bins[0] + b.bins[0]
	hi := a.bins[len(a.bins)-1] + b.bins[len(b.bins)-1]
	if hi-lo+1 > maxDenseCells {
		r, err := a.Convolve(b)
		if err != nil {
			return err
		}
		p.res, p.bins, p.prob = r.res, r.bins, r.prob
		return nil
	}
	p.acc = slices.Grow(p.acc[:0], int(hi-lo+1))[:hi-lo+1]
	clear(p.acc)
	for i, bi := range a.bins {
		pi := a.prob[i]
		row := p.acc[bi-a.bins[0]:]
		for j, bj := range b.bins {
			row[bj-b.bins[0]] += pi * b.prob[j]
		}
	}
	p.res, p.bins, p.prob = a.res, p.bins[:0], p.prob[:0]
	for k, v := range p.acc {
		if v > 0 {
			p.bins = append(p.bins, lo+int64(k))
			p.prob = append(p.prob, v)
		}
	}
	return nil
}

// AppendCDFTable appends the support bins and the running CDF (prefix sums
// of probability) in ascending order to the given buffers (pass them
// length-zero) and returns them. The prefix is accumulated left to right,
// exactly the order CDF sums, so a CDFLookup on the table bit-matches a CDF
// call on the pmf.
func (p *PMF) AppendCDFTable(bins []int64, cdf []float64) ([]int64, []float64) {
	bins = append(bins, p.bins...)
	var acc float64
	for _, pr := range p.prob {
		acc += pr
		cdf = append(cdf, acc)
	}
	return bins, cdf
}

// CDFLookup evaluates a (bins, cdf) table from AppendCDFTable at bin index
// tb: the CDF value at the largest support bin ≤ tb, clamped to [0, 1].
func CDFLookup(bins []int64, cdf []float64, tb int64) float64 {
	idx := sort.Search(len(bins), func(i int) bool { return bins[i] > tb }) - 1
	if idx < 0 {
		return 0
	}
	if f := cdf[idx]; f < 1 {
		return f
	}
	return 1
}

// Shift returns the pmf of X + d (d may be negative; support clamps at 0).
func (p *PMF) Shift(d time.Duration) *PMF {
	off := quantizeSigned(d, p.res)
	acc := make(map[int64]float64, len(p.bins))
	for i, b := range p.bins {
		nb := b + off
		if nb < 0 {
			nb = 0
		}
		acc[nb] += p.prob[i]
	}
	bins := make([]int64, 0, len(acc))
	for b := range acc {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	prob := make([]float64, len(bins))
	for i, b := range bins {
		prob[i] = acc[b]
	}
	return &PMF{res: p.res, bins: bins, prob: prob}
}

// CDF evaluates F(t) = P(X <= t).
func (p *PMF) CDF(t time.Duration) float64 {
	if t < 0 {
		return 0
	}
	// A support point k*res represents measurements in [k*res - res/2,
	// k*res + res/2); a value counts as <= t when its bin center is <= t's
	// bin, mirroring quantization on construction.
	tb := quantize(t, p.res)
	var f float64
	for i, b := range p.bins {
		if b > tb {
			break
		}
		f += p.prob[i]
	}
	if f > 1 {
		f = 1
	}
	return f
}

// Mean returns the expected value.
func (p *PMF) Mean() time.Duration {
	var m float64
	for i, b := range p.bins {
		m += float64(b) * p.prob[i]
	}
	return time.Duration(m * float64(p.res))
}

// Variance returns the variance in seconds².
func (p *PMF) Variance() float64 {
	mean := p.Mean().Seconds()
	var v float64
	for i, b := range p.bins {
		x := (time.Duration(b) * p.res).Seconds()
		v += p.prob[i] * (x - mean) * (x - mean)
	}
	return v
}

// Quantile returns the smallest support value v with F(v) >= q, for
// q ∈ (0, 1].
func (p *PMF) Quantile(q float64) (time.Duration, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("dist: quantile %v out of range (0,1]", q)
	}
	var acc float64
	for i, b := range p.bins {
		acc += p.prob[i]
		if acc >= q-probEpsilon {
			return time.Duration(b) * p.res, nil
		}
	}
	// Floating error can leave acc slightly below q; the max support point
	// is the correct answer.
	return time.Duration(p.bins[len(p.bins)-1]) * p.res, nil
}

// Min returns the smallest support value.
func (p *PMF) Min() time.Duration { return time.Duration(p.bins[0]) * p.res }

// Max returns the largest support value.
func (p *PMF) Max() time.Duration { return time.Duration(p.bins[len(p.bins)-1]) * p.res }

// Points returns the support as (value, probability) pairs in ascending
// order. The slices are freshly allocated.
func (p *PMF) Points() ([]time.Duration, []float64) {
	vs := make([]time.Duration, len(p.bins))
	ps := make([]float64, len(p.bins))
	for i, b := range p.bins {
		vs[i] = time.Duration(b) * p.res
		ps[i] = p.prob[i]
	}
	return vs, ps
}

// Rebin returns an equivalent pmf at a coarser resolution. Coarsening bounds
// convolution cost when windows are large: with k support points per input,
// a convolution has up to k² points, and rebinning caps k. newRes must be a
// positive multiple of the current resolution.
func (p *PMF) Rebin(newRes time.Duration) (*PMF, error) {
	r := &PMF{res: p.res, bins: slices.Clone(p.bins), prob: slices.Clone(p.prob)}
	if err := r.Coarsen(newRes); err != nil {
		return nil, err
	}
	return r, nil
}

// Coarsen is Rebin in place. Bins are ascending and the coarse bin is
// monotone in the fine one, so the fine bins that merge are adjacent.
func (p *PMF) Coarsen(newRes time.Duration) error {
	if newRes <= 0 || newRes%p.res != 0 {
		return fmt.Errorf("dist: new resolution %v must be a positive multiple of %v", newRes, p.res)
	}
	factor := int64(newRes / p.res)
	n := 0
	for i, b := range p.bins {
		// Round bin center to the nearest coarse bin.
		nb := (b + factor/2) / factor
		if n > 0 && p.bins[n-1] == nb {
			p.prob[n-1] += p.prob[i]
			continue
		}
		p.bins[n], p.prob[n] = nb, p.prob[i]
		n++
	}
	p.res, p.bins, p.prob = newRes, p.bins[:n], p.prob[:n]
	return nil
}

func (p *PMF) String() string {
	return fmt.Sprintf("pmf(res=%v, support=%d, mean=%v)", p.res, len(p.bins), p.Mean())
}
