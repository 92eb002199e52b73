package dist

// Tests fencing the selection fast path: the array-based convolution, the
// single-point convolved CDF evaluation, histogram-based construction, and
// the signed-rounding consolidation in Shift. Randomized cases are seeded
// via internal/stats for determinism.

import (
	"math"
	"testing"
	"time"

	"aqua/internal/stats"
)

// TestShiftNegativeRounding is the regression test for the Shift signed
// rounding bug: the original code first computed quantize(d) — which clamps
// negative d to 0 — before a special-case branch overwrote it. Rounding is
// now consolidated in quantizeSigned; negative shifts must round half away
// from zero, symmetrically with positive ones.
func TestShiftNegativeRounding(t *testing.T) {
	base := mustFromSamples(t, []time.Duration{10 * ms}, ms)
	cases := []struct {
		d    time.Duration
		want time.Duration // expected support point of the shifted point mass
	}{
		{-400 * time.Microsecond, 10 * ms}, // |d| < res/2: no bin moved
		{-500 * time.Microsecond, 9 * ms},  // exactly −res/2 rounds away from zero
		{-600 * time.Microsecond, 9 * ms},
		{-ms, 9 * ms},
		{-1400 * time.Microsecond, 9 * ms},
		{-1500 * time.Microsecond, 8 * ms},
		{-2 * ms, 8 * ms},
	}
	for _, tc := range cases {
		got := base.Shift(tc.d)
		if got.Min() != tc.want {
			t.Errorf("Shift(%v): support %v, want %v", tc.d, got.Min(), tc.want)
		}
		if math.Abs(got.Mass()-1) > 1e-12 {
			t.Errorf("Shift(%v): mass %v, want 1", tc.d, got.Mass())
		}
	}
}

// TestShiftRoundingSymmetry pins round-to-nearest symmetry around ±res/2: a
// shift by +d and a shift by −d must move the support by the same number of
// bins in opposite directions (far from the zero clamp).
func TestShiftRoundingSymmetry(t *testing.T) {
	base := mustFromSamples(t, []time.Duration{100 * ms}, ms)
	for _, d := range []time.Duration{
		100 * time.Microsecond, 499 * time.Microsecond, 500 * time.Microsecond,
		501 * time.Microsecond, ms, 1499 * time.Microsecond, 1500 * time.Microsecond, 7 * ms,
	} {
		up := base.Shift(d).Min() - base.Min()
		down := base.Min() - base.Shift(-d).Min()
		if up != down {
			t.Errorf("shift by ±%v asymmetric: +%v vs -%v bins", d, up, down)
		}
	}
}

// fromCounts and convolveDense run the in-place forms into a fresh PMF.
func fromCounts(res time.Duration, bins []int64, counts []int) (*PMF, error) {
	p := &PMF{}
	if err := p.SetCounts(res, bins, counts); err != nil {
		return nil, err
	}
	return p, nil
}

func convolveDense(a, b *PMF) (*PMF, error) {
	p := &PMF{}
	if err := p.SetConvolution(a, b); err != nil {
		return nil, err
	}
	return p, nil
}

func TestFromCountsMatchesFromSamples(t *testing.T) {
	rng := stats.NewRand(7)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		samples := make([]time.Duration, n)
		counts := map[int64]int{}
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(50)) * ms
			counts[Quantize(samples[i], ms)]++
		}
		want := mustFromSamples(t, samples, ms)
		bins := make([]int64, 0, len(counts))
		for b := int64(0); b < 50; b++ {
			if counts[b] > 0 {
				bins = append(bins, b)
			}
		}
		cs := make([]int, len(bins))
		for i, b := range bins {
			cs[i] = counts[b]
		}
		got, err := fromCounts(ms, bins, cs)
		if err != nil {
			t.Fatalf("FromCounts: %v", err)
		}
		if !pmfsEqual(want, got, 0) {
			t.Fatalf("trial %d: FromCounts != FromSamples\nwant %v\ngot  %v", trial, want, got)
		}
	}
}

func TestFromCountsErrors(t *testing.T) {
	if _, err := fromCounts(0, []int64{1}, []int{1}); err == nil {
		t.Error("want error for zero resolution")
	}
	if _, err := fromCounts(ms, nil, nil); err == nil {
		t.Error("want error for empty histogram")
	}
	if _, err := fromCounts(ms, []int64{1, 2}, []int{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := fromCounts(ms, []int64{2, 1}, []int{1, 1}); err == nil {
		t.Error("want error for unsorted bins")
	}
	if _, err := fromCounts(ms, []int64{1, 1}, []int{1, 1}); err == nil {
		t.Error("want error for duplicate bins")
	}
	if _, err := fromCounts(ms, []int64{1}, []int{0}); err == nil {
		t.Error("want error for zero count")
	}
}

// pmfsEqual compares support and probabilities within tol (0 = exact).
func pmfsEqual(a, b *PMF, tol float64) bool {
	if a.Support() != b.Support() || a.Resolution() != b.Resolution() {
		return false
	}
	av, ap := a.Points()
	bv, bp := b.Points()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
		if math.Abs(ap[i]-bp[i]) > tol {
			return false
		}
	}
	return true
}

// randomPMF builds an empirical pmf from random samples: spread selects how
// wide the support gets.
func randomPMF(t *testing.T, rng *stats.Rand, spread int) *PMF {
	t.Helper()
	n := 1 + rng.Intn(120)
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = time.Duration(rng.Intn(spread)) * ms / 2 // half-res offsets exercise rounding
	}
	return mustFromSamples(t, samples, ms)
}

func TestConvolveDenseMatchesReference(t *testing.T) {
	rng := stats.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		p := randomPMF(t, rng, 80)
		q := randomPMF(t, rng, 80)
		want, err := p.Convolve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := convolveDense(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if !pmfsEqual(want, got, 1e-12) {
			t.Fatalf("trial %d: ConvolveDense diverges from Convolve", trial)
		}
	}
}

func TestConvolveDenseResolutionMismatch(t *testing.T) {
	p := mustFromSamples(t, []time.Duration{ms}, ms)
	q := mustFromSamples(t, []time.Duration{ms}, 2*ms)
	if _, err := convolveDense(p, q); err == nil {
		t.Error("want resolution-mismatch error")
	}
}

func TestCDFTableLookupMatchesCDF(t *testing.T) {
	rng := stats.NewRand(17)
	for trial := 0; trial < 50; trial++ {
		p := randomPMF(t, rng, 40)
		bins, cdf := p.AppendCDFTable(nil, nil)
		for at := time.Duration(0); at <= p.Max()+2*ms; at += ms / 2 {
			want := p.CDF(at)
			got := CDFLookup(bins, cdf, Quantize(at, ms))
			if math.Abs(want-got) > 1e-15 {
				t.Fatalf("trial %d: CDFLookup(%v) = %v, want %v", trial, at, got, want)
			}
		}
	}
}

// TestRandomizedChainInvariants is the property-style fence for the fast
// convolution path: across randomized Convolve/ConvolveDense/Shift/Rebin
// chains, total mass stays ≈1 and the CDF stays monotone non-decreasing.
func TestRandomizedChainInvariants(t *testing.T) {
	rng := stats.NewRand(23)
	for trial := 0; trial < 100; trial++ {
		p := randomPMF(t, rng, 50)
		steps := 1 + rng.Intn(5)
		// operand returns a random pmf at p's current resolution (Rebin steps
		// coarsen it) so convolution steps stay well-formed.
		operand := func() *PMF {
			n := 1 + rng.Intn(40)
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = time.Duration(rng.Intn(30)) * p.Resolution()
			}
			return mustFromSamples(t, samples, p.Resolution())
		}
		for s := 0; s < steps; s++ {
			var err error
			switch rng.Intn(4) {
			case 0:
				p, err = p.Convolve(operand())
			case 1:
				p, err = convolveDense(p, operand())
			case 2:
				// Shifts in [-25ms, +25ms], exercising the negative branch
				// and the clamp at zero.
				p = p.Shift(time.Duration(rng.Intn(101)-50) * ms / 2)
			case 3:
				p, err = p.Rebin(p.Resolution() * time.Duration(1+rng.Intn(3)))
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, s, err)
			}
		}
		if m := p.Mass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("trial %d: mass %v drifted from 1", trial, m)
		}
		prev := -1.0
		for at := time.Duration(0); at <= p.Max()+p.Resolution(); at += p.Resolution() {
			f := p.CDF(at)
			if f < prev-1e-15 {
				t.Fatalf("trial %d: CDF not monotone at %v: %v < %v", trial, at, f, prev)
			}
			prev = f
		}
		if f := p.CDF(p.Max()); math.Abs(f-1) > 1e-9 {
			t.Fatalf("trial %d: CDF(max) = %v, want 1", trial, f)
		}
	}
}
