package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

const ms = time.Millisecond

// snap hand-builds the snapshot a repository with a T window of 1 would
// publish for these samples.
func snap(id string, service, queue []time.Duration, gw time.Duration, qlen int) repository.ReplicaSnapshot {
	return repository.ReplicaSnapshot{
		ID:          wire.ReplicaID("replica-" + id),
		ServiceHist: histOf(service...),
		QueueHist:   histOf(queue...),
		GatewayHist: histOf(gw),
		QueueLength: qlen,
		HasHistory:  len(service) > 0 && len(queue) > 0,
	}
}

func TestResponsePMFIsConvolutionPlusShift(t *testing.T) {
	p := NewPredictor()
	// S = {10ms}, W = {5ms}, T = 2ms → R = {17ms} exactly.
	s := snap("a", []time.Duration{10 * ms}, []time.Duration{5 * ms}, 2*ms, 0)
	pmf, err := p.ResponsePMF(s)
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Support() != 1 || pmf.Mean() != 17*ms {
		t.Fatalf("R pmf = %v, want point mass at 17ms", pmf)
	}
}

func TestProbabilityMatchesHandComputedCDF(t *testing.T) {
	p := NewPredictor()
	// S uniform {10,20}, W uniform {0,10}, T=0.
	// R support: 10 (1/4), 20 (1/2: 10+10, 20+0), 30 (1/4).
	s := snap("a",
		[]time.Duration{10 * ms, 20 * ms},
		[]time.Duration{0, 10 * ms},
		0, 0)
	tests := []struct {
		t    time.Duration
		want float64
	}{
		{5 * ms, 0}, {10 * ms, 0.25}, {20 * ms, 0.75}, {30 * ms, 1},
	}
	for _, tt := range tests {
		got, err := p.Probability(s, tt.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestGatewayDelayShiftsDistribution(t *testing.T) {
	p := NewPredictor()
	base := snap("a", []time.Duration{10 * ms}, []time.Duration{0}, 0, 0)
	shifted := snap("a", []time.Duration{10 * ms}, []time.Duration{0}, 7*ms, 0)
	f0, err := p.Probability(base, 10*ms)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Probability(shifted, 10*ms)
	if err != nil {
		t.Fatal(err)
	}
	if f0 != 1 || f1 != 0 {
		t.Errorf("F_base(10ms)=%v F_shifted(10ms)=%v, want 1 and 0", f0, f1)
	}
	f2, err := p.Probability(shifted, 17*ms)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != 1 {
		t.Errorf("F_shifted(17ms) = %v, want 1", f2)
	}
}

func TestNoHistoryError(t *testing.T) {
	p := NewPredictor()
	s := snap("a", nil, nil, 0, 0)
	if _, err := p.ResponsePMF(s); err == nil {
		t.Error("want error for cold replica")
	}
}

func TestProbabilityTableSplitsColdReplicas(t *testing.T) {
	p := NewPredictor()
	warm := snap("warm", []time.Duration{ms}, []time.Duration{ms}, 0, 0)
	cold := snap("cold", nil, nil, 0, 0)
	table, coldOut, err := p.ProbabilityTable([]repository.ReplicaSnapshot{warm, cold}, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 1 || table[0].Snapshot.ID != warm.ID {
		t.Errorf("table = %+v", table)
	}
	if len(coldOut) != 1 || coldOut[0].ID != cold.ID {
		t.Errorf("cold = %+v", coldOut)
	}
	if table[0].Probability != 1 {
		t.Errorf("warm probability = %v, want 1", table[0].Probability)
	}
}

func TestQueueAwareWaitScalesWithQueueLength(t *testing.T) {
	p := NewPredictor(WithQueueAwareWait())
	// Service 10ms; queue length 3 → wait 30ms → R = 40ms.
	s := snap("a", []time.Duration{10 * ms}, []time.Duration{0}, 0, 3)
	pmf, err := p.ResponsePMF(s)
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Mean() != 40*ms {
		t.Errorf("queue-aware mean = %v, want 40ms", pmf.Mean())
	}
	// Paper model ignores QueueLength in the pmf; same snapshot gives 10ms.
	paper := NewPredictor()
	pmf2, err := paper.ResponsePMF(s)
	if err != nil {
		t.Fatal(err)
	}
	if pmf2.Mean() != 10*ms {
		t.Errorf("paper-model mean = %v, want 10ms", pmf2.Mean())
	}
}

func TestMaxSupportRebinsKeepsMass(t *testing.T) {
	p := NewPredictor()
	p.maxSupport = 16
	service := make([]time.Duration, 64)
	queue := make([]time.Duration, 64)
	for i := range service {
		service[i] = time.Duration(i*3) * ms
		queue[i] = time.Duration(i*7) * ms
	}
	s := snap("a", service, queue, 5*ms, 0)
	pmf, err := p.ResponsePMF(s)
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Support() > 16*16 {
		t.Errorf("support %d not bounded", pmf.Support())
	}
	if math.Abs(pmf.Mass()-1) > 1e-9 {
		t.Errorf("mass = %v", pmf.Mass())
	}
}

func TestSubsetProbability(t *testing.T) {
	tests := []struct {
		name  string
		probs []float64
		want  float64
	}{
		{name: "empty", probs: nil, want: 0},
		{name: "single", probs: []float64{0.7}, want: 0.7},
		{name: "two", probs: []float64{0.5, 0.5}, want: 0.75},
		{name: "certain member", probs: []float64{1, 0.1}, want: 1},
		{name: "all zero", probs: []float64{0, 0, 0}, want: 0},
		{name: "three", probs: []float64{0.9, 0.5, 0.2}, want: 1 - 0.1*0.5*0.8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SubsetProbability(tt.probs); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("SubsetProbability(%v) = %v, want %v", tt.probs, got, tt.want)
			}
		})
	}
}

// TestSubsetProbabilityProperties: P_K is in [0,1], monotone in set growth,
// and at least the max individual probability (Equation 1 structure).
func TestSubsetProbabilityProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		probs := make([]float64, len(raw))
		maxP := 0.0
		for i, v := range raw {
			probs[i] = float64(v) / 255
			if probs[i] > maxP {
				maxP = probs[i]
			}
		}
		pk := SubsetProbability(probs)
		if pk < 0 || pk > 1 {
			return false
		}
		if len(probs) > 0 && pk < maxP-1e-12 {
			return false
		}
		// Adding a member can only increase P_K.
		grown := SubsetProbability(append(probs, 0.5))
		return grown >= pk-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestResponseCDFNondecreasingInT: the paper's independence model needs a
// valid distribution function out of the predictor.
func TestResponseCDFNondecreasingInT(t *testing.T) {
	p := NewPredictor()
	s := snap("a",
		[]time.Duration{10 * ms, 30 * ms, 20 * ms, 10 * ms, 90 * ms},
		[]time.Duration{0, 5 * ms, 10 * ms, 5 * ms, 40 * ms},
		3*ms, 0)
	prev := -1.0
	for probe := time.Duration(0); probe <= 200*ms; probe += ms {
		got, err := p.Probability(s, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev {
			t.Fatalf("F(%v) = %v < F(prev) = %v", probe, got, prev)
		}
		prev = got
	}
	if prev != 1 {
		t.Errorf("F(200ms) = %v, want 1", prev)
	}
}

// TestAnalyticCrossCheckNormal validates the empirical pipeline against
// closed-form probability: with service times drawn from Normal(mu, sigma),
// zero queueing, and gateway delay g, the model's F_R(t) built from many
// samples must approach the analytic Phi((t - mu - g) / sigma).
func TestAnalyticCrossCheckNormal(t *testing.T) {
	const (
		mu    = 100 * ms
		sigma = 30 * ms
		g     = 2 * ms
	)
	rng := stats.NewRand(7)
	dist := stats.Normal{Mu: mu, Sigma: sigma}
	samples := make([]time.Duration, 2000)
	for i := range samples {
		samples[i] = dist.Sample(rng)
	}
	noQueueing := make([]time.Duration, len(samples))
	s := snap("analytic", samples, noQueueing, g, 0)
	p := NewPredictor()
	for _, probe := range []time.Duration{60 * ms, 90 * ms, 102 * ms, 120 * ms, 160 * ms} {
		got, err := p.Probability(s, probe)
		if err != nil {
			t.Fatal(err)
		}
		z := float64(probe-mu-g) / float64(sigma)
		want := 0.5 * math.Erfc(-z/math.Sqrt2)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("F(%v) = %.4f, analytic Phi = %.4f (|gap| > 0.03)", probe, got, want)
		}
	}
}
