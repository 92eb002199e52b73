package model

import (
	"math"
	"sort"
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
	if len(table) != 1 || table[0].ID != warm.ID {
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
			if got := SubsetProbability(rowsOf(tt.probs)); math.Abs(got-tt.want) > 1e-12 {
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
		pk := SubsetProbability(rowsOf(probs))
		if pk < 0 || pk > 1 {
			return false
		}
		if len(probs) > 0 && pk < maxP-1e-12 {
			return false
		}
		// Adding a member can only increase P_K.
		grown := SubsetProbability(rowsOf(append(probs, 0.5)))
		return grown >= pk-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// rowsOf wraps bare probabilities as table rows.
func rowsOf(probs []float64) []ReplicaProbability {
	rows := make([]ReplicaProbability, len(probs))
	for i, p := range probs {
		rows[i].Probability = p
	}
	return rows
}

// TestProbabilityTableTiesByWork pins the tie order: rows of equal F_Ri(t)
// rank by this gateway's outstanding work at the replica, in-flight copies
// times the median service-time bin, least first, and only then by ID; a
// higher F_Ri(t) outranks any work.
func TestProbabilityTableTiesByWork(t *testing.T) {
	svc := func(d ...time.Duration) []time.Duration { return d }
	rows := []repository.ReplicaSnapshot{
		snap("a", svc(2*ms, 3*ms, 9*ms), svc(0), ms, 0), // median 3 ms
		snap("b", svc(3*ms), svc(0), ms, 0),
		snap("c", svc(1*ms, 3*ms), svc(0), ms, 0), // lower median 1 ms
		snap("d", svc(0, 0, 4*ms), svc(0), ms, 0), // median bin 0: no work
		snap("e", svc(200*ms), svc(0), ms, 0),     // F = 0 at the deadline
	}
	for i, n := range []int{2, 0, 3, 5, 0} {
		rows[i].InFlight = n
	}
	table, _, err := NewPredictor().ProbabilityTable(rows, 100*ms)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id   wire.ReplicaID
		work time.Duration
	}{{"replica-b", 0}, {"replica-d", 0}, {"replica-c", 3 * ms}, {"replica-a", 6 * ms}, {"replica-e", 0}}
	for i, w := range want {
		if table[i].ID != w.id || table[i].Work != w.work {
			t.Fatalf("row %d = %s with work %v, want %s with %v\ntable %+v", i, table[i].ID, table[i].Work, w.id, w.work, table)
		}
	}
	if table[3].Probability != table[0].Probability || table[4].Probability >= table[3].Probability {
		t.Fatalf("F_Ri(t) of the rows = %+v, want the first four equal and the last below them", table)
	}
}

// TestProbabilityTableRanked pins the one ranking of the decision path:
// whatever order the snapshots arrive in, with whatever copies in flight, the
// warm rows come back exactly as a stable sort by (F_Ri(t) descending, work
// ascending, ID ascending) would order them, where work is the in-flight
// count times the lower-median service sample's bin; cold snapshots come
// back separately in input order, and appending into a grown buffer
// allocates nothing.
func TestProbabilityTableRanked(t *testing.T) {
	rng := stats.NewRand(29)
	// Few distinct sample values against a deadline inside their range: many
	// replicas tie at exactly 0, 1 or an intermediate value.
	sample := func() time.Duration { return time.Duration(rng.Intn(4)) * 2 * ms }
	window := func() []time.Duration {
		w := make([]time.Duration, 1+rng.Intn(3))
		for i := range w {
			w[i] = sample()
		}
		return w
	}
	const deadline = 7 * ms
	// work is what the predictor must rank ties by, from the samples.
	work := map[wire.ReplicaID]time.Duration{}
	for trial := 0; trial < 200; trial++ {
		snaps := make([]repository.ReplicaSnapshot, 2+rng.Intn(10))
		for i := range snaps {
			id := string(rune('a' + i))
			if rng.Intn(4) == 0 {
				snaps[i] = snap(id, nil, nil, 0, 0)
				continue
			}
			service := window()
			snaps[i] = snap(id, service, window(), sample(), rng.Intn(5))
			snaps[i].InFlight = rng.Intn(4)
			sort.Slice(service, func(a, b int) bool { return service[a] < service[b] })
			work[snaps[i].ID] = time.Duration(snaps[i].InFlight) * service[(len(service)-1)/2]
		}
		perm := rng.Perm(len(snaps))
		shuffled := make([]repository.ReplicaSnapshot, len(snaps))
		for i, j := range perm {
			shuffled[i] = snaps[j]
		}

		p := NewPredictor()
		var want []ReplicaProbability
		var wantCold []wire.ReplicaID
		for _, s := range shuffled {
			if !s.HasHistory {
				wantCold = append(wantCold, s.ID)
				continue
			}
			f, err := p.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ReplicaProbability{ID: s.ID, QueueLength: s.QueueLength, Probability: f, Work: work[s.ID]})
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Probability != want[j].Probability {
				return want[i].Probability > want[j].Probability
			}
			if want[i].Work != want[j].Work {
				return want[i].Work < want[j].Work
			}
			return want[i].ID < want[j].ID
		})

		table, cold, err := p.ProbabilityTable(shuffled, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if len(table) != len(want) || len(cold) != len(wantCold) {
			t.Fatalf("trial %d: %d rows and %d cold, want %d and %d", trial, len(table), len(cold), len(want), len(wantCold))
		}
		for i := range want {
			if table[i] != want[i] {
				t.Fatalf("trial %d: row %d = %+v, want %+v\n got %+v\nwant %+v", trial, i, table[i], want[i], table, want)
			}
		}
		for i := range wantCold {
			if cold[i].ID != wantCold[i] {
				t.Fatalf("trial %d: cold %d = %s, want %s", trial, i, cold[i].ID, wantCold[i])
			}
		}

		if allocs := testing.AllocsPerRun(10, func() {
			table, cold, err = p.ProbabilityTableInto(shuffled, deadline, table[:0], cold[:0])
		}); allocs != 0 || err != nil {
			t.Fatalf("trial %d: appending into grown buffers made %.1f allocations (err %v), want 0", trial, allocs, err)
		}
		for i := range want {
			if table[i] != want[i] {
				t.Fatalf("trial %d: reused-buffer row %d = %+v, want %+v", trial, i, table[i], want[i])
			}
		}
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
