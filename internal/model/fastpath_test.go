package model

// Equivalence fences for the prediction pipeline: the histogram-fed,
// dense-convolved F_Ri(t), rebuilt in place per (replica, method) slot, must match the paper's formulation (the
// oracle in reference_test.go) to 1e-12 on randomized windows, across every
// configuration (memoized and through a real repository).

import (
	"fmt"
	"math"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// randomRepo fills a repository with windowSize samples for n replicas drawn
// from mixed distributions, including sub-resolution jitter so quantization
// rounding is exercised.
func randomRepo(rng *stats.Rand, n, windowSize int) *repository.Repository {
	repo := repository.New(repository.WithWindowSize(windowSize))
	service := stats.Normal{Mu: 40 * ms, Sigma: 25 * ms}
	queue := stats.Exponential{MeanDelay: 15 * ms}
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(fmt.Sprintf("replica-%02d", i))
		repo.AddReplica(id)
		for j := 0; j < windowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{
				ServiceTime: service.Sample(rng) + time.Duration(rng.Intn(1000))*time.Microsecond,
				QueueDelay:  queue.Sample(rng),
				QueueLength: rng.Intn(4),
			}, time.Now())
		}
		repo.RecordGatewayDelay(id, time.Duration(rng.Intn(5000))*time.Microsecond)
	}
	return repo
}

// TestFastPathEquivalence is the ISSUE 1 acceptance fence: across ≥1000
// randomized windows with the paper's T window of 1, the memoized pipeline
// equals the paper's map-based formulation within 1e-12.
func TestFastPathEquivalence(t *testing.T) {
	rng := stats.NewRand(42)
	ref := newReference()
	fast := NewPredictor()

	const trials = 260
	const replicas = 4 // 260 trials × 4 replica windows > 1000 randomized windows
	windows := 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(120)
		repo := randomRepo(rng, replicas, l)
		deadline := time.Duration(rng.Intn(200)) * ms
		for _, s := range repo.Snapshot("") {
			want, err := ref.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("trial %d (l=%d, t=%v): fast %v vs reference %v (Δ=%g)",
					trial, l, deadline, got, want, math.Abs(want-got))
			}
			// Re-evaluating with an unchanged window must hit the memo
			// and still agree bit-for-bit with itself.
			again, err := fast.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if again != got {
				t.Fatalf("trial %d: unstable across repeat: %v then %v", trial, got, again)
			}
			windows++
		}
	}
	if windows < 1000 {
		t.Fatalf("only %d randomized windows exercised, want >= 1000", windows)
	}
}

// randomWANRepo is randomRepo plus a gateway-delay history window of size
// tWin filled from a bimodal link (calm ~2ms, congested ~60ms): a genuine
// empirical T distribution for tWin > 1, the paper's point mass for tWin = 1.
func randomWANRepo(rng *stats.Rand, n, windowSize, tWin int) *repository.Repository {
	repo := repository.New(
		repository.WithWindowSize(windowSize),
		repository.WithGatewayHistory(tWin),
	)
	service := stats.Normal{Mu: 40 * ms, Sigma: 25 * ms}
	queue := stats.Exponential{MeanDelay: 15 * ms}
	link := stats.Bimodal{
		Light:     stats.Normal{Mu: 2 * ms, Sigma: ms},
		Heavy:     stats.Normal{Mu: 60 * ms, Sigma: 10 * ms},
		HeavyProb: 0.3,
	}
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(fmt.Sprintf("replica-%02d", i))
		repo.AddReplica(id)
		for j := 0; j < windowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{
				ServiceTime: service.Sample(rng) + time.Duration(rng.Intn(1000))*time.Microsecond,
				QueueDelay:  queue.Sample(rng),
				QueueLength: rng.Intn(4),
			}, time.Now())
		}
		for j := 0; j < tWin; j++ {
			repo.RecordGatewayDelay(id, link.Sample(rng)+time.Duration(rng.Intn(1000))*time.Microsecond)
		}
	}
	return repo
}

// TestThreeFactorEquivalence pins both ends of the single T path to the
// oracle within 1e-12 over randomized S/W/T windows: T windows of 2..20
// samples (the full three-factor convolution; a few land in one bin and take
// the offset) and, every fourth trial, the paper's window of 1, where the
// oracle shifts by a point mass and the pipeline offsets the table.
func TestThreeFactorEquivalence(t *testing.T) {
	rng := stats.NewRand(23)
	ref := newReference()
	fast := NewPredictor()

	const trials = 160
	const replicas = 3
	windows, pointMass, multiBin := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(80)
		tWin := 2 + rng.Intn(19)
		if trial%4 == 0 {
			tWin = 1
		}
		repo := randomWANRepo(rng, replicas, l, tWin)
		deadline := time.Duration(rng.Intn(250)) * ms
		for _, s := range repo.Snapshot("") {
			if got := len(expand(s.GatewayHist)); got != tWin {
				t.Fatalf("trial %d: T window holds %d samples, want %d", trial, got, tWin)
			}
			if tWin == 1 {
				pointMass++
			} else if len(s.GatewayHist.Bins) > 1 {
				multiBin++
			}
			want, err := ref.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("trial %d (l=%d, tWin=%d, t=%v): fast %v vs reference %v (Δ=%g)",
					trial, l, tWin, deadline, got, want, math.Abs(want-got))
			}
			// Each replica's three S, W, T windows are independently randomized.
			windows += 3
		}
	}
	if windows < 1000 {
		t.Fatalf("only %d randomized windows exercised, want >= 1000", windows)
	}
	if pointMass < 100 || multiBin < 200 {
		t.Fatalf("T coverage too thin: %d point-mass and %d multi-bin snapshots", pointMass, multiBin)
	}
}

// TestThreeFactorTOnlyMutation mutates ONLY the T window between
// evaluations: the slot's tVer must invalidate its table without
// FlushCache, and the result rebuilt in place must track the oracle — for a
// distributional T window and for the paper's window of 1 alike.
func TestThreeFactorTOnlyMutation(t *testing.T) {
	for _, tWin := range []int{8, 1} {
		rng := stats.NewRand(31)
		ref := newReference()
		fast := NewPredictor()
		repo := randomWANRepo(rng, 1, 30, tWin)
		const deadline = 90 * ms

		check := func(step string) float64 {
			t.Helper()
			s, err := repo.SnapshotOne("replica-00", "")
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("tWin=%d %s: fast %v vs reference %v (Δ=%g)", tWin, step, got, want, math.Abs(want-got))
			}
			return got
		}

		before := check("initial")
		if got := fast.CacheSize(); got != 1 {
			t.Fatalf("tWin=%d: CacheSize() = %d after first evaluation, want 1", tWin, got)
		}
		// Only T mutates: push the whole window to the congested mode. S and W
		// (and therefore sVer/wVer) are untouched, so only tVer can save us
		// from serving the stale memoized table.
		for i := 0; i < tWin; i++ {
			repo.RecordGatewayDelay("replica-00", 120*ms)
		}
		after := check("after T-only mutation")
		if got := fast.CacheSize(); got != 1 {
			t.Fatalf("tWin=%d: CacheSize() = %d after T mutation, want 1 (the slot is rebuilt in place)", tWin, got)
		}
		if !(after < before) {
			t.Fatalf("tWin=%d: F(%v) did not drop after T shifted to 120ms: before %v, after %v", tWin, deadline, before, after)
		}
	}
}

// TestFastPathEquivalenceCoarseRebin forces support bounding (tiny
// maxSupport) so the Rebin-coarsened branch is compared too: the paper's T
// window of 1 (a coarsened bin offset) on even trials, a T window of 12 (a
// coarsened third factor) on odd ones.
func TestFastPathEquivalenceCoarseRebin(t *testing.T) {
	rng := stats.NewRand(7)
	ref := reference{maxSupport: 16}
	fast := NewPredictor()
	fast.maxSupport = 16
	for trial := 0; trial < 50; trial++ {
		repo := randomWANRepo(rng, 3, 100, 1+11*(trial%2))
		deadline := time.Duration(rng.Intn(250)) * ms
		for _, s := range repo.Snapshot("") {
			want, err := ref.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Probability(s, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("trial %d: bounded fast %v vs reference %v", trial, got, want)
			}
		}
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	rng := stats.NewRand(3)
	repo := randomRepo(rng, 2, 20)
	p := NewPredictor()
	snaps := repo.Snapshot("")
	if _, _, err := p.ProbabilityTable(snaps, 100*ms); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheSize(); got != 2 {
		t.Fatalf("CacheSize() = %d after first table, want 2", got)
	}
	// Unchanged windows: same entries, no growth.
	if _, _, err := p.ProbabilityTable(snaps, 150*ms); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheSize(); got != 2 {
		t.Fatalf("CacheSize() = %d after re-evaluation, want 2 (hit)", got)
	}
	// A new sample changes the window versions: the touched replica's slot is
	// rebuilt in place, no growth per window update.
	repo.RecordPerf("replica-00", "", wire.PerfReport{ServiceTime: 30 * ms, QueueDelay: 5 * ms}, time.Now())
	if _, _, err := p.ProbabilityTable(repo.Snapshot(""), 100*ms); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheSize(); got != 2 {
		t.Fatalf("CacheSize() = %d after window update, want 2", got)
	}
	// One slot per (replica, method): a second method adds its own.
	repo.RecordPerf("replica-00", "m2", wire.PerfReport{ServiceTime: 30 * ms, QueueDelay: 5 * ms}, time.Now())
	if _, _, err := p.ProbabilityTable(repo.Snapshot("m2"), 100*ms); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheSize(); got != 3 {
		t.Fatalf("CacheSize() = %d after a second method's table, want 3", got)
	}
	p.FlushCache()
	if got := p.CacheSize(); got != 0 {
		t.Fatalf("CacheSize() = %d after flush, want 0", got)
	}
}

// TestFastPathGatewayDelayShift checks the one-bin T offset agrees with the
// oracle's point-mass shift across gateway-delay values, including
// sub-resolution ones.
func TestFastPathGatewayDelayShift(t *testing.T) {
	ref := newReference()
	fast := NewPredictor()
	rng := stats.NewRand(9)
	repo := randomRepo(rng, 1, 50)
	base, err := repo.SnapshotOne("replica-00", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, gw := range []time.Duration{0, 100 * time.Microsecond, 499 * time.Microsecond,
		500 * time.Microsecond, ms, 7*ms + 300*time.Microsecond} {
		s := base
		s.GatewayHist = histOf(gw)
		for _, at := range []time.Duration{0, 20 * ms, 55 * ms, 200 * ms} {
			want, err := ref.Probability(s, at)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Probability(s, at)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want-got) > 1e-12 {
				t.Fatalf("gw=%v t=%v: fast %v vs reference %v", gw, at, got, want)
			}
		}
	}
}

// TestQueueAwareFastBypass: the A6 ablation keeps no slot but must agree
// with its own reference formulation.
func TestQueueAwareFastBypass(t *testing.T) {
	rng := stats.NewRand(5)
	repo := randomRepo(rng, 2, 30)
	ref := reference{maxSupport: defaultMaxSupport, queueAware: true}
	qa := NewPredictor(WithQueueAwareWait())
	for _, s := range repo.Snapshot("") {
		want, err := ref.Probability(s, 120*ms)
		if err != nil {
			t.Fatal(err)
		}
		got, err := qa.Probability(s, 120*ms)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("queue-aware: %v vs reference %v", got, want)
		}
	}
	if qa.CacheSize() != 0 {
		t.Error("queue-aware predictions must not populate the cache")
	}
}
