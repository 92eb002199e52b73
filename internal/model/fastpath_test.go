package model

// Equivalence fences for the prediction fast path: the histogram-fed,
// dense-convolved, memoized F_Ri(t) must match the paper's reference
// formulation to 1e-12 on randomized windows, across every configuration
// (memoized and through a real repository).

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
func randomRepo(rng *stats.Rand, n, windowSize int, res time.Duration) *repository.Repository {
	repo := repository.New(repository.WithWindowSize(windowSize), repository.WithResolution(res))
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
// randomized windows, the memoized fast path equals the reference map-based
// path within 1e-12.
func TestFastPathEquivalence(t *testing.T) {
	rng := stats.NewRand(42)
	ref := NewPredictor(WithReferencePath())
	fast := NewPredictor()

	const trials = 260
	const replicas = 4 // 260 trials × 4 replica windows > 1000 randomized windows
	windows := 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(120)
		repo := randomRepo(rng, replicas, l, ms)
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
// tWin filled from a bimodal link (calm ~2ms, congested ~60ms), so T is a
// genuine empirical distribution rather than a point mass.
func randomWANRepo(rng *stats.Rand, n, windowSize, tWin int, res time.Duration) *repository.Repository {
	repo := repository.New(
		repository.WithWindowSize(windowSize),
		repository.WithResolution(res),
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

// TestThreeFactorEquivalence pins the distributional-T fast path to the
// reference path within 1e-12 over randomized S/W/T windows — the ISSUE 8
// extension of the PR 1 equivalence fence to the full three-factor
// convolution.
func TestThreeFactorEquivalence(t *testing.T) {
	rng := stats.NewRand(23)
	ref := NewPredictor(WithReferencePath())
	fast := NewPredictor()

	const trials = 120
	const replicas = 3
	windows := 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(80)
		tWin := 2 + rng.Intn(19)
		repo := randomWANRepo(rng, replicas, l, tWin, ms)
		deadline := time.Duration(rng.Intn(250)) * ms
		for _, s := range repo.Snapshot("") {
			if !distributionalT(s) {
				t.Fatalf("trial %d: T window not distributional (%d samples)", trial, len(s.GatewayDelays))
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
}

// TestThreeFactorTOnlyMutation mutates ONLY the T window between
// evaluations: the extended memo key (tVer) must invalidate the cached
// three-factor table without FlushCache, and the re-built fast result must
// track the reference.
func TestThreeFactorTOnlyMutation(t *testing.T) {
	rng := stats.NewRand(31)
	ref := NewPredictor(WithReferencePath())
	fast := NewPredictor()
	repo := randomWANRepo(rng, 1, 30, 8, ms)
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
			t.Fatalf("%s: fast %v vs reference %v (Δ=%g)", step, got, want, math.Abs(want-got))
		}
		return got
	}

	before := check("initial")
	if got := fast.CacheSize(); got != 1 {
		t.Fatalf("CacheSize() = %d after first evaluation, want 1", got)
	}
	// Only T mutates: push the whole window to the congested mode. S and W
	// (and therefore sVer/wVer) are untouched, so only tVer can save us
	// from serving the stale memoized table.
	for i := 0; i < 8; i++ {
		repo.RecordGatewayDelay("replica-00", 120*ms)
	}
	after := check("after T-only mutation")
	if got := fast.CacheSize(); got != 2 {
		t.Fatalf("CacheSize() = %d after T mutation, want 2 (new tVer entry, no flush)", got)
	}
	if !(after < before) {
		t.Fatalf("F(%v) did not drop after T shifted to 120ms: before %v, after %v", deadline, before, after)
	}
}

// TestFastPathEquivalenceCoarseRebin forces support bounding (tiny
// maxSupport) so the Rebin-coarsened branch is compared too.
func TestFastPathEquivalenceCoarseRebin(t *testing.T) {
	rng := stats.NewRand(7)
	ref := NewPredictor(WithReferencePath(), WithMaxSupport(16))
	fast := NewPredictor(WithMaxSupport(16))
	for trial := 0; trial < 50; trial++ {
		repo := randomRepo(rng, 3, 100, ms)
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
	repo := randomRepo(rng, 2, 20, ms)
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
	// A new sample changes the window versions: new entry per touched replica.
	repo.RecordPerf("replica-00", "", wire.PerfReport{ServiceTime: 30 * ms, QueueDelay: 5 * ms}, time.Now())
	if _, _, err := p.ProbabilityTable(repo.Snapshot(""), 100*ms); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheSize(); got != 3 {
		t.Fatalf("CacheSize() = %d after window update, want 3", got)
	}
	p.FlushCache()
	if got := p.CacheSize(); got != 0 {
		t.Fatalf("CacheSize() = %d after flush, want 0", got)
	}
}

// TestFastPathGatewayDelayShift checks the lookup-time shift agrees with the
// reference across gateway-delay values, including sub-resolution ones.
func TestFastPathGatewayDelayShift(t *testing.T) {
	ref := NewPredictor(WithReferencePath())
	fast := NewPredictor()
	rng := stats.NewRand(9)
	repo := randomRepo(rng, 1, 50, ms)
	base, err := repo.SnapshotOne("replica-00", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, gw := range []time.Duration{0, 100 * time.Microsecond, 499 * time.Microsecond,
		500 * time.Microsecond, ms, 7*ms + 300*time.Microsecond} {
		s := base
		s.GatewayDelay = gw
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

// TestFallbackWithoutHistograms: snapshots lacking histogram views (e.g.
// from a repository configured with WithResolution(0)) silently use the
// reference route and still produce results.
func TestFallbackWithoutHistograms(t *testing.T) {
	repo := repository.New(repository.WithWindowSize(5), repository.WithResolution(0))
	repo.AddReplica("a")
	for i := 0; i < 5; i++ {
		repo.RecordPerf("a", "", wire.PerfReport{ServiceTime: 10 * ms, QueueDelay: 5 * ms}, time.Now())
	}
	p := NewPredictor()
	s, err := repo.SnapshotOne("a", "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Probability(s, 20*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Probability = %v, want 1 (S+W = 15ms <= 20ms)", got)
	}
	if p.CacheSize() != 0 {
		t.Error("reference fallback should not populate the cache")
	}
}

// TestResolutionMismatchFallsBack: a repository quantizing at a different
// resolution than the predictor must not feed the fast path.
func TestResolutionMismatchFallsBack(t *testing.T) {
	repo := repository.New(repository.WithWindowSize(5), repository.WithResolution(2*ms))
	repo.AddReplica("a")
	for i := 0; i < 5; i++ {
		repo.RecordPerf("a", "", wire.PerfReport{ServiceTime: 11 * ms, QueueDelay: 4 * ms}, time.Now())
	}
	p := NewPredictor() // 1ms resolution
	s, err := repo.SnapshotOne("a", "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPredictor(WithReferencePath()).Probability(s, 20*ms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Probability(s, 20*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mismatched-resolution probability %v, want reference %v", got, want)
	}
	if p.CacheSize() != 0 {
		t.Error("mismatched resolution must not populate the cache")
	}
}

// TestQueueAwareStillWorks: the A6 ablation bypasses the fast path but must
// agree with its own reference formulation.
func TestQueueAwareFastBypass(t *testing.T) {
	rng := stats.NewRand(5)
	repo := randomRepo(rng, 2, 30, ms)
	ref := NewPredictor(WithReferencePath(), WithQueueAwareWait())
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
