package model

// Equivalence fence for the borrowed-digest tier: absorbing a window digest
// into an empty repository must be indistinguishable — to the response-time
// model, within 1e-12 — from replaying the raw samples that produced the
// digest. This extends the PR 1 equivalence harness (fastpath_test.go) across
// the gossip boundary: digests carry quantized bin counts, absorption
// reconstructs pseudo-samples as bin × resolution, and those re-quantize to
// exactly the source bins.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// evaluator is what the predictor and the oracle have in common.
type evaluator interface {
	Probability(repository.ReplicaSnapshot, time.Duration) (float64, error)
}

// rawHistory is the ground truth behind one replica's digest.
type rawHistory struct {
	id      wire.ReplicaID
	reports []wire.PerfReport
	delay   time.Duration
}

// TestDigestAbsorptionEquivalence: for randomized windows, build a source
// repository, export its digests, absorb them into an empty repository, and
// separately replay the raw samples into another empty repository. Both the
// predictor and the oracle must agree on every replica and deadline within
// 1e-12 between the two, and with each other — on the purely borrowed windows
// and again after local reports have displaced part of the borrowed tier, so
// the merged borrowed+local view is under the oracle too.
func TestDigestAbsorptionEquivalence(t *testing.T) {
	rng := stats.NewRand(91)
	ref := newReference()
	fast := NewPredictor()
	service := stats.Normal{Mu: 40 * ms, Sigma: 25 * ms}
	queue := stats.Exponential{MeanDelay: 15 * ms}

	const trials = 120
	const replicas = 3
	windows := 0
	for trial := 0; trial < trials; trial++ {
		l := 1 + rng.Intn(40)
		newRepo := func() *repository.Repository {
			return repository.New(repository.WithWindowSize(l))
		}
		source := newRepo()
		histories := make([]rawHistory, 0, replicas)
		now := time.Now()
		for i := 0; i < replicas; i++ {
			h := rawHistory{
				id:    wire.ReplicaID(fmt.Sprintf("replica-%02d", i)),
				delay: time.Duration(rng.Intn(5000)) * time.Microsecond,
			}
			source.AddReplica(h.id)
			for j := 0; j < l; j++ {
				h.reports = append(h.reports, wire.PerfReport{
					ServiceTime: service.Sample(rng) + time.Duration(rng.Intn(1000))*time.Microsecond,
					QueueDelay:  queue.Sample(rng),
					QueueLength: rng.Intn(4),
				})
			}
			for _, p := range h.reports {
				source.RecordPerf(h.id, "", p, now)
			}
			source.RecordGatewayDelay(h.id, h.delay)
			histories = append(histories, h)
		}

		// Leg 1: digest absorption into an empty repository.
		digests := source.ExportDigests(now)
		if len(digests) != replicas {
			t.Fatalf("trial %d: exported %d digests, want %d", trial, len(digests), replicas)
		}
		absorbRepo := newRepo()
		for _, h := range histories {
			absorbRepo.AddReplica(h.id)
		}
		absorbed, stale := absorbRepo.AbsorbDigests(wire.DigestSync{
			Client:          "peer",
			Service:         "svc",
			Seq:             1,
			ResolutionNanos: source.ExportResolutionNanos(),
			WindowSize:      l,
			Digests:         digests,
		}, now)
		if absorbed != replicas || stale != 0 {
			t.Fatalf("trial %d: absorbed %d / stale %d, want %d / 0", trial, absorbed, stale, replicas)
		}

		// Leg 2: raw-sample replay into another empty repository.
		replayRepo := newRepo()
		for _, h := range histories {
			replayRepo.AddReplica(h.id)
			for _, p := range h.reports {
				replayRepo.RecordPerf(h.id, "", p, now)
			}
			replayRepo.RecordGatewayDelay(h.id, h.delay)
		}

		absorbSnaps := absorbRepo.Snapshot("")
		replaySnaps := replayRepo.Snapshot("")
		if len(absorbSnaps) != len(replaySnaps) {
			t.Fatalf("trial %d: snapshot lengths differ: %d vs %d", trial, len(absorbSnaps), len(replaySnaps))
		}
		for i := range absorbSnaps {
			a, r := absorbSnaps[i], replaySnaps[i]
			if a.ID != r.ID {
				t.Fatalf("trial %d: snapshot order differs: %s vs %s", trial, a.ID, r.ID)
			}
			if !a.HasHistory {
				t.Fatalf("trial %d: absorbed snapshot for %s has no history", trial, a.ID)
			}
			for _, deadline := range []time.Duration{10 * ms, 50 * ms, 90 * ms, 150 * ms} {
				for name, p := range map[string]evaluator{"fast": fast, "reference": ref} {
					got, err := p.Probability(a, deadline)
					if err != nil {
						t.Fatal(err)
					}
					want, err := p.Probability(r, deadline)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(want-got) > 1e-12 {
						t.Fatalf("trial %d (%s, l=%d, t=%v, %s): digest %v vs replay %v (Δ=%g)",
							trial, name, l, deadline, a.ID, got, want, math.Abs(want-got))
					}
				}
			}
			windows++
		}

		// Merged tier: a few local reports per replica displace as many
		// borrowed samples, leaving borrowed+local views (for l > 1).
		for _, h := range histories {
			for j := 0; j < l/2; j++ {
				absorbRepo.RecordPerf(h.id, "", h.reports[j], now)
			}
		}
		for _, a := range append(absorbSnaps, absorbRepo.Snapshot("")...) {
			for _, deadline := range []time.Duration{10 * ms, 50 * ms, 90 * ms, 150 * ms} {
				want, err := ref.Probability(a, deadline)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.Probability(a, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(want-got) > 1e-12 {
					t.Fatalf("trial %d (l=%d, t=%v, %s): fast %v vs reference %v (Δ=%g)",
						trial, l, deadline, a.ID, got, want, math.Abs(want-got))
				}
			}
		}
		if l > 1 && absorbRepo.BorrowedLen(histories[0].id, "") == 0 {
			t.Fatalf("trial %d (l=%d): no borrowed sample left beside %d local ones", trial, l, l/2)
		}
	}
	if windows < 300 {
		t.Fatalf("only %d randomized windows exercised", windows)
	}
}
