package core

// Fences for the zero-allocation decision path: the cached path must not
// allocate, must agree exactly with a from-scratch oracle built in the test, and
// the pooled Decision buffers must be race-free under concurrent
// schedule/release/reply traffic.

import (
	"fmt"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// variedRepo builds a repository whose replicas have distinct deterministic
// histories, so selection produces a non-trivial proper subset.
func variedRepo(t testing.TB, n int) *repository.Repository {
	t.Helper()
	repo := repository.New()
	base := time.Now()
	for i := 0; i < n; i++ {
		id := wire.ReplicaID(rune('a' + i))
		repo.AddReplica(id)
		svc := time.Duration(5+3*i) * ms
		for j := 0; j < repository.DefaultWindowSize; j++ {
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc, QueueDelay: ms}, base)
		}
		repo.RecordGatewayDelay(id, ms)
	}
	return repo
}

// TestScheduleCachedPathZeroAllocs is the tentpole fence: once the scratch
// pools, snapshot cache, and predictor cache are warm, a full
// schedule → release → forget cycle performs zero heap allocations.
func TestScheduleCachedPathZeroAllocs(t *testing.T) {
	repo := variedRepo(t, 5)
	s, err := NewScheduler(Config{
		Service:            "svc",
		QoS:                wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository:         repo,
		CompensateOverhead: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	cycle := func() {
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		seq := d.Seq
		d.Release()
		s.Forget(seq)
	}
	for i := 0; i < 10; i++ {
		cycle() // warm caches, pools, and map buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("cached schedule/release/forget cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestScheduleFreshPathAllocs fences the path real traffic takes: every
// selected replica replies — S, W and T windows all move, to different bins
// each time — before the next decision. What is left to allocate is the
// repository's re-export of the replicas that replied (the shared slice, and
// one bins and one counts block per replica).
func TestScheduleFreshPathAllocs(t *testing.T) {
	repo := variedRepo(t, 8)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	turn := 0
	cycle := func() {
		d, err := s.Schedule(t0, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Targets) != 2 {
			t.Fatalf("selected %v, the fence is stated for |K| = 2", d.Targets)
		}
		if err := s.Dispatched(d.Seq, t0); err != nil {
			t.Fatal(err)
		}
		for _, id := range d.Targets {
			turn++
			perf := wire.PerfReport{ServiceTime: time.Duration(5+turn%7) * ms, QueueDelay: time.Duration(turn%3) * ms}
			s.OnReply(d.Seq, id, t0.Add(perf.ServiceTime+perf.QueueDelay+time.Duration(turn%5)*ms), perf)
		}
		d.Release()
	}
	for i := 0; i < 20; i++ {
		cycle() // warm pools, slots and map buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 10 {
		t.Fatalf("fresh schedule/dispatched/2 replies/release cycle allocated %.1f times per run, want <= 10", allocs)
	} else {
		t.Logf("fresh cycle: %.1f allocs", allocs)
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after every target replied, want 0", got)
	}
}

// TestReferencePathMatchesCachedPath checks decision-for-decision equivalence
// between the scheduler's zero-alloc cached path and an oracle assembled here
// from exported parts (private snapshot, fresh table, the strategy's own
// per-request sort): same targets, bit-identical P_K(t), across
// membership-stable and perturbed rounds. The oracle shares no scheduler code
// with the path it checks.
func TestReferencePathMatchesCachedPath(t *testing.T) {
	repo := variedRepo(t, 6)
	q := wire.QoS{Deadline: 60 * ms, MinProbability: 0.95}
	fast, err := NewScheduler(Config{Service: "svc", QoS: q, Repository: repo})
	if err != nil {
		t.Fatal(err)
	}
	predictor := model.NewPredictor()
	strategy := selection.NewDynamic()
	now := time.Now()
	for round := 0; round < 100; round++ {
		if round%3 == 1 {
			// Perturb one replica's window so the candidate order moves.
			id := wire.ReplicaID(rune('a' + round%6))
			svc := time.Duration(4+round%20) * ms
			repo.RecordPerf(id, "", wire.PerfReport{ServiceTime: svc, QueueDelay: ms}, now)
		}
		table, cold, err := predictor.ProbabilityTable(repo.Snapshot(""), q.Deadline)
		if err != nil {
			t.Fatalf("round %d: oracle table: %v", round, err)
		}
		want := strategy.Select(selection.Input{Table: table, Cold: cold, QoS: q})
		got, err := fast.Schedule(now, "")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fmt.Sprint(got.Targets) != fmt.Sprint(want.Selected) {
			t.Fatalf("round %d: targets diverged: fast=%v ref=%v", round, got.Targets, want.Selected)
		}
		if got.Predicted != want.Predicted {
			t.Fatalf("round %d: predicted diverged: fast=%v ref=%v", round, got.Predicted, want.Predicted)
		}
		if got.UsedAll != want.UsedAll || got.ColdStart != want.ColdStart {
			t.Fatalf("round %d: flags diverged: fast=%+v ref=%+v", round, got, want)
		}
		fast.Forget(got.Seq)
		got.Release()
	}
}

// TestDecisionReleaseRace hammers the pooled-buffer lifecycle from many
// goroutines — schedule, read targets, reply, release, forget — so the race
// detector can see any reuse-before-release hazard in the free lists.
func TestDecisionReleaseRace(t *testing.T) {
	repo := variedRepo(t, 4)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository: repo,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			now := time.Now()
			for i := 0; i < 300; i++ {
				d, err := s.Schedule(now, "")
				if err != nil {
					done <- err
					return
				}
				// Read every target before Release: the race detector flags
				// this load if the buffer is ever recycled early.
				var sink wire.ReplicaID
				for _, id := range d.Targets {
					sink = id
				}
				out := s.OnReply(d.Seq, sink, now.Add(5*ms), wire.PerfReport{ServiceTime: 5 * ms, QueueDelay: ms})
				if out.Unknown {
					done <- fmt.Errorf("reply to own request reported unknown")
					return
				}
				seq := d.Seq
				d.Release()
				s.Forget(seq)
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding() = %d after all work settled, want 0", got)
	}
}

// BenchmarkScheduleCachedPath measures the per-decision cost of the cached
// path (bench/ probe core.schedule_cached_us drives the same cycle).
func BenchmarkScheduleCachedPath(b *testing.B) {
	repo := variedRepo(b, 5)
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 60 * ms, MinProbability: 0.95},
		Repository: repo,
	})
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Schedule(t0, "")
		if err != nil {
			b.Fatal(err)
		}
		seq := d.Seq
		d.Release()
		s.Forget(seq)
	}
}
