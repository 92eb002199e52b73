package core

// The equivalence fence for the in-place decision path: whatever the
// repository is put through, the table the hot path computes — shared
// snapshot brought up to date per replica, F_Ri slots rebuilt in place —
// equals the one computed from scratch, float for float, and the scheduler
// picks the same targets.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

func TestFreshPathMatchesOracleProperty(t *testing.T) {
	universe := []wire.ReplicaID{"r0", "r1", "r2", "r3", "r4", "r5"}
	methods := []string{"", "m2"}
	q := wire.QoS{Deadline: 30 * ms, MinProbability: 0.9}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Odd seeds keep a T history, so the three-factor convolution and the
		// dropped-negative-delay rule are in play too.
		repo := repository.New(repository.WithGatewayHistory(1 + 2*int(seed%2)))
		hot := model.NewPredictor()
		s, err := NewScheduler(Config{
			Service: "svc", QoS: q, Repository: repo, Predictor: hot,
			Lifecycle: LifecycleConfig{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		members := append([]wire.ReplicaID(nil), universe[:4]...)
		s.OnMembershipChange(members)
		strategy := selection.NewDynamic()
		now := time.Now()
		var table []model.ReplicaProbability
		var cold []repository.ReplicaSnapshot

		perf := func() wire.PerfReport {
			return wire.PerfReport{
				ServiceTime: time.Duration(rng.Intn(20000)) * time.Microsecond,
				QueueDelay:  time.Duration(rng.Intn(8000)) * time.Microsecond,
				QueueLength: rng.Intn(4),
			}
		}
		hist := func() (bins, counts []int64) {
			b := int64(rng.Intn(10))
			for n := 1 + rng.Intn(3); n > 0; n-- {
				bins, counts = append(bins, b), append(counts, int64(1+rng.Intn(2)))
				b += int64(1 + rng.Intn(5))
			}
			return bins, counts
		}

		for step := 0; step < 2000; step++ {
			now = now.Add(ms)
			id := universe[rng.Intn(len(universe))]
			method := methods[rng.Intn(len(methods))]
			var what string
			switch op := rng.Intn(20); {
			case op < 8:
				what = "RecordReply"
				repo.RecordReply(id, method, perf(), time.Duration(rng.Intn(4000)-200)*time.Microsecond, now)
			case op < 11:
				what = "RecordPerf"
				repo.RecordPerf(id, method, perf(), now)
			case op < 13:
				what = "RecordGatewayDelay"
				repo.RecordGatewayDelay(id, time.Duration(rng.Intn(4000)-200)*time.Microsecond)
			case op < 15:
				what = "AbsorbDigests"
				d := wire.WindowDigest{Replica: id, Method: method, QueueLength: rng.Intn(3), AgeNanos: int64(rng.Intn(5)) * int64(ms)}
				d.ServiceBins, d.ServiceCounts = hist()
				d.QueueBins, d.QueueCounts = hist()
				d.GatewayBins, d.GatewayCounts = hist()
				repo.AbsorbDigests(wire.DigestSync{ResolutionNanos: int64(ms), Digests: []wire.WindowDigest{d}}, now)
			case op < 17:
				// Leave or (re-)join under the same ID.
				what = "membership"
				kept := members[:0]
				for _, m := range members {
					if m != id {
						kept = append(kept, m)
					}
				}
				if len(kept) == len(members) || len(kept) == 0 {
					kept = append(kept, id)
				}
				members = kept
				s.OnMembershipChange(members)
			case op < 18:
				what = "Quarantine"
				repo.Quarantine(id, now)
			case op < 19:
				what = "Parole"
				repo.Parole(now)
			default:
				what = "FlushCache"
				hot.FlushCache()
			}

			for _, m := range methods {
				at := fmt.Sprintf("seed %d step %d (%s %s %q) method %q", seed, step, what, id, method, m)
				wantTable, wantCold, err := model.NewPredictor().ProbabilityTable(selectableSnapshots(repo.Snapshot(m)), q.Deadline)
				if err != nil {
					t.Fatalf("%s: oracle: %v", at, err)
				}
				table, cold, err = hot.ProbabilityTableInto(selectableSnapshots(repo.SnapshotShared(m)), q.Deadline, table[:0], cold[:0])
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if len(table) != len(wantTable) || len(cold) != len(wantCold) {
					t.Fatalf("%s: %d rows and %d cold, oracle %d and %d", at, len(table), len(cold), len(wantTable), len(wantCold))
				}
				for i := range table {
					if table[i].Snapshot.ID != wantTable[i].Snapshot.ID || table[i].Probability != wantTable[i].Probability {
						t.Fatalf("%s: row %d is %s %v, oracle %s %v", at, i,
							table[i].Snapshot.ID, table[i].Probability, wantTable[i].Snapshot.ID, wantTable[i].Probability)
					}
				}
				for i := range cold {
					if cold[i].ID != wantCold[i].ID {
						t.Fatalf("%s: cold %d is %s, oracle %s", at, i, cold[i].ID, wantCold[i].ID)
					}
				}
				want := strategy.Select(selection.Input{Table: wantTable, Cold: wantCold, QoS: q})
				got, err := s.Schedule(now, m)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if fmt.Sprint(got.Targets) != fmt.Sprint(want.Selected) || got.Predicted != want.Predicted {
					t.Fatalf("%s: selected %v at %v, oracle %v at %v", at, got.Targets, got.Predicted, want.Selected, want.Predicted)
				}
				s.Forget(got.Seq)
				got.Release()
			}
		}
	}
}
