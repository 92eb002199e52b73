package core

// The minimum-size oracle one layer up: internal/selection holds Algorithm 1
// to an exhaustive walk over every subset of a table; this holds the
// scheduler's decisions to the same walk, each against the table it was made
// from, so the theorem stays pinned wherever the decision is computed.

import (
	"flag"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

var oracleSeed = flag.Uint64("oracle.seed", 0, "seed for the minimum-size oracle; 0 draws a fresh one")

const (
	maxOracleN = 9
	maxOracleF = 3
)

// tolerance is the exhaustive walk of internal/selection's oracle_test.go:
// prod[S] is ∏(1 − F_i) over subset S in table order, and ok[k][S] holds
// when S keeps at least one member and meets Pc(t), by selection.MeetsPc,
// after any k of its members crash.
type tolerance struct {
	prod [1 << maxOracleN]float64
	ok   [maxOracleF + 1][1 << maxOracleN]bool
}

func (o *tolerance) walk(table []model.ReplicaProbability, f int, pc float64) {
	n := len(table)
	o.prod[0] = 1
	o.ok[0][0] = false
	for s := 1; s < 1<<n; s++ {
		hi := bits.Len(uint(s)) - 1
		o.prod[s] = o.prod[s&^(1<<hi)] * max(1-table[hi].Probability, 0)
		o.ok[0][s] = selection.MeetsPc(o.prod[s], pc)
	}
	for k := 1; k <= f; k++ {
		for s := 0; s < 1<<n; s++ {
			ok := bits.OnesCount(uint(s)) > k
			for rest := s; ok && rest != 0; rest &= rest - 1 {
				ok = o.ok[k-1][s&^(rest&-rest)]
			}
			o.ok[k][s] = ok
		}
	}
}

// minTolerant returns the size of a smallest subset that tolerates f
// crashes after walk, or -1 when none does.
func (o *tolerance) minTolerant(n, f int) int {
	best := -1
	for s := 0; s < 1<<n; s++ {
		if c := bits.OnesCount(uint(s)); o.ok[f][s] && (best < 0 || c < best) {
			best = c
		}
	}
	return best
}

// TestScheduleMinimumSizeOracle drives one scheduler per f ∈ {1, 2, 3}
// (Algorithm 1 with an f-crash reserve) over a repository that a fresh seed
// fills with constant and mixed windows, so F_Ri(t) takes the values 0 and 1
// and ties often. Every round moves one replica's window and decides twice
// at a Pc(t) on the 1/255 grid: once on the predictor's fresh path and once
// on its cached path. Every round also dispatches and settles a few copies at
// random, so ties among equal F_Ri(t) are ranked by outstanding work. Each
// decision must be the warm prefix of the table it was made from —
// recomputed here by a separate predictor over the same in-flight counts —
// of the smallest size that tolerates f crashes, all of M when no subset
// does, labelled eq3 or line15 accordingly, with Predicted as Equation 1 over
// it and the cold replicas after it.
func TestScheduleMinimumSizeOracle(t *testing.T) {
	seed := *oracleSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	var o tolerance
	for pool := 0; pool < 8; pool++ {
		if msg := checkPoolAgainstOracle(t, rng, &o); msg != "" {
			t.Fatalf("pool %d, %s\nrerun with -oracle.seed=%d", pool, msg, seed)
		}
	}
}

// checkPoolAgainstOracle builds a pool of up to nine cold replicas, runs 300
// rounds of TestScheduleMinimumSizeOracle over it, and returns "" or the
// first decision the oracle refutes.
func checkPoolAgainstOracle(t *testing.T, rng *rand.Rand, o *tolerance) string {
	const deadline = 12 * ms
	repo := repository.New()
	ids := make([]wire.ReplicaID, 1+rng.IntN(maxOracleN))
	for i := range ids {
		ids[i] = wire.ReplicaID(fmt.Sprintf("r%d", i))
		repo.AddReplica(ids[i])
	}
	var scheds [maxOracleF + 1]*Scheduler
	for f := 1; f <= maxOracleF; f++ {
		s, err := NewScheduler(Config{
			Service:    "svc",
			QoS:        wire.QoS{Deadline: deadline, MinProbability: 0.5},
			Repository: repo,
			Strategy:   selection.NewDynamicMulti(f),
		})
		if err != nil {
			t.Fatal(err)
		}
		scheds[f] = s
	}
	oracle := model.NewPredictor()
	now := time.Now()
	var copies []wire.ReplicaID
	for round := 0; round < 300; round++ {
		// Service times of 2, 6, 11 or 20 ms against a 12 ms deadline.
		svc := []time.Duration{2, 6, 11, 20}[rng.IntN(4)] * ms
		repo.RecordPerf(ids[rng.IntN(len(ids))], "", wire.PerfReport{ServiceTime: svc}, now)
		copies = copies[:0]
		for n := rng.IntN(4); n > 0; n-- {
			copies = append(copies, ids[rng.IntN(len(ids))])
		}
		repo.NoteDispatchedAll(copies)
		for n := rng.IntN(4); n > 0; n-- {
			repo.NoteSettled(ids[rng.IntN(len(ids))])
		}
		f := 1 + rng.IntN(maxOracleF)
		q := wire.QoS{Deadline: deadline, MinProbability: float64(rng.IntN(256)) / 255}
		if err := scheds[f].Renegotiate(q); err != nil {
			t.Fatal(err)
		}
		snaps := repo.Snapshot("")
		repo.FillInFlight(snaps)
		table, cold, err := oracle.ProbabilityTable(snaps, deadline)
		if err != nil {
			t.Fatal(err)
		}
		o.walk(table, f, q.MinProbability)
		want := o.minTolerant(len(table), f)
		for _, path := range []string{"fresh", "cached"} {
			d, err := scheds[f].Schedule(now, "")
			if err != nil {
				t.Fatal(err)
			}
			warm := len(d.Targets) - len(cold)
			var msg string
			switch {
			case warm < 0 || !slices.Equal(d.Targets[warm:], coldIDList(cold)):
				msg = "cold replicas are not the tail of K"
			case !slices.Equal(d.Targets[:warm], tableIDs(table[:min(warm, len(table))])):
				msg = "warm members are not a prefix of the ranked table"
			case d.ColdStart != (len(cold) > 0):
				msg = "ColdStart does not match the cold list"
			case want < 0 && (d.Guarantee != selection.GuaranteeLine15 || warm != len(table)):
				msg = "no subset tolerates f crashes, but K is not all of M labelled line15"
			case want >= 0 && d.Guarantee != selection.GuaranteeEq3:
				msg = "a tolerant subset exists, but the label is not eq3"
			case want >= 0 && (!o.ok[f][1<<warm-1] || warm != want):
				msg = fmt.Sprintf("K is not a smallest tolerant subset (%d members)", want)
			case warm > 0 && d.Predicted != 1-o.prod[1<<warm-1]:
				msg = "Predicted is not Equation 1 over the warm members"
			}
			if msg != "" {
				return fmt.Sprintf("round %d, %s path: %s\nf=%d Pc=%v table=%v cold=%d\ntargets %v (%v)",
					round, path, msg, f, q.MinProbability, table, len(cold), d.Targets, d.Guarantee)
			}
			scheds[f].Forget(d.Seq)
			d.Release()
		}
	}
	return ""
}

func tableIDs(table []model.ReplicaProbability) []wire.ReplicaID {
	ids := make([]wire.ReplicaID, len(table))
	for i := range table {
		ids[i] = table[i].ID
	}
	return ids
}

func coldIDList(cold []repository.ReplicaSnapshot) []wire.ReplicaID {
	ids := make([]wire.ReplicaID, len(cold))
	for i := range cold {
		ids[i] = cold[i].ID
	}
	return ids
}
