package selection

// The minimum-size oracle. DESIGN.md §1 item 3 proves that Algorithm 1's K is
// a smallest set that meets Pc(t) after any f of its members crash, and that
// line 15 fires only when no set does. This oracle checks both against every
// one of the 2^n subsets of a table, rather than against the proof's argument.

import (
	"flag"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

var oracleSeed = flag.Uint64("oracle.seed", 0, "seed for the minimum-size oracle; 0 draws a fresh one")

// maxOracleN and maxOracleF bound the exhaustive walk: 2^9 subsets, up to
// three crashes.
const (
	maxOracleN = 9
	maxOracleF = 3
)

// tolerance is the oracle's scratch, reused across tables so that no subset
// allocates.
type tolerance struct {
	// prod[S] is ∏(1 − F_i) over subset S, multiplied in table order.
	prod [1 << maxOracleN]float64
	// ok[k][S]: every subset left after k members of S crash meets Pc(t),
	// and at least one member is left.
	ok [maxOracleF + 1][1 << maxOracleN]bool
}

// walk fills prod and ok for the table, f crashes and Pc(t). Meeting Pc(t)
// is Equation 1 under Algorithm 1's boundary rule, MeetsPc; the empty set
// meets nothing. A set tolerates k crashes iff each set one crash leaves
// tolerates k − 1.
func (o *tolerance) walk(table []model.ReplicaProbability, f int, pc float64) {
	n := len(table)
	o.prod[0] = 1
	o.ok[0][0] = false
	for s := 1; s < 1<<n; s++ {
		hi := bits.Len(uint(s)) - 1
		// A running product over the masks: S's is S-without-its-last's
		// times the last member's factor.
		o.prod[s] = o.prod[s&^(1<<hi)] * max(1-table[hi].Probability, 0)
		o.ok[0][s] = MeetsPc(o.prod[s], pc)
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

// oracleIDs name the replicas of an oracle table without allocating.
var oracleIDs = [...]wire.ReplicaID{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "c0", "c1"}

// drawOracleCase fills table (ranked) and cold with one random case: n ≤ 9
// warm rows whose F_Ri(t) are on the 1/255 grid, with ties, 0, 1 and the
// exact boundary F = Pc(t) drawn often, plus up to two cold replicas.
func drawOracleCase(rng *rand.Rand, table []model.ReplicaProbability, cold []repository.ReplicaSnapshot) ([]model.ReplicaProbability, []repository.ReplicaSnapshot, int, float64) {
	n := rng.IntN(maxOracleN + 1)
	f := 1 + rng.IntN(maxOracleF)
	pc := float64(rng.IntN(256)) / 255
	table = table[:0]
	for i := 0; i < n; i++ {
		var p float64
		switch r := rng.IntN(8); {
		case r == 0:
			p = 0
		case r == 1:
			p = 1
		case r == 2:
			p = pc
		case r == 3 && i > 0:
			p = table[rng.IntN(i)].Probability
		default:
			p = float64(rng.IntN(256)) / 255
		}
		table = append(table, model.ReplicaProbability{ID: oracleIDs[i], Probability: p})
	}
	slices.SortStableFunc(table, func(a, b model.ReplicaProbability) int {
		switch {
		case a.Probability > b.Probability:
			return -1
		case a.Probability < b.Probability:
			return 1
		}
		return 0 // IDs are drawn in ascending order, so stability ranks ties by ID
	})
	cold = cold[:0]
	for i := rng.IntN(3); i > 0; i-- {
		cold = append(cold, repository.ReplicaSnapshot{ID: oracleIDs[maxOracleN+len(cold)]})
	}
	return table, cold, f, pc
}

// checkMinimumSize holds one decision of NewDynamicMulti(f) to the oracle:
// its warm members are a prefix of the table that tolerates f crashes and is
// no larger than any other tolerant subset; when no subset tolerates f
// crashes it is all of M; the label says which; Predicted is Equation 1 over
// the warm members; and the cold replicas follow the warm ones. It returns
// "" or what went wrong.
func checkMinimumSize(o *tolerance, table []model.ReplicaProbability, cold []repository.ReplicaSnapshot, f int, pc float64, selected []wire.ReplicaID, g Guarantee, predicted float64) string {
	o.walk(table, f, pc)
	want := o.minTolerant(len(table), f)
	warm := len(selected) - len(cold)
	switch {
	case warm < 0 || warm > len(table):
		return "selected set does not hold the warm prefix and the cold list"
	case !slices.Equal(selected[warm:], coldIDsOf(cold)):
		return "cold replicas are not the tail of K"
	}
	for i := 0; i < warm; i++ {
		if selected[i] != table[i].ID {
			return "warm members are not a prefix of the ranked table"
		}
	}
	mask := 1<<warm - 1
	switch {
	case want < 0 && g != GuaranteeLine15:
		return "no subset tolerates f crashes, but the label is " + g.String()
	case want < 0 && warm != len(table):
		return "no subset tolerates f crashes, but K is not all of M"
	case want >= 0 && g != GuaranteeEq3:
		return "a tolerant subset exists, but the label is " + g.String()
	case want >= 0 && !o.ok[f][mask]:
		return "K does not tolerate f crashes"
	case want >= 0 && warm != want:
		return "K is not a smallest tolerant subset"
	case warm > 0 && predicted != 1-o.prod[mask]:
		return "Predicted is not Equation 1 over the warm members"
	}
	return ""
}

// coldIDsOf is the cold list's IDs, in order.
func coldIDsOf(cold []repository.ReplicaSnapshot) []wire.ReplicaID {
	ids := make([]wire.ReplicaID, 0, 2)
	for i := range cold {
		ids = append(ids, cold[i].ID)
	}
	return ids
}

// TestDynamicMinimumSizeOracle draws tables with a fresh seed each run and
// holds NewDynamicMulti(f), f ∈ {1, 2, 3}, to the exhaustive oracle.
func TestDynamicMinimumSizeOracle(t *testing.T) {
	seed := *oracleSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	var o tolerance
	var strategies [maxOracleF + 1]*Dynamic
	for f := 1; f <= maxOracleF; f++ {
		strategies[f] = NewDynamicMulti(f)
	}
	table := make([]model.ReplicaProbability, 0, maxOracleN)
	cold := make([]repository.ReplicaSnapshot, 0, 2)
	buf := make([]wire.ReplicaID, 0, len(oracleIDs))
	var f int
	var pc float64
	for c := 0; c < 50000; c++ {
		table, cold, f, pc = drawOracleCase(rng, table, cold)
		res := strategies[f].Select(Input{Table: table, Cold: cold, QoS: qos(time.Millisecond, pc), SelectedBuf: buf})
		if msg := checkMinimumSize(&o, table, cold, f, pc, res.Selected, res.Guarantee, res.Predicted); msg != "" {
			t.Fatalf("case %d: %s\nf=%d Pc=%v table=%v cold=%d\nselected %v (%v)\nrerun with -oracle.seed=%d",
				c, msg, f, pc, table, len(cold), res.Selected, res.Guarantee, seed)
		}
	}
}

// TestDynamicExactBoundary pins the boundary rule: a single F_i = Pc(t) is
// enough on its own, so K is the reserve plus that one replica. Computed as
// 1 − ∏(1 − F) ≥ Pc(t), the sum rounds one ulp below Pc(t) and Algorithm 1
// takes a third replica it does not need.
func TestDynamicExactBoundary(t *testing.T) {
	in := Input{
		Table: ranked(row("a", 1), row("b", 1.0/255), row("c", 1.0/255)),
		QoS:   qos(time.Millisecond, 1.0/255),
	}
	res := NewDynamic().Select(in)
	if len(res.Selected) != 2 || res.Guarantee != GuaranteeEq3 {
		t.Errorf("Selected = %v (%v), want [a b] (eq3)", res.Selected, res.Guarantee)
	}
}

// TestDynamicExactMultiFactorBoundary pins the boundary for a product: at
// Pc(t) = 0.9, X = {0.6, 0.5, 0.5} has ∏(1 − F) = 0.4 · 0.5 · 0.5 = 1 − Pc(t)
// exactly, but computes fl(0.1), two ulps above 1 − fl(0.9). MeetsPc accepts
// it, so K is the reserve plus those three and not a fifth replica.
func TestDynamicExactMultiFactorBoundary(t *testing.T) {
	f, pc := []float64{0.6, 0.5, 0.5}, 0.9 // variables: Go folds constant arithmetic exactly
	if prod := (1 - f[0]) * (1 - f[1]) * (1 - f[2]); prod <= 1-pc {
		t.Fatalf("∏ = %v is not above 1 − fl(0.9) = %v: the case no longer rounds", prod, 1-pc)
	}
	in := Input{
		Table: ranked(row("a", 1), row("b", f[0]), row("c", f[1]), row("d", f[2]), row("e", 0.5)),
		QoS:   qos(time.Millisecond, pc),
	}
	res := NewDynamic().Select(in)
	if want := []wire.ReplicaID{"a", "b", "c", "d"}; !slices.Equal(res.Selected, want) || res.Guarantee != GuaranteeEq3 {
		t.Errorf("Selected = %v (%v), want %v (eq3)", res.Selected, res.Guarantee, want)
	}
}
