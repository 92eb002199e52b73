package selection

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

func row(id string, p float64) model.ReplicaProbability {
	return model.ReplicaProbability{ID: wire.ReplicaID(id), Probability: p}
}

// ranked puts hand-built rows in the predictor's rank order (decreasing
// probability, ties by ascending work, then by ascending ID): strategies read
// Input.Table as ranked.
func ranked(rows ...model.ReplicaProbability) []model.ReplicaProbability {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Probability != rows[j].Probability {
			return rows[i].Probability > rows[j].Probability
		}
		if rows[i].Work != rows[j].Work {
			return rows[i].Work < rows[j].Work
		}
		return rows[i].ID < rows[j].ID
	})
	return rows
}

// rawTable builds a ranked table from quick-check bytes, one replica per byte.
func rawTable(rawProbs []uint8) []model.ReplicaProbability {
	table := make([]model.ReplicaProbability, len(rawProbs))
	for i, v := range rawProbs {
		table[i] = row(string(rune('a'+i)), float64(v)/255)
	}
	return ranked(table...)
}

func coldSnap(id string) repository.ReplicaSnapshot {
	return repository.ReplicaSnapshot{ID: wire.ReplicaID(id)}
}

func qos(deadline time.Duration, pc float64) wire.QoS {
	return wire.QoS{Deadline: deadline, MinProbability: pc}
}

func idSet(ids []wire.ReplicaID) map[wire.ReplicaID]bool {
	m := make(map[wire.ReplicaID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestDynamicIncludesBestAndMeetsPc(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Table: ranked(
			row("a", 0.9), row("b", 0.8), row("c", 0.5), row("d", 0.2),
		),
		QoS: qos(100*time.Millisecond, 0.8),
	}
	res := d.Select(in)
	got := idSet(res.Selected)
	if !got["a"] {
		t.Error("best replica m0 not in selected set")
	}
	// X should be {b} since F_b = 0.8 >= 0.8; K = {a, b}.
	if len(res.Selected) != 2 || !got["b"] {
		t.Errorf("Selected = %v, want {a,b}", res.Selected)
	}
	if res.Guarantee != GuaranteeEq3 {
		t.Errorf("Guarantee = %v, want eq3", res.Guarantee)
	}
	// Predicted covers whole K: 1 - 0.1*0.2 = 0.98.
	if math.Abs(res.Predicted-0.98) > 1e-12 {
		t.Errorf("Predicted = %v, want 0.98", res.Predicted)
	}
}

func TestDynamicMinimumRedundancyIsTwo(t *testing.T) {
	// With Pc = 0 the condition holds after one member of X, so |K| = 2 —
	// the paper's observed floor ("a redundancy level of 2, which is the
	// minimum number of replicas selected by Algorithm 1").
	d := NewDynamic()
	in := Input{
		Table: ranked(row("a", 0.01), row("b", 0.01), row("c", 0.01)),
		QoS:   qos(time.Millisecond, 0),
	}
	res := d.Select(in)
	if len(res.Selected) != 2 {
		t.Errorf("|K| = %d, want 2 for Pc=0", len(res.Selected))
	}
}

func TestDynamicFallsBackToAllWhenUnsatisfiable(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Table: ranked(row("a", 0.3), row("b", 0.2), row("c", 0.1)),
		QoS:   qos(time.Millisecond, 0.99),
	}
	res := d.Select(in)
	if res.Guarantee != GuaranteeLine15 {
		t.Errorf("Guarantee = %v, want line15 fallback to M", res.Guarantee)
	}
	if len(res.Selected) != 3 {
		t.Errorf("Selected = %v, want all three", res.Selected)
	}
}

func TestDynamicSingleReplicaReturnsIt(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Table: ranked(row("only", 0.99)),
		QoS:   qos(time.Millisecond, 0.5),
	}
	res := d.Select(in)
	if len(res.Selected) != 1 || res.Selected[0] != "only" {
		t.Errorf("Selected = %v, want [only]", res.Selected)
	}
	// The loop over the (empty) rest cannot satisfy the condition, so this
	// is the line-15 fallback to M.
	if res.Guarantee != GuaranteeLine15 {
		t.Errorf("Guarantee = %v, want line15 for single-replica fallback", res.Guarantee)
	}
}

func TestDynamicColdStartSelectsAll(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Cold: []repository.ReplicaSnapshot{coldSnap("a"), coldSnap("b")},
		QoS:  qos(time.Millisecond, 0.9),
	}
	res := d.Select(in)
	if res.Guarantee != GuaranteeLine15 {
		t.Errorf("Guarantee = %v, want line15 on the all-cold first access", res.Guarantee)
	}
	if len(res.Selected) != 2 {
		t.Errorf("Selected = %v, want both cold replicas", res.Selected)
	}
}

func TestDynamicForcesColdReplicasIntoSet(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Table: ranked(row("a", 0.99), row("b", 0.99)),
		Cold:  []repository.ReplicaSnapshot{coldSnap("newbie")},
		QoS:   qos(time.Millisecond, 0.5),
	}
	res := d.Select(in)
	if !idSet(res.Selected)["newbie"] {
		t.Errorf("cold replica not probed: %v", res.Selected)
	}
	if res.Guarantee != GuaranteeEq3 {
		t.Errorf("Guarantee = %v, want eq3 over the warm members", res.Guarantee)
	}
}

func TestDynamicDeterministicTieBreak(t *testing.T) {
	d := NewDynamic()
	in := Input{
		Table: ranked(row("z", 0.5), row("a", 0.5), row("m", 0.5)),
		QoS:   qos(time.Millisecond, 0.4),
	}
	first := d.Select(in)
	for i := 0; i < 5; i++ {
		res := d.Select(in)
		if len(res.Selected) != len(first.Selected) {
			t.Fatal("nondeterministic size")
		}
		for j := range res.Selected {
			if res.Selected[j] != first.Selected[j] {
				t.Fatal("nondeterministic order")
			}
		}
	}
	// Ties break by ID: reserve should be "a".
	if first.Selected[0] != "a" {
		t.Errorf("reserve = %v, want a (ID tie-break)", first.Selected[0])
	}
}

// TestDynamicSingleCrashGuarantee is the paper's Equation 3 as a property:
// when Algorithm 1 returns without the line-15 fallback, removing ANY single
// member from K still leaves P_{K\{i}}(t) >= Pc(t).
func TestDynamicSingleCrashGuarantee(t *testing.T) {
	d := NewDynamic()
	f := func(rawProbs []uint8, rawPc uint8) bool {
		if len(rawProbs) < 2 || len(rawProbs) > 12 {
			return true
		}
		table := rawTable(rawProbs)
		pc := float64(rawPc) / 255
		res := d.Select(Input{Table: table, QoS: qos(time.Millisecond, pc)})
		if res.Guarantee != GuaranteeEq3 {
			return true // fallback: no guarantee claimed
		}
		rowOf := make(map[wire.ReplicaID]model.ReplicaProbability, len(table))
		for _, r := range table {
			rowOf[r.ID] = r
		}
		for skip := range res.Selected {
			var rows []model.ReplicaProbability
			for i, id := range res.Selected {
				if i == skip {
					continue
				}
				rows = append(rows, rowOf[id])
			}
			if model.SubsetProbability(rows) < pc-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDynamicMultiCrashGuarantee generalizes Equation 3 to f=2: removing any
// two members still satisfies Pc.
func TestDynamicMultiCrashGuarantee(t *testing.T) {
	d := NewDynamicMulti(2)
	f := func(rawProbs []uint8, rawPc uint8) bool {
		if len(rawProbs) < 3 || len(rawProbs) > 10 {
			return true
		}
		table := rawTable(rawProbs)
		pc := float64(rawPc) / 255
		res := d.Select(Input{Table: table, QoS: qos(time.Millisecond, pc)})
		if res.Guarantee != GuaranteeEq3 {
			return true
		}
		rowOf := make(map[wire.ReplicaID]model.ReplicaProbability, len(table))
		for _, r := range table {
			rowOf[r.ID] = r
		}
		for s1 := 0; s1 < len(res.Selected); s1++ {
			for s2 := s1 + 1; s2 < len(res.Selected); s2++ {
				var rows []model.ReplicaProbability
				for i, id := range res.Selected {
					if i == s1 || i == s2 {
						continue
					}
					rows = append(rows, rowOf[id])
				}
				if model.SubsetProbability(rows) < pc-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDynamicNoReserveCanReturnOne(t *testing.T) {
	d := NewDynamicNoReserve()
	in := Input{
		Table: ranked(row("a", 0.95), row("b", 0.5)),
		QoS:   qos(time.Millisecond, 0.9),
	}
	res := d.Select(in)
	if len(res.Selected) != 1 || res.Selected[0] != "a" {
		t.Errorf("Selected = %v, want just [a]", res.Selected)
	}
	if res.Guarantee != GuaranteeNone {
		t.Errorf("Guarantee = %v, want none without a reserve", res.Guarantee)
	}
}

func TestDynamicNames(t *testing.T) {
	if got := NewDynamic().Name(); got != "dynamic" {
		t.Errorf("Name() = %q", got)
	}
	if got := NewDynamicMulti(3).Name(); got != "dynamic-f3" {
		t.Errorf("Name() = %q", got)
	}
	if got := NewDynamicNoReserve().Name(); got != "dynamic-noreserve" {
		t.Errorf("Name() = %q", got)
	}
}

func TestSingleBest(t *testing.T) {
	s := SingleBest{}
	in := Input{
		Table: ranked(row("a", 0.3), row("b", 0.9), row("c", 0.5)),
		QoS:   qos(time.Millisecond, 0.9),
	}
	res := s.Select(in)
	if len(res.Selected) != 1 || res.Selected[0] != "b" {
		t.Errorf("Selected = %v, want [b]", res.Selected)
	}
	if res.Predicted != 0.9 {
		t.Errorf("Predicted = %v, want 0.9", res.Predicted)
	}
}

func TestSingleBestColdStart(t *testing.T) {
	s := SingleBest{}
	res := s.Select(Input{Cold: []repository.ReplicaSnapshot{coldSnap("x")}})
	if len(res.Selected) != 1 || res.Guarantee != GuaranteeLine15 {
		t.Errorf("res = %+v", res)
	}
}

func TestFixedK(t *testing.T) {
	f := FixedK{K: 2}
	in := Input{
		Table: ranked(row("a", 0.3), row("b", 0.9), row("c", 0.5)),
	}
	res := f.Select(in)
	got := idSet(res.Selected)
	if len(res.Selected) != 2 || !got["b"] || !got["c"] {
		t.Errorf("Selected = %v, want top-2 {b,c}", res.Selected)
	}
}

func TestFixedKClamps(t *testing.T) {
	in := Input{Table: ranked(row("a", 0.5))}
	if res := (FixedK{K: 10}).Select(in); len(res.Selected) != 1 {
		t.Errorf("Selected = %v, want clamp to 1", res.Selected)
	}
	if res := (FixedK{K: 0}).Select(in); len(res.Selected) != 1 {
		t.Errorf("Selected = %v, want at least 1", res.Selected)
	}
}

func TestAll(t *testing.T) {
	a := All{}
	in := Input{
		Table: ranked(row("b", 0.3), row("a", 0.9)),
		Cold:  []repository.ReplicaSnapshot{coldSnap("c")},
	}
	res := a.Select(in)
	if len(res.Selected) != 3 {
		t.Errorf("Selected = %v, want 3", res.Selected)
	}
	if res.Guarantee != GuaranteeLine15 {
		t.Errorf("Guarantee = %v, want line15", res.Guarantee)
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	in := Input{
		Table: ranked(row("a", 0.5), row("b", 0.5), row("c", 0.5), row("d", 0.5)),
	}
	r1 := NewRandom(2, 7)
	r2 := NewRandom(2, 7)
	for i := 0; i < 10; i++ {
		a, b := r1.Select(in), r2.Select(in)
		if len(a.Selected) != 2 || len(b.Selected) != 2 {
			t.Fatalf("sizes: %v %v", a.Selected, b.Selected)
		}
		for j := range a.Selected {
			if a.Selected[j] != b.Selected[j] {
				t.Fatal("same-seed random strategies diverged")
			}
		}
	}
}

func TestRandomEmptyInput(t *testing.T) {
	r := NewRandom(2, 1)
	if res := r.Select(Input{}); len(res.Selected) != 0 {
		t.Errorf("Selected = %v, want empty", res.Selected)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rr := NewRoundRobin(1)
	in := Input{
		Table: ranked(row("a", 0.5), row("b", 0.5), row("c", 0.5)),
	}
	var order []wire.ReplicaID
	for i := 0; i < 6; i++ {
		res := rr.Select(in)
		if len(res.Selected) != 1 {
			t.Fatalf("size = %d", len(res.Selected))
		}
		order = append(order, res.Selected[0])
	}
	want := []wire.ReplicaID{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRoundRobinPairs(t *testing.T) {
	rr := NewRoundRobin(2)
	in := Input{
		Table: ranked(row("a", 0.5), row("b", 0.5), row("c", 0.5)),
	}
	res := rr.Select(in)
	if res.Selected[0] != "a" || res.Selected[1] != "b" {
		t.Errorf("first pick = %v", res.Selected)
	}
	res = rr.Select(in)
	if res.Selected[0] != "c" || res.Selected[1] != "a" {
		t.Errorf("second pick = %v (wrap expected)", res.Selected)
	}
}

func TestStrategyNamesUnique(t *testing.T) {
	strategies := []Strategy{
		NewDynamic(), NewDynamicMulti(2), NewDynamicNoReserve(),
		SingleBest{}, FixedK{K: 3}, All{}, NewRandom(2, 1), NewRoundRobin(2),
	}
	seen := map[string]bool{}
	for _, s := range strategies {
		if s.Name() == "" {
			t.Errorf("%T: empty name", s)
		}
		if seen[s.Name()] {
			t.Errorf("duplicate name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestDynamicCappedFallback(t *testing.T) {
	d := NewDynamicCapped(3)
	if got := d.Name(); got != "dynamic-cap3" {
		t.Errorf("Name() = %q", got)
	}
	in := Input{
		Table: ranked(
			row("a", 0.3), row("b", 0.2), row("c", 0.1), row("d", 0.1), row("e", 0.1),
		),
		QoS: qos(time.Millisecond, 0.999), // unsatisfiable
	}
	res := d.Select(in)
	if len(res.Selected) != 3 {
		t.Fatalf("capped fallback selected %d, want 3: %v", len(res.Selected), res.Selected)
	}
	if res.Guarantee != GuaranteeCapped {
		t.Errorf("Guarantee = %v, want capped", res.Guarantee)
	}
	got := idSet(res.Selected)
	if !got["a"] || !got["b"] || !got["c"] {
		t.Errorf("capped fallback should take the best 3: %v", res.Selected)
	}
	// When a satisfying subset exists within the cap (Pc=0.2 is met by
	// X={b} alone, so K={a,b}), behaviour matches the uncapped algorithm.
	in.QoS = qos(time.Millisecond, 0.2)
	capped, plain := d.Select(in), NewDynamic().Select(in)
	if len(capped.Selected) != len(plain.Selected) {
		t.Errorf("capped (%v) diverged from plain (%v) on satisfiable input",
			capped.Selected, plain.Selected)
	}
}

func TestDynamicCappedStillCrashSafeWhenSatisfiable(t *testing.T) {
	// The cap only changes the fallback: whenever the capped algorithm
	// returns eq3, Equation 3 must still hold.
	d := NewDynamicCapped(4)
	f := func(rawProbs []uint8, rawPc uint8) bool {
		if len(rawProbs) < 2 || len(rawProbs) > 10 {
			return true
		}
		table := rawTable(rawProbs)
		pc := float64(rawPc) / 255
		res := d.Select(Input{Table: table, QoS: qos(time.Millisecond, pc)})
		if res.Guarantee != GuaranteeEq3 {
			return len(res.Selected) <= 4 // the cap itself
		}
		rowOf := make(map[wire.ReplicaID]model.ReplicaProbability, len(table))
		for _, r := range table {
			rowOf[r.ID] = r
		}
		for skip := range res.Selected {
			var rows []model.ReplicaProbability
			for i, id := range res.Selected {
				if i == skip {
					continue
				}
				rows = append(rows, rowOf[id])
			}
			if model.SubsetProbability(rows) < pc-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestSelectAllocs fences the score-driven strategies on the scheduler's
// input: a ranked table and a caller-owned SelectedBuf. Selection then reads
// the table in place and allocates nothing, whether Pc is met early, late or
// not at all.
func TestSelectAllocs(t *testing.T) {
	table := make([]model.ReplicaProbability, 8)
	for i := range table {
		table[i] = row(string(rune('a'+i)), 0.95-0.1*float64(i))
	}
	table = ranked(table...)
	buf := make([]wire.ReplicaID, 0, len(table))
	for _, s := range []Strategy{NewDynamic(), NewDynamicCapped(3), NewBudgeted(), FixedK{K: 3}, SingleBest{}} {
		for _, pc := range []float64{0.5, 0.99, 0.999999} {
			in := Input{Table: table, QoS: qos(time.Millisecond, pc), SelectedBuf: buf}
			if allocs := testing.AllocsPerRun(100, func() { s.Select(in) }); allocs != 0 {
				t.Errorf("%s at Pc %v: %.1f allocations per Select, want 0", s.Name(), pc, allocs)
			}
		}
	}
}
