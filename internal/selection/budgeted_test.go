package selection

import (
	"reflect"
	"testing"
	"time"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/wire"
)

// loadedRow builds a warm table row carrying a replica-reported queue length.
func loadedRow(id string, p float64, queue int) model.ReplicaProbability {
	r := row(id, p)
	r.QueueLength = queue
	return r
}

func TestBudgetForRamp(t *testing.T) {
	b := NewBudgeted()
	mk := func(load int) Input {
		// Half the load is reported queueing, half this gateway's own
		// unsettled dispatches.
		return Input{Table: ranked(
			loadedRow("a", 0.9, load),
			loadedRow("b", 0.8, 0),
			loadedRow("c", 0.7, load),
			loadedRow("d", 0.6, 0),
		), LiveInFlight: 2 * load}
	}
	// At or below budgetLowLoad (1.0 outstanding per replica) the budget is
	// the full pool; at or above budgetHighLoad (4.0) it is the MinBudget
	// floor.
	if got := b.BudgetFor(mk(0)); got != 4 {
		t.Errorf("idle budget = %d, want 4 (full pool)", got)
	}
	if got := b.BudgetFor(mk(1)); got != 4 {
		t.Errorf("budget at LowLoad = %d, want 4", got)
	}
	if got := b.BudgetFor(mk(4)); got != MinBudget {
		t.Errorf("budget at HighLoad = %d, want %d", got, MinBudget)
	}
	if got := b.BudgetFor(mk(100)); got != MinBudget {
		t.Errorf("budget far past HighLoad = %d, want %d", got, MinBudget)
	}
	// Between the thresholds the budget interpolates monotonically.
	mid := b.BudgetFor(mk(2))
	if mid < MinBudget || mid > 4 {
		t.Errorf("mid-ramp budget = %d, want within [%d,4]", mid, MinBudget)
	}
	if hi := b.BudgetFor(mk(3)); hi > mid {
		t.Errorf("budget grew with load: %d at load 3 vs %d at load 2", hi, mid)
	}
}

func TestBudgetForFloorsAndCeilings(t *testing.T) {
	in := Input{Table: ranked(
		loadedRow("a", 0.9, 50), loadedRow("b", 0.8, 50), loadedRow("c", 0.7, 50),
	)}
	// MinK below MinBudget is raised to MinBudget so the Eq. 3 reserve (m0
	// plus one working member) survives the harshest budget.
	b := &Budgeted{MinK: 1}
	if got := b.BudgetFor(in); got != MinBudget {
		t.Errorf("MinK=1 budget = %d, want floor %d", got, MinBudget)
	}
	// MaxK above the pool size clamps to the pool.
	idle := Input{Table: ranked(row("a", 0.9), row("b", 0.8))}
	b = &Budgeted{MaxK: 10}
	if got := b.BudgetFor(idle); got != 2 {
		t.Errorf("MaxK>pool budget = %d, want 2", got)
	}
}

func TestBudgetedIdleMatchesPaperAlgorithm(t *testing.T) {
	// With no outstanding work the budget is the full pool and the wrapper
	// must be byte-identical to the paper's Algorithm 1.
	in := Input{
		Table: ranked(
			row("a", 0.9), row("b", 0.8), row("c", 0.5), row("d", 0.2),
		),
		Cold: []repository.ReplicaSnapshot{coldSnap("e")},
		QoS:  qos(100*time.Millisecond, 0.8),
	}
	want := NewDynamic().Select(in)
	got := NewBudgeted().Select(in)
	if !reflect.DeepEqual(got.Selected, want.Selected) || got.Predicted != want.Predicted {
		t.Errorf("idle Budgeted = %v (P=%v), want paper-exact %v (P=%v)",
			got.Selected, got.Predicted, want.Selected, want.Predicted)
	}
	if got.Guarantee != GuaranteeEq3 {
		t.Errorf("idle decision is %v, want eq3", got.Guarantee)
	}
	if got.Budget != 5 {
		t.Errorf("Budget = %d, want 5 (full pool)", got.Budget)
	}
}

func TestBudgetedCapsSelectAllFallback(t *testing.T) {
	// Every F_Ri(t) is poor and Pc is unreachable: the paper's line-15
	// fallback would select all M and amplify the overload (the A12 cliff).
	// Under high load the budget must bound |K| at the floor instead.
	in := Input{
		Table: ranked(
			loadedRow("a", 0.3, 8), loadedRow("b", 0.2, 8),
			loadedRow("c", 0.1, 8), loadedRow("d", 0.1, 8),
			loadedRow("e", 0.05, 8),
		),
		LiveInFlight: 5 * 2,
		QoS:          qos(100*time.Millisecond, 0.99),
	}
	if got := NewDynamic().Select(in); len(got.Selected) != 5 || got.Guarantee != GuaranteeLine15 {
		t.Fatalf("paper algorithm selected %v (%v), want all 5 (line15)", got.Selected, got.Guarantee)
	}
	res := NewBudgeted().Select(in)
	if len(res.Selected) != MinBudget {
		t.Fatalf("|K| = %d under saturation, want budget floor %d", len(res.Selected), MinBudget)
	}
	if res.Guarantee != GuaranteeCapped || res.Budget != MinBudget {
		t.Errorf("Guarantee=%v Budget=%d, want capped/%d", res.Guarantee, res.Budget, MinBudget)
	}
	// The m0 crash reserve is the best replica and must survive the trim.
	if res.Selected[0] != "a" {
		t.Errorf("Selected = %v: m0 reserve %q not at head", res.Selected, "a")
	}
}

func TestBudgetedKeepsColdProbeSlot(t *testing.T) {
	// Warm replicas alone fill the budget and the trim would cut every
	// forced-cold probe. A replica that saturated once would then keep its
	// pessimistic window forever and never be rediscovered, so the worst
	// warm slot must be sacrificed for one cold probe.
	in := Input{
		Table: ranked(
			loadedRow("a", 0.3, 8), loadedRow("b", 0.2, 8), loadedRow("c", 0.1, 8),
		),
		Cold:         []repository.ReplicaSnapshot{coldSnap("x"), coldSnap("y")},
		LiveInFlight: 3 * 2,
		QoS:          qos(100*time.Millisecond, 0.99),
	}
	res := NewBudgeted().Select(in)
	if len(res.Selected) != MinBudget {
		t.Fatalf("|K| = %d, want budget floor %d", len(res.Selected), MinBudget)
	}
	got := idSet(res.Selected)
	if !got["a"] {
		t.Errorf("Selected = %v: m0 reserve dropped", res.Selected)
	}
	if !got["x"] {
		t.Errorf("Selected = %v: no cold-probe slot (want %q)", res.Selected, "x")
	}
	if res.Guarantee != GuaranteeCapped {
		t.Errorf("Guarantee = %v, want capped: Pc is unreachable within the budget", res.Guarantee)
	}
}

func TestBudgetedLabelsEachTrim(t *testing.T) {
	// Algorithm 1 meets Pc with K = {a, b}; the two forced-cold probes
	// overflow the budget.
	in := Input{
		Table: ranked(row("a", 0.9), row("b", 0.9), row("c", 0.1)),
		Cold:  []repository.ReplicaSnapshot{coldSnap("x"), coldSnap("y")},
		QoS:   qos(100*time.Millisecond, 0.8),
	}
	// Budget 3: only the cold tail is trimmed, so the warm members still
	// meet Eq. 3.
	if res := (&Budgeted{MaxK: 3}).Select(in); !reflect.DeepEqual(res.Selected, []wire.ReplicaID{"a", "b", "x"}) || res.Guarantee != GuaranteeEq3 {
		t.Errorf("budget 3: %v (%v), want [a b x] (eq3)", res.Selected, res.Guarantee)
	}
	// Budget 2: b is traded for a cold probe, and a alone cannot promise
	// Eq. 3. The decision is not a fallback, so the overload ladder's
	// |K| = 2 rung leaves it alone.
	res := (&Budgeted{MaxK: 2}).Select(in)
	if !reflect.DeepEqual(res.Selected, []wire.ReplicaID{"a", "x"}) || res.Guarantee != GuaranteeProbe || res.Guarantee.Fallback() {
		t.Errorf("budget 2: %v (%v), want [a x] (probe)", res.Selected, res.Guarantee)
	}
}

func TestBudgetedNeverExceedsBudget(t *testing.T) {
	// Property: |K| ≤ Budget across pool sizes, load levels, and cold mixes.
	for warm := 0; warm <= 6; warm++ {
		for cold := 0; cold <= 3; cold++ {
			if warm+cold == 0 {
				continue
			}
			for _, load := range []int{0, 2, 5, 20} {
				in := Input{QoS: qos(100*time.Millisecond, 0.999)}
				for i := 0; i < warm; i++ {
					in.Table = append(in.Table,
						loadedRow(string(rune('a'+i)), 0.1, load))
				}
				for i := 0; i < cold; i++ {
					in.Cold = append(in.Cold, coldSnap(string(rune('p'+i))))
				}
				res := NewBudgeted().Select(in)
				floor := MinBudget
				if n := warm + cold; n < floor {
					floor = n
				}
				if res.Budget < floor {
					t.Fatalf("warm=%d cold=%d load=%d: Budget=%d below floor %d",
						warm, cold, load, res.Budget, floor)
				}
				if len(res.Selected) > res.Budget {
					t.Errorf("warm=%d cold=%d load=%d: |K|=%d exceeds budget %d",
						warm, cold, load, len(res.Selected), res.Budget)
				}
			}
		}
	}
}

func TestBudgetedName(t *testing.T) {
	if got := NewBudgeted().Name(); got != "budgeted-dynamic" {
		t.Errorf("Name() = %q, want %q", got, "budgeted-dynamic")
	}
	if got := (&Budgeted{}).Name(); got != "budgeted-dynamic" {
		t.Errorf("zero-value Name() = %q, want %q", got, "budgeted-dynamic")
	}
}
