// Package selection implements the paper's replica selection algorithm
// (Algorithm 1, §5.3.2) together with the generalizations sketched in the
// paper and the single-replica baselines it compares against conceptually
// (§1, §7).
//
// Algorithm 1 sorts replicas by decreasing F_Ri(t), reserves the
// highest-probability replica m0, and grows a candidate set X from the rest
// until P_X(t) ≥ Pc(t) (Equation 1). The returned set K = X ∪ {m0} then
// meets the client's probabilistic deadline even if any single member of K
// crashes (Equation 3). If no such X exists, the full replica set M is
// returned.
//
// The sort is not done here: the predictor returns its table already ranked
// (model.Predictor.ProbabilityTable), so every set a score-driven strategy
// selects is a prefix of Input.Table.
package selection

import (
	"fmt"
	"math"
	"slices"

	"aqua/internal/model"
	"aqua/internal/repository"
	"aqua/internal/stats"
	"aqua/internal/wire"
)

// Input is what a strategy selects from: the predicted probability table for
// replicas with measurement history, the replicas still lacking history
// (cold), and the client's QoS specification.
type Input struct {
	// Table holds F_Ri(t) per warm replica in the predictor's rank order:
	// decreasing probability, ties by ascending outstanding work
	// (model.ReplicaProbability.Work), then by ascending replica ID.
	// Strategies rely on that order; a hand-built table must be ranked the
	// same way. t already includes overhead compensation when enabled.
	Table []model.ReplicaProbability
	// Cold lists replicas with no usable history. The dynamic strategy
	// always includes them so they get probed and start publishing
	// performance updates (the paper's cold-start rule generalized to
	// per-replica granularity).
	Cold []repository.ReplicaSnapshot
	// QoS carries the deadline t and required probability Pc(t).
	QoS wire.QoS
	// SelectedBuf, when non-nil, is a caller-owned scratch buffer (used from
	// length zero) that strategies may return as Result.Selected, avoiding a
	// per-decision allocation. A caller that reuses the buffer must copy
	// Result.Selected out before its next Select.
	SelectedBuf []wire.ReplicaID
	// LiveInFlight is the number of copies this gateway has dispatched to the
	// listed replicas that have not settled yet, read from the live counters
	// at decision time (repository.Repository.FillInFlight). Budgeted adds it
	// to the replica-reported queue lengths.
	LiveInFlight int
	// Controller, when non-nil, replaces Budgeted's static load→budget
	// interpolation with an online set-point search (core.AdaptiveBudget):
	// the strategy hands it the measured per-replica outstanding level and
	// lets it pick the |K| budget, clamped to the strategy's [MinK, MaxK].
	Controller BudgetController
}

// BudgetController is an online redundancy controller: given the measured
// per-replica outstanding-work level and the pool size, it returns the |K|
// budget to apply to this decision. Implementations live above this package
// (core.AdaptiveBudget); the interface keeps selection free of a dependency
// on the controller's state machine.
type BudgetController interface {
	BudgetFor(perReplicaOutstanding float64, n int) int
}

// Result is a selection decision.
type Result struct {
	// Selected is the chosen subset K, deterministic order.
	Selected []wire.ReplicaID
	// Predicted is P_K(t) per Equation 1 over the warm members of K (cold
	// members contribute unknown probability and are excluded from the
	// estimate).
	Predicted float64
	// Guarantee is what K promises about Equation 3.
	Guarantee Guarantee
	// Budget is the load-conditioned redundancy cap that bounded |K| for
	// this decision, when the strategy applies one (selection.Budgeted);
	// zero means unbounded.
	Budget int
}

// Guarantee labels a decision with the one promise its K keeps. The zero
// value is GuaranteeNone.
type Guarantee uint8

const (
	// GuaranteeNone: a strategy without a crash reserve chose K, so K
	// promises nothing beyond its own P_K(t).
	GuaranteeNone Guarantee = iota
	// GuaranteeEq3: the warm members of K meet Pc(t) even if any f of them
	// crash (Equation 3), and no smaller warm set does.
	GuaranteeEq3
	// GuaranteeLine15: K is all of M. No warm subset meets the strategy's
	// target (Algorithm 1's line 15), no replica is warm yet, or the
	// strategy (All) always sends to M.
	GuaranteeLine15
	// GuaranteeCapped: the target was unreachable within a cap on |K|
	// (Dynamic.Cap, Budgeted's budget or the overload ladder's |K| = 2
	// rung), so K is cut below all of M.
	GuaranteeCapped
	// GuaranteeProbe: Algorithm 1 met Pc(t), then Budgeted traded K's last
	// warm member for a cold probe to stay within its budget, so the warm
	// members of K may no longer meet Equation 3.
	GuaranteeProbe

	// NumGuarantees is the number of Guarantee values.
	NumGuarantees = iota
)

var guaranteeNames = [NumGuarantees]string{"none", "eq3", "line15", "capped", "probe"}

// String returns the label's name, as the decisions metric labels it.
func (g Guarantee) String() string { return guaranteeNames[g] }

// Fallback reports that K is a fallback set: the strategy's target was
// unreachable, and K is all of M or a capped prefix of it.
func (g Guarantee) Fallback() bool { return g == GuaranteeLine15 || g == GuaranteeCapped }

// Strategy chooses a replica subset for one request.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Select returns the replicas to which the request will be multicast.
	// The returned set is non-empty whenever the input contains at least
	// one replica.
	Select(in Input) Result
}

// coldIDs extracts IDs from cold snapshots.
func coldIDs(cold []repository.ReplicaSnapshot) []wire.ReplicaID {
	return appendColdIDs(make([]wire.ReplicaID, 0, len(cold)), cold)
}

// appendTableIDs appends each row's ID to ids.
func appendTableIDs(ids []wire.ReplicaID, table []model.ReplicaProbability) []wire.ReplicaID {
	for i := range table {
		ids = append(ids, table[i].ID)
	}
	return ids
}

// appendColdIDs appends each cold snapshot's ID to ids.
func appendColdIDs(ids []wire.ReplicaID, cold []repository.ReplicaSnapshot) []wire.ReplicaID {
	for i := range cold {
		ids = append(ids, cold[i].ID)
	}
	return ids
}

// candidateIDs collects every candidate (warm then cold) into buf and sorts
// ascending by ID. The repository emits snapshots in ascending ID order, so
// this equals repository order — the deterministic, score-free ordering the
// baseline strategies (All, Random, RoundRobin) share.
func candidateIDs(in Input, buf []wire.ReplicaID) []wire.ReplicaID {
	ids := appendTableIDs(buf, in.Table)
	ids = appendColdIDs(ids, in.Cold)
	slices.Sort(ids)
	return ids
}

// Dynamic is the paper's Algorithm 1 generalized to reserve the top
// Failures replicas (Failures=1 reproduces the paper exactly; the paper
// notes the multi-failure extension in §5.3.2). With Failures=0 the
// algorithm keeps no crash reserve and can return a single replica — the A4
// ablation.
type Dynamic struct {
	// Failures is the number of simultaneous replica crashes the selected
	// set must tolerate: the size of the crash reserve. The paper's
	// algorithm uses 1; 0 keeps no reserve.
	Failures int
	// Cap, when positive, bounds |K|: when no subset satisfies Pc(t), the
	// algorithm returns the best Cap replicas instead of all of M. The
	// paper's line-15 fallback amplifies overload (ablation A12); the cap
	// is the overload-safe variant.
	Cap int
}

var _ Strategy = (*Dynamic)(nil)

// NewDynamic returns the paper's Algorithm 1 (single-crash reserve).
func NewDynamic() *Dynamic { return &Dynamic{Failures: 1} }

// NewDynamicMulti returns the f-failure generalization; f below 1 means 1.
func NewDynamicMulti(f int) *Dynamic { return &Dynamic{Failures: max(f, 1)} }

// NewDynamicNoReserve returns the variant without the m0 crash reserve.
func NewDynamicNoReserve() *Dynamic { return &Dynamic{} }

// NewDynamicCapped returns Algorithm 1 with the fallback capped at maxK
// replicas instead of all of M.
func NewDynamicCapped(maxK int) *Dynamic {
	return &Dynamic{Failures: 1, Cap: maxK}
}

// Name implements Strategy.
func (d *Dynamic) Name() string {
	if d.Failures < 1 {
		return "dynamic-noreserve"
	}
	name := "dynamic"
	if d.Failures > 1 {
		name = fmt.Sprintf("dynamic-f%d", d.Failures)
	}
	if d.Cap > 0 {
		name = fmt.Sprintf("%s-cap%d", name, d.Cap)
	}
	return name
}

// Select implements Algorithm 1. Cold replicas are always included (forced
// probing); if every replica is cold this degenerates to the paper's
// first-access rule of selecting all of M.
func (d *Dynamic) Select(in Input) Result {
	forced := coldIDs(in.Cold)
	if len(in.Table) == 0 {
		return Result{Selected: forced, Guarantee: GuaranteeLine15}
	}
	ranked := in.Table
	reserve, met := min(max(d.Failures, 0), len(ranked)), GuaranteeEq3
	if d.Failures < 1 {
		met = GuaranteeNone
	}
	// ranked[:reserve] is the m0 … m_{f-1} crash reserve. Grow X from the
	// remaining replicas, in rank order, until Equation 1 meets Pc(t) without
	// counting the reserve (Algorithm 1 lines 6-14); K = reserve ∪ X is then
	// the prefix ranked[:reserve+|X|]. P_X(t) ≥ Pc(t) is decided by MeetsPc.
	prod := 1.0
	for i, r := range ranked[reserve:] {
		g := 1 - r.Probability
		if g < 0 {
			g = 0
		}
		prod *= g
		if MeetsPc(prod, in.QoS.MinProbability) {
			k := ranked[:reserve+i+1]
			return Result{
				Selected:  append(appendTableIDs(in.SelectedBuf[:0], k), forced...),
				Predicted: model.SubsetProbability(k),
				Guarantee: met,
			}
		}
		if d.Cap > 0 && reserve+i+1 >= d.Cap {
			break // capped: stop growing X even though Pc is unmet
		}
	}
	// No acceptable subset: return the complete replica set M (line 15), or
	// the best Cap replicas when the overload-safe cap is configured.
	fallback, g := ranked, GuaranteeLine15
	if d.Cap > 0 && d.Cap < len(ranked) {
		fallback, g = ranked[:d.Cap], GuaranteeCapped
	}
	return Result{
		Selected:  append(appendTableIDs(in.SelectedBuf[:0], fallback), forced...),
		Predicted: model.SubsetProbability(fallback),
		Guarantee: g,
	}
}

// boundaryULPs is MeetsPc's tolerance in units in the last place of 1 − Pc.
// Every product of up to four factors on the 0.1 and 0.05 grids, and of two
// on the 0.01 grid, that equals 1 − Pc in exact arithmetic computes within 4
// ulps of it; 8 leaves room for longer products.
const boundaryULPs = 8

// MeetsPc reports whether a set whose members' factors 1 − F_i multiply to
// prod meets Pc: P = 1 − prod ≥ Pc, decided as prod ≤ 1 − Pc within
// boundaryULPs. Comparing the product rather than 1 − prod keeps a single
// F_i = Pc exact, and the tolerance keeps a product that equals 1 − Pc in
// exact arithmetic from being refused for its rounding: at Pc = 0.9 the set
// {0.6, 0.5, 0.5} computes ∏ = fl(0.1), two ulps above 1 − fl(0.9).
// Algorithm 1 and its minimum-size oracles share it, so they decide every
// boundary alike.
func MeetsPc(prod, pc float64) bool {
	limit := 1 - pc
	return prod <= limit+boundaryULPs*(math.Nextafter(limit, 2)-limit)
}

// The per-replica outstanding-work levels (the mean of replica-reported queue
// length plus this gateway's own unsettled dispatches) at or below which the
// budget stays at its ceiling, and at or above which it drops to its floor.
// Between the two the budget interpolates linearly, so the redundancy ramps
// down smoothly as the pool saturates instead of flipping at a single
// threshold.
const (
	budgetLowLoad  = 1.0
	budgetHighLoad = 4.0
)

// MinBudget is the smallest redundancy budget Budgeted will apply: the m0
// crash reserve plus one working member, so Equation 3's single-crash
// guarantee holds within the budget even at the floor.
const MinBudget = 2

// Budgeted wraps Algorithm 1 with a load-conditioned redundancy budget: the
// cap on |K| shrinks from MaxK (default |M|) toward MinK (default 2) as the
// replicas' outstanding work grows. At or below budgetLowLoad outstanding
// requests per replica it is exactly the paper's algorithm; at or past
// budgetHighLoad it degrades to the m0 reserve plus the best remaining
// replica instead of amplifying an already-overloaded pool with the
// select-all fallback (the A12 cliff). The budget is derived from the input
// alone — the replica-reported queue lengths in the table and cold list plus
// the gateway's own live in-flight total (Input.LiveInFlight) — so no extra
// coordination or clock is needed and decisions stay deterministic.
type Budgeted struct {
	// MinK is the budget floor; values below MinBudget (or 0) mean MinBudget
	// so the Eq. 3 reserve survives the harshest budget.
	MinK int
	// MaxK is the budget ceiling; 0 means the full replica set.
	MaxK int
}

var _ Strategy = (*Budgeted)(nil)

// NewBudgeted returns Algorithm 1 under the default load-conditioned budget.
func NewBudgeted() *Budgeted { return &Budgeted{} }

// Name implements Strategy.
func (b *Budgeted) Name() string { return "budgeted-dynamic" }

// BudgetFor computes the redundancy budget for one input: the per-replica
// mean of (reported queue length + local in-flight) interpolated between the
// ceiling at budgetLowLoad and the floor at budgetHighLoad — or, when
// in.Controller is set, whatever the online controller picks for that load
// level, clamped to [MinK, MaxK].
func (b *Budgeted) BudgetFor(in Input) int {
	n := len(in.Table) + len(in.Cold)
	maxK := b.MaxK
	if maxK <= 0 || maxK > n {
		maxK = n
	}
	minK := min(max(b.MinK, MinBudget), maxK)
	if n == 0 {
		return MinBudget
	}
	outstanding := in.LiveInFlight
	for i := range in.Table {
		outstanding += in.Table[i].QueueLength
	}
	for i := range in.Cold {
		outstanding += in.Cold[i].QueueLength
	}
	load := float64(outstanding) / float64(n)
	if in.Controller != nil {
		return min(max(in.Controller.BudgetFor(load, n), minK), maxK)
	}
	switch {
	case load <= budgetLowLoad:
		return maxK
	case load >= budgetHighLoad:
		return minK
	default:
		frac := (load - budgetLowLoad) / (budgetHighLoad - budgetLowLoad)
		return max(maxK-int(frac*float64(maxK-minK)), minK)
	}
}

// Select implements Strategy: Algorithm 1 with its growth and fallback both
// bounded by the computed budget. Forced cold members count against the
// budget too (and are dropped first), so |K| never exceeds it — under
// overload a cold-probe flood would amplify load exactly like the select-all
// fallback does. A fallback cut below all of M is GuaranteeCapped: Pc(t) is
// unreachable within the budget, not necessarily unreachable outright.
func (b *Budgeted) Select(in Input) Result {
	budget := b.BudgetFor(in)
	capped := Dynamic{Failures: 1, Cap: budget}
	res := capped.Select(in)
	if len(res.Selected) > capped.Cap {
		// Only the forced-cold tail can exceed the inner cap; trimming it
		// keeps the warm head (reserve first) intact, so Predicted — which
		// counts only warm members — and an Eq. 3 promise are unchanged.
		warmSel := len(res.Selected) - len(in.Cold)
		res.Selected = res.Selected[:capped.Cap]
		if res.Guarantee == GuaranteeLine15 {
			res.Guarantee = GuaranteeCapped
		}
		if warmSel >= capped.Cap && len(in.Cold) > 0 {
			// The trim cut every forced-cold probe. Without a probe a
			// replica that saturated once keeps its pessimistic window
			// forever and is never rediscovered after it drains — the pool
			// collapses onto whichever members happen to have fresh data.
			// Sacrifice the worst warm slot for one cold probe: |K| stays
			// within the budget, the m0 reserve stays at the head, and the
			// probe is still a working member — only its timeliness is
			// unknown, which is exactly why it must be measured.
			res.Selected[capped.Cap-1] = in.Cold[0].ID
			res.Predicted = model.SubsetProbability(in.Table[:capped.Cap-1])
			if res.Guarantee == GuaranteeEq3 {
				res.Guarantee = GuaranteeProbe
			}
		}
	}
	res.Budget = budget
	return res
}

// SingleBest picks only the replica with the highest F_Ri(t): the
// lowest-expected-response-time family of selection algorithms the paper
// contrasts with (nearest replica, best historical mean, probing). It has
// no crash protection.
type SingleBest struct{}

var _ Strategy = SingleBest{}

// Name implements Strategy.
func (SingleBest) Name() string { return "single-best" }

// Select implements Strategy.
func (SingleBest) Select(in Input) Result {
	if len(in.Table) == 0 {
		return Result{Selected: coldIDs(in.Cold), Guarantee: GuaranteeLine15}
	}
	best := &in.Table[0]
	return Result{
		Selected:  append(in.SelectedBuf[:0], best.ID),
		Predicted: best.Probability,
	}
}

// FixedK picks the top-K replicas by F_Ri(t): static redundancy without the
// QoS-driven adaptivity.
type FixedK struct {
	K int
}

var _ Strategy = FixedK{}

// Name implements Strategy.
func (f FixedK) Name() string { return fmt.Sprintf("fixed-%d", f.K) }

// Select implements Strategy.
func (f FixedK) Select(in Input) Result {
	if len(in.Table) == 0 {
		return Result{Selected: coldIDs(in.Cold), Guarantee: GuaranteeLine15}
	}
	top := in.Table[:min(max(f.K, 1), len(in.Table))]
	return Result{Selected: appendTableIDs(in.SelectedBuf[:0], top), Predicted: model.SubsetProbability(top)}
}

// All multicasts every request to every replica: AQuA's active-replication
// behaviour, maximal fault tolerance with no scalability.
type All struct{}

var _ Strategy = All{}

// Name implements Strategy.
func (All) Name() string { return "all" }

// Select implements Strategy.
func (All) Select(in Input) Result {
	ids := candidateIDs(in, in.SelectedBuf[:0])
	return Result{Selected: ids, Predicted: model.SubsetProbability(in.Table), Guarantee: GuaranteeLine15}
}

// Random picks K replicas uniformly at random, the classic load-spreading
// baseline.
type Random struct {
	K   int
	rng *stats.Rand
}

var _ Strategy = (*Random)(nil)

// NewRandom returns a Random strategy with a deterministic seed.
func NewRandom(k int, seed int64) *Random {
	return &Random{K: k, rng: stats.NewRand(seed)}
}

// Name implements Strategy.
func (r *Random) Name() string { return fmt.Sprintf("random-%d", r.K) }

// Select implements Strategy.
func (r *Random) Select(in Input) Result {
	ids := candidateIDs(in, nil)
	if len(ids) == 0 {
		return Result{}
	}
	k := min(max(r.K, 1), len(ids))
	perm := r.rng.Perm(len(ids))
	chosen := make([]wire.ReplicaID, 0, k)
	for _, idx := range perm[:k] {
		chosen = append(chosen, ids[idx])
	}
	return chosenResult(in.Table, chosen)
}

// chosenResult is a score-free baseline's decision: the chosen IDs, with
// Equation 1 over the warm rows among them.
func chosenResult(table []model.ReplicaProbability, chosen []wire.ReplicaID) Result {
	var rows []model.ReplicaProbability
	for i := range table {
		if slices.Contains(chosen, table[i].ID) {
			rows = append(rows, table[i])
		}
	}
	return Result{Selected: chosen, Predicted: model.SubsetProbability(rows)}
}

// RoundRobin rotates through the replica list K at a time, the classic
// load-balancer baseline.
type RoundRobin struct {
	K    int
	next int
}

var _ Strategy = (*RoundRobin)(nil)

// NewRoundRobin returns a RoundRobin strategy selecting k replicas per
// request.
func NewRoundRobin(k int) *RoundRobin { return &RoundRobin{K: k} }

// Name implements Strategy.
func (r *RoundRobin) Name() string { return fmt.Sprintf("roundrobin-%d", r.K) }

// Select implements Strategy.
func (r *RoundRobin) Select(in Input) Result {
	ids := candidateIDs(in, nil)
	if len(ids) == 0 {
		return Result{}
	}
	k := min(max(r.K, 1), len(ids))
	chosen := make([]wire.ReplicaID, 0, k)
	for i := 0; i < k; i++ {
		chosen = append(chosen, ids[(r.next+i)%len(ids)])
	}
	r.next = (r.next + k) % len(ids)
	return chosenResult(in.Table, chosen)
}
