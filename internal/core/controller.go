package core

// Online redundancy controller: replaces the hand-set load→|K| interpolation
// of selection.Budgeted with a measured set-point search. The idea follows
// Poloczek & Ciucu (replication flips from latency-reducing to
// goodput-destroying past a load threshold) and Raaijmakers et al. (the
// optimal redundancy degree shifts with the service-time tail): no static
// budget is right at every operating point, but goodput as a function of
// |K| is unimodal enough at a fixed load that a bounded hill climb with
// hysteresis finds and tracks the maximizing budget.
//
// Signals, all already measured by the scheduler:
//
//   - timely completions per second (the goodput being maximized), windowed
//     over fixed-size epochs of completed requests;
//   - the per-replica outstanding level from the PR 4 in-flight tracking,
//     used only as an emergency clamp — a saturated pool drops the budget to
//     the floor immediately instead of waiting for the climb;
//   - the cancel-savings rate (cancelled dispatches / selected dispatches):
//     when first-response-wins cancellation reclaims most duplicate work,
//     extra redundancy is cheap, so exploration is biased upward.

import (
	"sync"
	"sync/atomic"
	"time"

	"aqua/internal/selection"
)

// Controller constants.
const (
	// DefaultControllerEpoch is the number of completed requests per
	// measurement epoch: long enough that a goodput rate is meaningful,
	// short enough to track load swings within a few hundred requests.
	DefaultControllerEpoch = 48
	// controllerHysteresis is the relative goodput change required to count
	// as an improvement or a regression; smaller differences hold the
	// current budget, keeping measurement noise from walking it.
	controllerHysteresis = 0.08
	// controllerOverloadPerReplica is the per-replica outstanding level at
	// which the controller stops searching and clamps to the floor
	// (selection.MinBudget): the pool is saturated and any extra duplicate
	// is pure queueing.
	controllerOverloadPerReplica = 6.0
	// controllerProbeAfterHolds is how many consecutive held epochs pass
	// before the controller probes a step anyway — the optimum may have
	// moved while goodput sat inside the hysteresis band.
	controllerProbeAfterHolds = 3
	// controllerCancelCheapRate is the cancel-savings rate above which
	// probing prefers the upward direction.
	controllerCancelCheapRate = 0.5
)

// AdaptiveBudgetConfig configures the controller. The budget's floor is
// selection.MinBudget (the m0 reserve plus one worker), so the Equation 3
// crash guarantee survives the harshest setting.
type AdaptiveBudgetConfig struct {
	// MaxK caps the budget; required (there is no pool-size default because
	// the controller never sees the membership). Values below
	// selection.MinBudget are raised to it.
	MaxK int
	// Clock supplies the time base for goodput rates; nil means time.Now.
	// The simulator passes its virtual clock so epochs measure simulated
	// seconds.
	Clock func() time.Time
}

// AdaptiveBudget is an online |K| budget controller implementing
// selection.BudgetController. BudgetFor is called on the scheduler's
// decision path and reads one atomic; the climb itself runs on completion
// events under a small dedicated mutex (never the scheduler's shard or
// state locks).
type AdaptiveBudget struct {
	cfg AdaptiveBudgetConfig

	budget  atomic.Int64 // current |K| budget, read on the decision path
	clamped atomic.Bool  // overload clamp hit this epoch; taints its rate

	mu         sync.Mutex
	dir        int  // +1 or −1: direction of the last step
	holds      int  // consecutive epochs inside the dead band
	primed     bool // first epoch discarded (its window starts mid-stream)
	epochStart time.Time
	completed  int     // completions this epoch
	timely     int     // timely completions this epoch
	prevRate   float64 // smoothed goodput of the previous settled epoch
	hasPrev    bool

	selected  atomic.Uint64 // dispatches fanned out (NoteSelected)
	cancelled atomic.Uint64 // dispatches reclaimed by cancel (NoteCancelled)

	stepsUp   atomic.Uint64
	stepsDown atomic.Uint64
	heldCount atomic.Uint64
	clamps    atomic.Uint64
}

var _ selection.BudgetController = (*AdaptiveBudget)(nil)

// NewAdaptiveBudget returns a controller starting at the budget ceiling
// (low load wants full redundancy; the climb walks it down if that hurts).
func NewAdaptiveBudget(cfg AdaptiveBudgetConfig) *AdaptiveBudget {
	if cfg.MaxK < selection.MinBudget {
		cfg.MaxK = selection.MinBudget
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &AdaptiveBudget{cfg: cfg, dir: +1}
	c.budget.Store(int64(cfg.MaxK))
	return c
}

// BudgetFor implements selection.BudgetController: the current set point,
// with an emergency clamp to the floor when the pool is saturated beyond
// doubt. The clamp taints the running epoch so a rate measured half in and
// half out of clamp never steers the climb.
func (c *AdaptiveBudget) BudgetFor(perReplicaOutstanding float64, n int) int {
	if perReplicaOutstanding >= controllerOverloadPerReplica {
		if !c.clamped.Swap(true) {
			c.clamps.Add(1)
		}
		return selection.MinBudget
	}
	return int(c.budget.Load())
}

// Budget returns the controller's current set point.
func (c *AdaptiveBudget) Budget() int { return int(c.budget.Load()) }

// NoteSelected records a decision's fan-out degree (the denominator of the
// cancel-savings rate).
func (c *AdaptiveBudget) NoteSelected(k int) {
	if k > 0 {
		c.selected.Add(uint64(k))
	}
}

// NoteCancelled records dispatches reclaimed by first-response-wins
// cancellation before they became replies.
func (c *AdaptiveBudget) NoteCancelled(n int) {
	if n > 0 {
		c.cancelled.Add(uint64(n))
	}
}

// cancelSavingsRate is the reclaimed fraction of all dispatched work.
func (c *AdaptiveBudget) cancelSavingsRate() float64 {
	sel := c.selected.Load()
	if sel == 0 {
		return 0
	}
	return float64(c.cancelled.Load()) / float64(sel)
}

// OnOutcome feeds one request completion (timely or not) into the climb.
// Every DefaultControllerEpoch completions the goodput rate for the window is compared
// against the previous settled epoch:
//
//	improved beyond the dead band → keep stepping in the same direction;
//	regressed beyond it           → reverse and step back;
//	inside the band               → hold, and after a few held epochs probe
//	                                a step (upward when cancellation makes
//	                                redundancy cheap) to re-test the slope.
//
// Steps are ±1 and the budget never leaves [selection.MinBudget, MaxK], so a
// wrong probe costs one epoch at an adjacent set point.
func (c *AdaptiveBudget) OnOutcome(timely bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochStart.IsZero() {
		c.epochStart = c.cfg.Clock()
	}
	c.completed++
	if timely {
		c.timely++
	}
	if c.completed < DefaultControllerEpoch {
		return
	}
	now := c.cfg.Clock()
	elapsed := now.Sub(c.epochStart).Seconds()
	timelyN, tainted := c.timely, c.clamped.Swap(false)
	c.completed, c.timely = 0, 0
	c.epochStart = now
	if !c.primed {
		// The very first window opened at the first completion rather than
		// at an epoch boundary, so its rate is biased high by N/(N−1);
		// discard it and measure cleanly from here.
		c.primed = true
		return
	}
	if tainted || elapsed <= 0 {
		// The overload clamp overrode the set point for part of this
		// window; its rate says nothing about the climb's budget.
		return
	}
	rate := float64(timelyN) / elapsed
	if !c.hasPrev {
		c.prevRate, c.hasPrev = rate, true
		return
	}
	switch {
	case rate > c.prevRate*(1+controllerHysteresis):
		c.step(c.dir)
		c.holds = 0
		c.prevRate = rate
	case rate < c.prevRate*(1-controllerHysteresis):
		c.dir = -c.dir
		c.step(c.dir)
		c.holds = 0
		c.prevRate = rate
	default:
		c.heldCount.Add(1)
		c.holds++
		// Smooth the reference so the band tracks slow drift.
		c.prevRate = 0.5*c.prevRate + 0.5*rate
		if c.holds >= controllerProbeAfterHolds {
			c.holds = 0
			if c.cancelSavingsRate() >= controllerCancelCheapRate {
				c.dir = +1 // duplicates are being reclaimed; redundancy is cheap
			}
			// A probe exists to move: at a wall, the only testable
			// direction is the other one.
			if cur := int(c.budget.Load()); cur+c.dir > c.cfg.MaxK || cur+c.dir < selection.MinBudget {
				c.dir = -c.dir
			}
			c.step(c.dir)
		}
	}
}

// step moves the set point by ±1 inside [selection.MinBudget, MaxK]; a step
// off either end bounces the direction so the next step leaves the wall.
func (c *AdaptiveBudget) step(dir int) {
	cur := int(c.budget.Load())
	next := cur + dir
	if next < selection.MinBudget {
		next = selection.MinBudget
		c.dir = +1
	}
	if next > c.cfg.MaxK {
		next = c.cfg.MaxK
		c.dir = -1
	}
	if next == cur {
		return
	}
	c.budget.Store(int64(next))
	if next > cur {
		c.stepsUp.Add(1)
	} else {
		c.stepsDown.Add(1)
	}
}

// ControllerStats is a snapshot of the controller's activity, for
// experiments and tests.
type ControllerStats struct {
	Budget     int
	StepsUp    uint64
	StepsDown  uint64
	Held       uint64
	Clamps     uint64
	Selected   uint64
	Cancelled  uint64
	SavingsPct float64
}

// Stats snapshots the controller.
func (c *AdaptiveBudget) Stats() ControllerStats {
	return ControllerStats{
		Budget:     c.Budget(),
		StepsUp:    c.stepsUp.Load(),
		StepsDown:  c.stepsDown.Load(),
		Held:       c.heldCount.Load(),
		Clamps:     c.clamps.Load(),
		Selected:   c.selected.Load(),
		Cancelled:  c.cancelled.Load(),
		SavingsPct: 100 * c.cancelSavingsRate(),
	}
}
