package core

// Fences for the adaptive redundancy controller and the scheduler's
// first-response-wins CancelTargets bookkeeping.

import (
	"testing"
	"time"

	"aqua/internal/repository"
	"aqua/internal/selection"
	"aqua/internal/wire"
)

// fakeClock is a deterministic time source the tests advance by hand.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

// feedEpoch pushes one full epoch of completions at the given per-second
// goodput (timely completions spaced evenly over virtual time).
func feedEpoch(c *AdaptiveBudget, clk *fakeClock, rate float64) {
	for i := 0; i < DefaultControllerEpoch; i++ {
		clk.now = clk.now.Add(time.Duration(float64(time.Second) / rate))
		c.OnOutcome(true)
	}
}

func TestControllerDefaultsAndClamp(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 5, Clock: clk.Now})
	if got := c.Budget(); got != 5 {
		t.Errorf("initial budget = %d, want MaxK", got)
	}
	if got := c.BudgetFor(0.5, 5); got != 5 {
		t.Errorf("BudgetFor under light load = %d, want 5", got)
	}
	// Saturation clamps to the floor, MinBudget.
	if got := c.BudgetFor(100, 5); got != selection.MinBudget {
		t.Errorf("BudgetFor under saturation = %d, want %d", got, selection.MinBudget)
	}
	if c.Stats().Clamps != 1 {
		t.Errorf("clamps = %d, want 1", c.Stats().Clamps)
	}
}

func TestControllerClimbsTowardBetterGoodput(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 6, Clock: clk.Now})
	c.budget.Store(6)
	c.dir = -1 // pretend the last step was downward

	// Each downward step "improves" goodput: the climb must keep walking
	// down, one bounded step per epoch.
	feedEpoch(c, clk, 10) // priming epoch (discarded)
	feedEpoch(c, clk, 10) // baseline epoch (no prev to compare)
	rate := 10.0
	for i := 0; i < 3; i++ {
		rate *= 1.5
		feedEpoch(c, clk, rate)
	}
	if got := c.Budget(); got != 3 {
		t.Errorf("budget after 3 improving epochs = %d, want 3 (one step each)", got)
	}
	// A regression reverses the direction.
	feedEpoch(c, clk, rate*0.5)
	if got := c.Budget(); got != 4 {
		t.Errorf("budget after regression = %d, want 4 (reversed)", got)
	}
	st := c.Stats()
	if st.StepsDown != 3 || st.StepsUp != 1 {
		t.Errorf("steps = %+v, want 3 down / 1 up", st)
	}
}

func TestControllerHoldsInsideDeadBand(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 6, Clock: clk.Now})
	feedEpoch(c, clk, 10) // priming epoch (discarded)
	feedEpoch(c, clk, 10) // baseline
	// Two statistically flat epochs: hold, don't walk.
	feedEpoch(c, clk, 10.2)
	feedEpoch(c, clk, 9.9)
	if got := c.Budget(); got != 6 {
		t.Errorf("budget moved to %d inside the dead band", got)
	}
	if held := c.Stats().Held; held != 2 {
		t.Errorf("held = %d, want 2", held)
	}
	// After enough flat epochs the controller probes a step anyway.
	feedEpoch(c, clk, 10.05)
	if got := c.Budget(); got == 6 {
		t.Error("controller never probed after a full hold cycle")
	}
}

func TestControllerNeverLeavesBounds(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 4, Clock: clk.Now})
	rate := 10.0
	for i := 0; i < 40; i++ {
		rate *= 1.3 // perpetual "improvement": the climb pushes one way forever
		feedEpoch(c, clk, rate)
		if b := c.Budget(); b < 2 || b > 4 {
			t.Fatalf("budget %d escaped [2,4]", b)
		}
	}
}

func TestControllerBudgetedIntegration(t *testing.T) {
	// Through selection.Budgeted, the controller's pick is clamped to the
	// strategy's own [MinK, MaxK].
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 8, Clock: clk.Now})
	b := &selection.Budgeted{MinK: 2, MaxK: 4}
	in := selection.Input{Controller: c}
	for i := 0; i < 5; i++ {
		in.Cold = append(in.Cold, repository.ReplicaSnapshot{ID: wire.ReplicaID(rune('a' + i))})
	}
	if got := b.BudgetFor(in); got != 4 {
		t.Errorf("budget through Budgeted = %d, want clamped 4 (controller at 8)", got)
	}
}

func TestCancelTargetsSettlesAndDiscounts(t *testing.T) {
	repo := warmRepo(t, 3, 10*ms, 2*ms, ms)
	ctrl := NewAdaptiveBudget(AdaptiveBudgetConfig{MaxK: 3})
	s, err := NewScheduler(Config{
		Service:    "svc",
		QoS:        wire.QoS{Deadline: 100 * ms, MinProbability: 0.9},
		Repository: repo,
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	d, err := s.Schedule(t0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) < 2 {
		t.Fatalf("targets = %v, want >= 2", d.Targets)
	}
	// Before the first reply, CancelTargets must refuse (first-response-wins
	// means there is no winner yet).
	if got := s.CancelTargets(d.Seq, nil); got != nil {
		t.Errorf("CancelTargets before first reply returned %v", got)
	}

	first := d.Targets[0]
	out := s.OnReply(d.Seq, first, t0.Add(20*ms), wire.PerfReport{ServiceTime: 10 * ms})
	if !out.First {
		t.Fatal("first reply not First")
	}
	targets := s.CancelTargets(d.Seq, nil)
	if len(targets) != len(d.Targets)-1 {
		t.Fatalf("CancelTargets returned %v, want the %d losers", targets, len(d.Targets)-1)
	}
	for _, id := range targets {
		if id == first {
			t.Errorf("winner %s in cancel list", first)
		}
	}
	// The request no longer holds admission capacity, and the repository
	// in-flight contributions are all released.
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding after cancel = %d, want 0", got)
	}
	if got := ctrl.Stats().Cancelled; got != uint64(len(targets)) {
		t.Errorf("controller cancelled = %d, want %d", got, len(targets))
	}
	// Idempotent: a second call finds nothing unsettled.
	if again := s.CancelTargets(d.Seq, nil); again != nil {
		t.Errorf("second CancelTargets returned %v", again)
	}
	// A straggler reply from a cancelled replica is harvested as a
	// duplicate without disturbing the accounting.
	lateOut := s.OnReply(d.Seq, targets[0], t0.Add(30*ms), wire.PerfReport{ServiceTime: 15 * ms})
	if !lateOut.Duplicate {
		t.Errorf("straggler from cancelled replica: %+v, want Duplicate", lateOut)
	}
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding after straggler = %d, want 0", got)
	}
	// Forget must not double-discount the admission count.
	s.Forget(d.Seq)
	if got := s.Outstanding(); got != 0 {
		t.Errorf("Outstanding after Forget = %d, want 0", got)
	}
	// A cancelled target's silence at the deadline earns no suspicion
	// charge — the request is already finalized and charged[i] is set — so
	// deadline expiry for this seq is a no-op.
	if v := s.OnDeadlineExpired(d.Seq); v != nil {
		t.Errorf("deadline expiry after cancel+forget produced violation %+v", v)
	}
}
