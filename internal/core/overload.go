package core

// Overload control: admission shedding and the degraded-mode ladder.
//
// The paper's Algorithm 1 assumes the pool has spare capacity: when no
// subset reaches Pc(t) it multicasts to ALL replicas (line 15), which
// multiplies offered load by |M| exactly when the system can least afford it
// (ablation A12 measures the resulting collapse). This file adds the
// overload-aware layer on top of the paper-exact scheduler:
//
//   - an in-flight ceiling with explicit shedding (ErrOverloaded) so excess
//     demand is refused at the gateway instead of queueing into collapse;
//   - a three-state degradation ladder, Normal → Budgeted → Shedding, driven
//     by the in-flight count (and transport backpressure signals) with
//     hysteresis so the mode doesn't flap at a threshold;
//   - a best-effort cap replacing the select-all fallback while degraded:
//     when Pc(t) is unreachable anyway, sending the m0 reserve plus the best
//     remaining replica preserves Eq. 3's shape without the amplification.
//
// Load-conditioned |K| budgeting itself lives in selection.Budgeted; this
// ladder is strategy-independent and composes with it.

import (
	"errors"
	"fmt"

	"aqua/internal/wire"
)

// ErrOverloaded is returned by Schedule when admission control sheds the
// request: the in-flight ceiling is reached and accepting more work would
// deepen the overload. Callers detect it with errors.Is and may retry after
// backing off (the gateway's bounded single-retry policy does exactly that).
var ErrOverloaded = errors.New("core: overloaded, request shed by admission control")

// Mode is a position on the degradation ladder.
type Mode int32

const (
	// ModeNormal: the paper-exact regime; no overload intervention.
	ModeNormal Mode = iota
	// ModeBudgeted: load is building; select-all fallbacks are capped to
	// the best-effort set and the strategy's budget (if any) is binding.
	ModeBudgeted
	// ModeShedding: the in-flight ceiling is reached; new requests are
	// refused with ErrOverloaded until the backlog drains.
	ModeShedding
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeBudgeted:
		return "budgeted"
	case ModeShedding:
		return "shedding"
	default:
		return fmt.Sprintf("mode(%d)", int32(m))
	}
}

// Degradation-ladder thresholds and defaults. The enter/exit pairs are
// deliberately spread apart (hysteresis): a mode entered at fraction f of the
// ceiling is left only when the in-flight count falls to a strictly lower
// fraction, so small oscillations around a threshold don't flap the mode.
const (
	// budgetEnterFraction of MaxInFlight enters Budgeted.
	budgetEnterFraction = 0.5
	// budgetExitFraction of MaxInFlight returns to Normal.
	budgetExitFraction = 0.25
	// shedExitFraction of MaxInFlight drops Shedding back to Budgeted (never
	// straight to Normal: the ladder is descended rung by rung).
	shedExitFraction = 0.75
	// DefaultBestEffortK replaces the select-all fallback while degraded:
	// the m0 crash reserve plus the best remaining replica.
	DefaultBestEffortK = 2
	// DefaultBackpressureHold is how many request completions a transport
	// backpressure signal keeps the scheduler in Budgeted mode for.
	DefaultBackpressureHold = 16
)

// OverloadConfig configures admission control and the degradation ladder.
// The zero value disables the in-flight ceiling; backpressure signals then
// still drive Normal ↔ Budgeted.
type OverloadConfig struct {
	// MaxInFlight is the admission ceiling: Schedule sheds (ErrOverloaded)
	// while this many requests are in flight. Zero disables shedding and
	// the in-flight-driven ladder rungs.
	MaxInFlight int
	// BestEffortK caps select-all fallbacks while degraded; zero means
	// DefaultBestEffortK, negative disables the cap.
	BestEffortK int
	// BackpressureHold is how many completions a backpressure signal keeps
	// the ladder at Budgeted or above; zero means the default.
	BackpressureHold int
	// OnDegradation is invoked (outside the scheduler's lock) for every
	// ladder transition, in both directions. Must not block.
	OnDegradation func(DegradationReport)
}

// withDefaults resolves zero fields.
func (o OverloadConfig) withDefaults() OverloadConfig {
	if o.BestEffortK == 0 {
		o.BestEffortK = DefaultBestEffortK
	}
	if o.BackpressureHold <= 0 {
		o.BackpressureHold = DefaultBackpressureHold
	}
	return o
}

// enabled reports whether any overload machinery is configured.
func (o OverloadConfig) enabled() bool {
	return o.MaxInFlight > 0 || o.OnDegradation != nil
}

// DegradationReport describes one transition on the degradation ladder.
type DegradationReport struct {
	Service  wire.Service
	From, To Mode
	// InFlight and Ceiling are the in-flight count and MaxInFlight at the
	// moment of the transition (Ceiling 0 = no admission ceiling).
	InFlight int
	Ceiling  int
	// Reason names the signal that caused the evaluation: "schedule",
	// "shed", "complete", or "backpressure".
	Reason string
}

func (d DegradationReport) String() string {
	return fmt.Sprintf("degradation on %q: %s -> %s (in-flight %d/%d, %s)",
		d.Service, d.From, d.To, d.InFlight, d.Ceiling, d.Reason)
}

// Mode returns the scheduler's current position on the degradation ladder.
func (s *Scheduler) Mode() Mode { return Mode(s.modeA.Load()) }

// NoteBackpressure feeds a transport-level backpressure signal (e.g.
// transport.ErrBackpressure from a saturated send queue) into the
// degradation ladder: the scheduler enters Budgeted mode — the network being
// unable to absorb the multicast fan-out is the same overload the in-flight
// ceiling watches for — and holds it there until BackpressureHold requests
// complete cleanly.
func (s *Scheduler) NoteBackpressure() {
	s.stats.backpressure.Add(1)
	s.met.backpressure.Inc()
	s.stateMu.Lock()
	s.bpHoldA.Store(int64(s.cfg.Overload.BackpressureHold))
	s.stateMu.Unlock()
	s.deliverDegradations(s.evalMode("backpressure", nil))
}

// evalMode recomputes the ladder position from the in-flight count and any
// backpressure hold, appending a report for each transition taken. It takes
// stateMu internally for the transition itself; the no-overload fast path is
// lock-free so the paper-exact configuration pays nothing. Callers may hold
// a shard mutex (shard.mu → stateMu is the ordering), never stateMu itself.
func (s *Scheduler) evalMode(reason string, reps []DegradationReport) []DegradationReport {
	o := s.cfg.Overload
	if !o.enabled() && s.bpHoldA.Load() == 0 && Mode(s.modeA.Load()) == ModeNormal {
		return reps
	}
	n := int(s.nPend.Load())
	s.stateMu.Lock()
	mode := Mode(s.modeA.Load())
	bp := s.bpHoldA.Load() > 0
	target := mode
	if o.MaxInFlight > 0 {
		ceil := o.MaxInFlight
		enter := threshold(ceil, budgetEnterFraction)
		exit := threshold(ceil, budgetExitFraction)
		shedExit := threshold(ceil, shedExitFraction)
		switch mode {
		case ModeNormal:
			if n >= ceil {
				target = ModeShedding
			} else if n >= enter || bp {
				target = ModeBudgeted
			}
		case ModeBudgeted:
			if n >= ceil {
				target = ModeShedding
			} else if n <= exit && !bp {
				target = ModeNormal
			}
		case ModeShedding:
			if n <= shedExit {
				target = ModeBudgeted
			}
		}
	} else {
		// No ceiling: backpressure alone drives Normal ↔ Budgeted.
		if bp {
			if mode == ModeNormal {
				target = ModeBudgeted
			}
		} else if mode == ModeBudgeted {
			target = ModeNormal
		}
	}
	if target == mode {
		s.stateMu.Unlock()
		return reps
	}
	s.modeA.Store(int32(target))
	s.stats.degradations.Add(1)
	s.met.degradations.Inc()
	s.met.mode.Set(int64(target))
	s.stateMu.Unlock()
	return append(reps, DegradationReport{
		Service:  s.cfg.Service,
		From:     mode,
		To:       target,
		InFlight: n,
		Ceiling:  o.MaxInFlight,
		Reason:   reason,
	})
}

// threshold converts a fraction of the ceiling to a count, floored at 1 so a
// tiny ceiling still has distinct rungs.
func threshold(ceil int, frac float64) int {
	t := int(float64(ceil) * frac)
	if t < 1 {
		t = 1
	}
	return t
}

// deliverDegradations invokes the OnDegradation callback outside the lock.
func (s *Scheduler) deliverDegradations(reps []DegradationReport) {
	cb := s.cfg.Overload.OnDegradation
	if cb == nil {
		return
	}
	for _, r := range reps {
		cb(r)
	}
}
