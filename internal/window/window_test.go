package window

import (
	"testing"
	"testing/quick"
	"time"

	"aqua/internal/dist"
)

func TestNewPanicsOnNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogrammed(%d, 1ms) did not panic", c)
				}
			}()
			NewHistogrammed(c, time.Millisecond)
		}()
	}
}

func TestAddAndValuesOrder(t *testing.T) {
	w := NewHistogrammed(3, time.Millisecond)
	w.Add(1)
	w.Add(2)
	if got := w.Values(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Values() = %v, want [1 2]", got)
	}
	w.Add(3)
	w.Add(4) // evicts 1
	want := []time.Duration{2, 3, 4}
	got := w.Values()
	if len(got) != len(want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Values()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvictionKeepsMostRecent(t *testing.T) {
	w := NewHistogrammed(5, time.Millisecond)
	for i := 1; i <= 100; i++ {
		w.Add(time.Duration(i))
	}
	got := w.Values()
	if len(got) != 5 {
		t.Fatalf("Len = %d, want 5", len(got))
	}
	for i, want := range []time.Duration{96, 97, 98, 99, 100} {
		if got[i] != want {
			t.Errorf("Values()[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// TestWindowSemanticsProperty checks the defining property against a naive
// reference: after any sequence of adds, Values() equals the last min(n, cap)
// items of the sequence in order.
func TestWindowSemanticsProperty(t *testing.T) {
	f := func(raw []int16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		w := NewHistogrammed(capacity, time.Millisecond)
		var ref []time.Duration
		for _, v := range raw {
			d := time.Duration(v)
			w.Add(d)
			ref = append(ref, d)
		}
		if len(ref) > capacity {
			ref = ref[len(ref)-capacity:]
		}
		got := w.Values()
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// histEqualsNaive checks the incremental histogram against a recount of the
// retained values.
func histEqualsNaive(w *Window) bool {
	bins, counts, ok := w.HistCounts()
	want := map[int64]int{}
	for _, v := range w.Values() {
		want[dist.Quantize(v, time.Millisecond)]++
	}
	if !ok {
		return len(want) == 0
	}
	if len(bins) != len(want) {
		return false
	}
	for i, b := range bins {
		if i > 0 && bins[i-1] >= b {
			return false // not strictly sorted
		}
		if counts[i] != want[b] {
			return false
		}
	}
	return true
}

func TestHistogramTracksAddAndEviction(t *testing.T) {
	w := NewHistogrammed(3, time.Millisecond)
	if _, _, ok := w.HistCounts(); ok {
		t.Error("empty window reported a histogram")
	}
	seq := []time.Duration{
		10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		30 * time.Millisecond, // evicts a 10ms
		30 * time.Millisecond, // evicts the other 10ms
		5 * time.Millisecond,  // evicts 20ms
	}
	for _, d := range seq {
		w.Add(d)
		if !histEqualsNaive(w) {
			t.Fatalf("histogram out of sync after Add(%v)", d)
		}
	}
	bins, counts, _ := w.HistCounts()
	if len(bins) != 2 || bins[0] != 5 || bins[1] != 30 || counts[0] != 1 || counts[1] != 2 {
		t.Errorf("final histogram bins=%v counts=%v, want [5 30]/[1 2]", bins, counts)
	}
}

// TestHistogramProperty drives random sequences (including half-bin values
// that exercise rounding) and checks the incremental histogram always equals
// a recount.
func TestHistogramProperty(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		w := NewHistogrammed(capacity, time.Millisecond)
		for _, v := range raw {
			w.Add(time.Duration(v) * time.Millisecond / 2)
			if !histEqualsNaive(w) {
				return false
			}
		}
		for w.TrimOldest() {
		}
		if _, _, ok := w.HistCounts(); ok {
			return false
		}
		w.Add(time.Millisecond)
		return histEqualsNaive(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVersionChangesOnEveryMutationAndIsGloballyUnique(t *testing.T) {
	w := NewHistogrammed(2, time.Millisecond)
	v0 := w.Version()
	w.Add(1)
	v1 := w.Version()
	if v1 == v0 {
		t.Error("Add did not change version")
	}
	w.TrimOldest()
	if w.Version() == v1 {
		t.Error("TrimOldest did not change version")
	}
	// A fresh window (e.g. a removed-and-re-added replica) must never reuse
	// an earlier version, or memoized predictions could alias stale state.
	w2 := NewHistogrammed(2, time.Millisecond)
	w2.Add(1)
	if w2.Version() == v1 || w2.Version() == v0 {
		t.Error("new window reused a version")
	}
}

func TestNewHistogrammedPanicsOnBadResolution(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogrammed(1, 0) did not panic")
		}
	}()
	NewHistogrammed(1, 0)
}

func TestTrimOldest(t *testing.T) {
	w := NewHistogrammed(3, time.Millisecond)
	if w.TrimOldest() {
		t.Fatal("TrimOldest on an empty window reported true")
	}
	for _, v := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond, 11 * time.Millisecond} {
		w.Add(v) // final contents: 5, 9, 11 (2ms evicted by the ring)
	}
	v0 := w.Version()
	if !w.TrimOldest() {
		t.Fatal("TrimOldest on a full window reported false")
	}
	if w.Version() == v0 {
		t.Error("TrimOldest did not issue a new version")
	}
	if got := w.Values(); len(got) != 2 || got[0] != 9*time.Millisecond || got[1] != 11*time.Millisecond {
		t.Fatalf("Values after trim = %v, want [9ms 11ms]", got)
	}
	if !histEqualsNaive(w) {
		t.Error("histogram out of sync after TrimOldest")
	}
	w.TrimOldest()
	w.TrimOldest()
	if w.Len() != 0 || w.TrimOldest() {
		t.Errorf("draining via TrimOldest left %d samples", w.Len())
	}
	if !histEqualsNaive(w) {
		t.Error("histogram not empty after full drain")
	}
	// The window must keep working after a drain.
	w.Add(7 * time.Millisecond)
	if got := w.Values(); len(got) != 1 || got[0] != 7*time.Millisecond {
		t.Fatalf("Add after drain: Values = %v", got)
	}
	if !histEqualsNaive(w) {
		t.Error("histogram out of sync after post-drain Add")
	}
}
