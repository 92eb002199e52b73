package proteus

import (
	"testing"
	"time"
)

// TestRestartCapSlides: the cap admits DefaultMaxRestartsPerWindow restarts,
// refuses the next while the oldest is inside the window, and admits it the
// moment the oldest is a full window old.
func TestRestartCapSlides(t *testing.T) {
	var c RestartCap
	t0 := time.Date(2001, time.July, 1, 0, 0, 0, 0, time.UTC)
	for i := range DefaultMaxRestartsPerWindow {
		at := t0.Add(time.Duration(i) * time.Second)
		if !c.Allow(at) {
			t.Fatalf("restart %d refused under the cap", i)
		}
		c.Record(at)
	}
	if c.Allow(t0.Add(DefaultRestartWindow-time.Nanosecond)) || c.Len() != DefaultMaxRestartsPerWindow {
		t.Fatalf("cap admitted restart %d inside one window (len %d)", DefaultMaxRestartsPerWindow+1, c.Len())
	}
	if !c.Oldest().Equal(t0) {
		t.Fatalf("Oldest = %v, want %v", c.Oldest(), t0)
	}
	if !c.Allow(t0.Add(DefaultRestartWindow)) || c.Len() != DefaultMaxRestartsPerWindow-1 {
		t.Fatalf("oldest restart did not age out after a full window (len %d)", c.Len())
	}
	if !c.Oldest().Equal(t0.Add(time.Second)) {
		t.Fatalf("Oldest = %v after the slide, want %v", c.Oldest(), t0.Add(time.Second))
	}
}
