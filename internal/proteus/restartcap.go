package proteus

import "time"

// RestartCap is the restart-storm fuse: a sliding window of recent restart
// times that admits at most DefaultMaxRestartsPerWindow inside any
// DefaultRestartWindow. The Manager and the simulator's rejuvenator both
// keep one. The zero value is ready; it is not safe for concurrent use.
type RestartCap struct {
	times []time.Time // oldest first
}

// Allow drops the restarts that left the window ending at now and reports
// whether another fits under the cap.
func (c *RestartCap) Allow(now time.Time) bool {
	cutoff := now.Add(-DefaultRestartWindow)
	keep := c.times[:0]
	for _, t := range c.times {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	c.times = keep
	return len(keep) < DefaultMaxRestartsPerWindow
}

// Record counts a restart at now.
func (c *RestartCap) Record(now time.Time) { c.times = append(c.times, now) }

// Oldest returns the earliest restart in the window, the zero time when it
// is empty: the cap admits another restart once that one ages out.
func (c *RestartCap) Oldest() time.Time {
	if len(c.times) == 0 {
		return time.Time{}
	}
	return c.times[0]
}

// Len returns how many restarts the window holds.
func (c *RestartCap) Len() int { return len(c.times) }
