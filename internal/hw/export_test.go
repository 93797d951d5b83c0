package hw

import "kprof/internal/sim"

// MaxInterval reports the longest interval between events before the
// counter wraps and information is lost (the prototype's ≈16.7 s).
func (c Config) MaxInterval() sim.Time {
	return c.TickPeriod() << c.TimerBits
}
