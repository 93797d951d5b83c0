package loadgen

import "kprof/internal/sim"

// Times returns the first n arrival times without needing a scheduler —
// the property-test entry point.
func (g *Gen) Times(n int) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
