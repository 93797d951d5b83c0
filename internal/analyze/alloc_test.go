package analyze

import (
	"testing"
)

// The lean streaming path (a sweep worker: trace discarded)
// must reach a steady state where pushing records allocates nothing —
// nodes come from the pool, stacks recycle, and the function table stops
// growing. This is the claim the decode/steady benchmark gates; here it
// is exact, not statistical.
func TestSteadyStatePushZeroAlloc(t *testing.T) {
	tags := mustTags(t)
	c := pseudoCapture(3, 4096)
	rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{
		DiscardTrace: true,
		Repair:       DefaultRepair(),
	})
	pass := func() {
		for _, r := range c.Records {
			rc.Push(r)
		}
	}
	// Warm every pool and table to its limit cycle.
	for i := 0; i < 3; i++ {
		pass()
	}
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Errorf("steady-state Push allocates: %.2f allocs per 4096-record pass", avg)
	}
}
