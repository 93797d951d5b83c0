package bench

import (
	"runtime"
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

// drainPass runs one full drain-and-stitch capture — boot, pipelined
// recycling drain under the netrecv workload, lean analysis — and reports
// how many records it processed. This is the capture/drain benchmark's
// exact workload.
func drainPass() int {
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:  core.CaptureContinuous,
		Depth: 4096,
		Drain: core.DrainConfig{Recycle: true},
	})
	if err != nil {
		panic(err)
	}
	s.Arm()
	if _, err := workload.NetReceive(m, 400*sim.Millisecond); err != nil {
		panic(err)
	}
	s.Disarm()
	return s.AnalyzeLean().Stats.Records
}

// allocsPerRecord measures one pass's heap allocations per processed
// record, after a warm-up pass has filled every package-level pool.
func allocsPerRecord(t *testing.T, pass func() int) float64 {
	t.Helper()
	pass() // warm package-level pools and tables
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := pass()
	runtime.ReadMemStats(&m1)
	if n == 0 {
		t.Fatal("pass processed no records")
	}
	allocs := m1.Mallocs - m0.Mallocs
	per := float64(allocs) / float64(n)
	t.Logf("records=%d allocs=%d allocs/record=%.4f bytes/record=%.1f",
		n, allocs, per, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	return per
}

// TestDrainZeroAlloc holds the drained hot path's allocation discipline as
// an exact ceiling, not just the statistical bench gate: a full pipelined
// recycling drain — boot included — must stay at or under the tentpole's
// 0.05 allocs/record. The steady-state drain loop itself is allocation-
// free (buffers recycle through the readout pool, scheduler events and
// frames through theirs); the residue this ceiling admits is boot and the
// final report. Mirrors analyze's TestSteadyStatePushZeroAlloc one layer
// up.
func TestDrainZeroAlloc(t *testing.T) {
	if per := allocsPerRecord(t, drainPass); per > 0.05 {
		t.Errorf("drained hot path allocates %.4f allocs/record, ceiling 0.05", per)
	}
}

// TestSweepAllocCeiling holds the same discipline for the multi-seed sweep
// (eight booted machines per pass, aggregation included). The bench gate
// pins the tighter 0.05; the unit ceiling leaves headroom for goroutine
// and map-growth jitter across Go releases.
func TestSweepAllocCeiling(t *testing.T) {
	pass := func() int {
		res, err := sweep.Run(sweep.Config{
			Scenario: "netrecv",
			Seeds:    []uint64{1, 2, 3, 4, 5, 6, 7, 8},
			Params:   workload.Params{Duration: 100 * sim.Millisecond},
		})
		if err != nil {
			panic(err)
		}
		total := 0
		for _, r := range res.PerSeed {
			total += r.Records
		}
		return total
	}
	if per := allocsPerRecord(t, pass); per > 0.08 {
		t.Errorf("sweep hot path allocates %.4f allocs/record, ceiling 0.08", per)
	}
}
