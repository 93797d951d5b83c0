package core_test

import (
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// TestFullAnalyzeShape pins what the full reconstruction of a drained
// capture keeps and what it costs: the trace every report and exporter
// reads, sized once to the record count (each record adds at most one
// trace item), and well under one allocation per record — invocation nodes
// come from slabs, not one allocation each.
func TestFullAnalyzeShape(t *testing.T) {
	sc, ok := workload.FindScenario("netrecv-long")
	if !ok {
		t.Fatal("netrecv-long scenario missing")
	}
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := sc.Run(m, workload.Params{Duration: 400 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n < 10 {
		t.Fatalf("capture drained %d segments, want >= 10", n)
	}

	a := s.Analyze()
	if len(a.Items) == 0 {
		t.Error("full analysis kept no trace")
	}
	if got, want := cap(a.Items), a.Stats.Records; got != want {
		t.Errorf("cap(Items) = %d, want the record count %d (sized once)", got, want)
	}

	const maxPerRecord = 0.5
	allocs := testing.AllocsPerRun(3, func() { s.Analyze() })
	if per := allocs / float64(a.Stats.Records); per > maxPerRecord {
		t.Errorf("full Analyze allocates %.3f times per record (%.0f over %d records), want <= %.1f",
			per, allocs, a.Stats.Records, maxPerRecord)
	}
}
