package core_test

import (
	"runtime"
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// TestFullAnalyzeShape pins what the full reconstruction of a drained
// capture keeps and what it costs: the trace every report and exporter
// reads, sized once to the record count (each record adds at most one
// trace item), and a small fraction of an allocation per record —
// invocation nodes come from slabs and link their callees in place. Its
// bytes per record are a 24-byte trace item plus about half a node.
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
	records := float64(a.Stats.Records)
	if got, want := cap(a.Items), a.Stats.Records; got != want {
		t.Errorf("cap(Items) = %d, want the record count %d (sized once)", got, want)
	}

	const maxAllocsPerRecord, maxBytesPerRecord = 0.05, 72
	allocs := testing.AllocsPerRun(3, func() { s.Analyze() })
	if per := allocs / records; per > maxAllocsPerRecord {
		t.Errorf("full Analyze allocates %.3f times per record (%.0f over %d records), want <= %.2f",
			per, allocs, a.Stats.Records, maxAllocsPerRecord)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Analyze()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	if per := bytes / records; per > maxBytesPerRecord {
		t.Errorf("full Analyze allocates %.1f B per record (%.0f B over %d records), want <= %d",
			per, bytes, a.Stats.Records, maxBytesPerRecord)
	}
	t.Logf("%d records: %.4f allocs and %.1f B per record", a.Stats.Records, allocs/records, bytes/records)
}
