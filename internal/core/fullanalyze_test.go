package core_test

import (
	"runtime"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// drainedNetrecvLong captures netrecv-long at seed 42 for d through 1024-
// record drains.
func drainedNetrecvLong(t *testing.T, d sim.Time) *core.Session {
	t.Helper()
	return drainedScenario(t, "netrecv-long", workload.Params{Duration: d}, 1024)
}

// drainedScenario captures the named scenario at seed 42 under continuous
// capture on a depth-record card, and demands at least ten lossless
// drains.
func drainedScenario(t *testing.T, name string, p workload.Params, depth int) *core.Session {
	t.Helper()
	sc, ok := workload.FindScenario(name)
	if !ok {
		t.Fatalf("%s scenario missing", name)
	}
	m := core.NewMachine(kernel.Config{Seed: 42})
	if sc.Setup != nil {
		if err := sc.Setup(m, p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := sc.Run(m, p); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n < 10 {
		t.Fatalf("capture drained %d segments, want >= 10", n)
	}
	return s
}

// allocated reports what one call of f allocates: objects and bytes.
func allocated(f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// segmentCaptures lists a drained session's segment captures in drain
// order: what the background decoder streamed.
func segmentCaptures(s *core.Session) []hw.Capture {
	var caps []hw.Capture
	for _, seg := range s.Segments() {
		caps = append(caps, seg.Capture)
	}
	return caps
}

// TestFullAnalyzeShape pins what the full reconstruction of a drained
// capture holds and what it costs. The fold runs on the session's
// background decoder as the segments drain, over the loop analyze.Stitch
// runs, so Stitch over the segment captures times it. It folds each root's
// invocation tree into the call-path profile at its depth-0 exit and
// recycles the tree's nodes, so what it allocates no longer grows with
// the record count: four times the capture allocates well under one and a
// half times the bytes. After Disarm, Session.Analyze returns the streamed
// result and allocates nothing. The trace is built on the first Items
// call, sized once to the record count (each record adds at most one trace
// item); its bytes per record are a 24-byte item plus about half a node.
func TestFullAnalyzeShape(t *testing.T) {
	short := drainedNetrecvLong(t, 400*sim.Millisecond)
	long := drainedNetrecvLong(t, 1600*sim.Millisecond)

	a := short.Analyze()
	records := float64(a.Stats.Records)
	const maxAllocsPerRecord, maxBytesPerRecord = 0.05, 72
	const maxAnalyzeBytesPerRecord, maxGrowth = 16, 1.5
	opts := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
	shortCaps, longCaps := segmentCaptures(short), segmentCaptures(long)
	shortAllocs, shortBytes := allocated(func() { analyze.Stitch(shortCaps, short.Tags, opts) })
	_, longBytes := allocated(func() { analyze.Stitch(longCaps, long.Tags, opts) })
	if per := shortAllocs / records; per > maxAllocsPerRecord {
		t.Errorf("the fold allocates %.3f times per record (%.0f over %d records), want <= %.2f",
			per, shortAllocs, a.Stats.Records, maxAllocsPerRecord)
	}
	if per := shortBytes / records; per > maxAnalyzeBytesPerRecord {
		t.Errorf("the fold allocates %.1f B per record (%.0f B over %d records), want <= %d",
			per, shortBytes, a.Stats.Records, maxAnalyzeBytesPerRecord)
	}
	if longBytes >= maxGrowth*shortBytes {
		t.Errorf("the fold of the 1600 ms capture allocates %.0f B, %.2fx the 400 ms capture's %.0f B; want < %.1fx",
			longBytes, longBytes/shortBytes, shortBytes, maxGrowth)
	}
	t.Logf("fold: %.0f allocs and %.0f B over %d records (%.1f B per record); 4x the capture: %.2fx the bytes",
		shortAllocs, shortBytes, a.Stats.Records, shortBytes/records, longBytes/shortBytes)

	var again *analyze.Analysis
	if allocs, bytes := allocated(func() { again = short.Analyze() }); allocs != 0 || bytes != 0 {
		t.Errorf("Analyze after Disarm allocates %.0f times and %.0f B, want the streamed analysis for free", allocs, bytes)
	}
	if again != a {
		t.Error("a second Analyze call returned a different analysis")
	}

	var items []analyze.TraceItem
	allocs, bytes := allocated(func() { items = a.Items() })
	if len(items) == 0 {
		t.Fatal("full analysis built no trace")
	}
	if got, want := cap(items), a.Stats.Records; got != want {
		t.Errorf("cap(Items) = %d, want the record count %d (sized once)", got, want)
	}
	if &a.Items()[0] != &items[0] {
		t.Error("a second Items call rebuilt the trace")
	}
	if per := allocs / records; per > maxAllocsPerRecord {
		t.Errorf("the first Items call allocates %.3f times per record (%.0f over %d records), want <= %.2f",
			per, allocs, a.Stats.Records, maxAllocsPerRecord)
	}
	if per := bytes / records; per > maxBytesPerRecord {
		t.Errorf("the first Items call allocates %.1f B per record (%.0f B over %d records), want <= %d",
			per, bytes, a.Stats.Records, maxBytesPerRecord)
	}
	t.Logf("first Items call: %.4f allocs and %.1f B per record", allocs/records, bytes/records)
}
