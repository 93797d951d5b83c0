// Stress and golden tests for the proday scenario: a production-day mix
// of open-loop network, disk, VM, NFS and SNMP load. proday is the
// deepest-nesting, highest-context-switch workload in the registry, so it
// doubles as a correctness stress for the Reconstructor's continuous
// drain path.
package kprof_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"kprof"
	"kprof/internal/analyze"
	"kprof/internal/sim"
)

// prodayParams sizes a golden/stress run: long enough that every load
// class (including the slow SNMP poll cadence) makes progress, small
// enough to keep the suite's wall clock in check.
var prodayParams = kprof.WorkloadParams{
	Duration: 600 * sim.Millisecond,
	Conns:    100,
	Rate:     300,
}

// runProday boots a machine, runs ProdaySetup before instrumentation
// (the scenario registers SNMP/NFS kernel functions the profile must
// see), then profiles the run under cfg.
func runProday(t *testing.T, seed uint64, p kprof.WorkloadParams, cfg kprof.ProfileConfig) *kprof.Session {
	t.Helper()
	m := kprof.NewMachine(kprof.MachineConfig{Seed: seed})
	if err := kprof.ProdaySetup(m, p); err != nil {
		t.Fatal(err)
	}
	s, err := kprof.NewSession(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := kprof.Proday(m, p); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	return s
}

// forceClosed sums the frames force-closed across an analysis' segments.
func forceClosed(a *kprof.Analysis) int {
	n := 0
	for _, seg := range a.Segments {
		n += seg.ForceClosed
	}
	return n
}

// The proday drain capture is golden: same seed, same params, same
// shrunken card RAM => byte-identical segment table, summary and raw pprof
// profile (many contexts, switches and adoptions), with zero silent loss
// despite the record stream dwarfing the RAM.
func TestGoldenProdayDrain(t *testing.T) {
	const depth = 2048
	s := runProday(t, 42, prodayParams, kprof.ProfileConfig{
		Mode:  kprof.CaptureContinuous,
		Depth: depth,
	})
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	a := s.Analyze()
	if a.Stats.Records < 10*depth {
		t.Fatalf("captured %d records, want >= 10x the %d-entry RAM", a.Stats.Records, depth)
	}
	if a.Stats.Dropped != 0 {
		t.Fatalf("%d strobes lost silently despite draining", a.Stats.Dropped)
	}
	if fc := forceClosed(a); fc != 0 {
		t.Fatalf("%d frames force-closed on a lossless run", fc)
	}
	checkTrees(t, a)
	// The histogram counts every complete invocation, including those
	// under roots that never exit (still open at capture end or parked in
	// a suspended stack) — exactly the summary's timed calls.
	for _, f := range a.Functions() {
		if f.CtxSwitch {
			continue
		}
		if got := a.HistogramOf(f.Name).Total; got != f.TimedCalls {
			t.Errorf("%s: histogram counts %d invocations, summary %d timed calls", f.Name, got, f.TimedCalls)
		}
	}
	golden(t, "proday_drain_seed42.segments", a.SegmentsString())
	golden(t, "proday_drain_seed42.summary", a.SummaryString(15))
	golden(t, "proday_drain_seed42.pprof", string(kprof.MarshalPprof(a, kprof.PprofOptions{})))
	storedGzipMatches(t, a)

	var cg strings.Builder
	if err := a.CallGraph().Write(&cg, 0); err != nil {
		t.Fatal(err)
	}
	golden(t, "proday_drain_seed42.callgraph", cg.String())

	// A trace window around one resume: a process sleeps in tsleep,
	// switches out, and is adopted by tsleep's exit right after the
	// switch-in, so that exit is annotated although its entry is inside
	// the window; an mbuf allocation's MGET mark follows.
	trace := a.TraceString(kprof.TraceOptions{From: 138864 * sim.Microsecond, MaxLines: 48})
	for _, want := range []string{
		"-> swtch ---- Context switch out ----",
		"<- ---- Context switch in ----",
		"<- tsleep (23 us, 45 total)",
		"== MGET",
	} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace window lacks %q", want)
		}
	}
	golden(t, "proday_drain_seed42.trace", trace)

	// The Chrome trace of the whole capture runs to megabytes; its digest
	// pins the bytes.
	h := sha256.New()
	if err := kprof.WriteChromeTrace(h, a); err != nil {
		t.Fatal(err)
	}
	golden(t, "proday_drain_seed42.trace.json.sha256", fmt.Sprintf("%x\n", h.Sum(nil)))
}

// Continuous capture must not change what proday's profile says: the
// stitched drained analysis reproduces the one-shot reference byte for
// byte, and the lean streaming path agrees with the full path.
func TestProdayDrainedMatchesOneShot(t *testing.T) {
	// One-shot with an oversized RAM: nothing overflows.
	sOne := runProday(t, 11, prodayParams, kprof.ProfileConfig{Depth: 1 << 18})
	one := sOne.Analyze()
	if one.Stats.Overflowed {
		t.Fatal("one-shot reference overflowed; shrink the workload or grow the RAM")
	}
	// Continuous with a RAM a tiny fraction of the record stream.
	sCont := runProday(t, 11, prodayParams, kprof.ProfileConfig{
		Mode:  kprof.CaptureContinuous,
		Depth: 1024,
	})
	if err := sCont.DrainErr(); err != nil {
		t.Fatal(err)
	}
	cont := sCont.Analyze()
	if cont.Stats.Dropped != 0 {
		t.Fatalf("continuous run lost %d strobes; tighten the drain config", cont.Stats.Dropped)
	}
	if len(cont.Segments) < 2 {
		t.Fatalf("continuous run drained only %d segments", len(cont.Segments))
	}
	if got, want := cont.SummaryString(0), one.SummaryString(0); got != want {
		t.Fatalf("stitched summary differs from one-shot:\n--- one-shot\n%s--- stitched\n%s", want, got)
	}
	lean := sCont.AnalyzeLean()
	if got, want := lean.SummaryString(0), cont.SummaryString(0); got != want {
		t.Fatalf("lean stitched summary differs:\n--- full\n%s--- lean\n%s", want, got)
	}
	// The streamed analysis both calls return must match a serial lean
	// decode of the retained segments.
	var caps []kprof.Capture
	for _, seg := range sCont.Segments() {
		caps = append(caps, seg.Capture)
	}
	serial := analyze.Stitch(caps, sCont.Tags, analyze.ReconstructOptions{
		DiscardTrace: true,
		Repair:       analyze.DefaultRepair(),
	})
	if got, want := lean.SummaryString(0), serial.SummaryString(0); got != want {
		t.Fatalf("streamed summary differs from a serial Stitch:\n--- serial\n%s--- streamed\n%s", want, got)
	}
	if lean.Stats != serial.Stats || lean.SegmentsString() != serial.SegmentsString() {
		t.Fatalf("streamed analysis differs from a serial Stitch: serial %+v, streamed %+v", serial.Stats, lean.Stats)
	}
}

// A long zero-fault drain under proday's deep nesting and context-switch
// churn must come out clean: no corrupt records, no resyncs, no frames
// force-closed, no dropped strobes. Any of those on pristine hardware is
// a Reconstructor bug, not noise.
func TestProdayLongDrainClean(t *testing.T) {
	if testing.Short() {
		t.Skip("long drain stress")
	}
	p := kprof.WorkloadParams{
		Duration: 2 * sim.Second,
		Conns:    300,
		Rate:     350,
	}
	s := runProday(t, 3, p, kprof.ProfileConfig{
		Mode:  kprof.CaptureContinuous,
		Depth: 4096,
	})
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	a := s.Analyze()
	if a.Stats.CorruptRecords != 0 || a.Stats.Resyncs != 0 {
		t.Fatalf("pristine run decoded dirty: %d corrupt, %d resyncs",
			a.Stats.CorruptRecords, a.Stats.Resyncs)
	}
	if a.Stats.Dropped != 0 {
		t.Fatalf("%d strobes dropped", a.Stats.Dropped)
	}
	if fc := forceClosed(a); fc != 0 {
		t.Fatalf("%d frames force-closed without loss", fc)
	}
	if a.Switches < 500 {
		t.Fatalf("only %d context switches; the stress did not stress", a.Switches)
	}
}

// The proday sweep aggregate is golden and independent of the worker
// pool: one worker and two workers must merge to the same bytes.
func TestGoldenProdaySweep(t *testing.T) {
	run := func(parallel int) string {
		res, err := kprof.Sweep(kprof.SweepConfig{
			Scenario: "proday",
			Seeds:    []uint64{1, 2},
			Parallel: parallel,
			Params:   prodayParams,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Agg.Write(&b, 12); err != nil {
			t.Fatal(err)
		}
		for _, r := range res.PerSeed {
			b.WriteString("seed ")
			b.WriteString(r.Workload)
			b.WriteString("\n")
		}
		return b.String()
	}
	one := run(1)
	if two := run(2); two != one {
		t.Fatalf("sweep aggregate depends on worker count:\n--- 1 worker\n%s--- 2 workers\n%s", one, two)
	}
	golden(t, "sweep_proday_seeds1-2.txt", one)
}
