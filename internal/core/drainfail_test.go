package core

import (
	"errors"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/faults"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// runGlitched profiles the same seeded workload the drain-equivalence tests
// use, with an optional injector on the readout path, retaining the drained
// records or (recycle) returning them to the readout pool once the
// background decoder has consumed them. Because readout-class faults never
// touch the latch path (and draw no randomness per strobe), the strobe
// stream is bit-identical to a clean run's — and a failed drain resets the
// card exactly like a successful one, so the fill-level trajectory and
// every drain boundary line up too. That makes the clean run
// a strobe-for-strobe reference for the glitched one.
func runGlitched(t *testing.T, fc *faults.Config, recycle bool) (*Session, *analyze.Analysis, Progress) {
	t.Helper()
	m := NewMachine(kernel.Config{Seed: 11})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{
			HighWater: 64,
			Interval:  20 * sim.Microsecond,
			Recycle:   recycle,
		},
		Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	s.SetProgress(func(p Progress) { last = p })
	s.Arm()
	mallocStorm(m, 300)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	return s, s.AnalyzeLean(), last
}

// glitchAll is an injector profile that corrupts socket readout heavily
// enough that some drains fail their open-bus verify, while leaving the
// latch path untouched.
var glitchAll = &faults.Config{Seed: 3, Classes: faults.ReadoutGlitch, ReadoutRate: 0.05}

// TestGlitchedDrainCaptureContinues is the headline differential test: a
// readout failure mid-run must not stall capture. The card is recovered
// (reset and re-armed), the stranded bank is accounted as dropped strobes
// on a zero-record segment, and later drains succeed — against the buggy
// early return, the card stayed full and disarmed and the rest of the run
// silently vanished.
func TestGlitchedDrainCaptureContinues(t *testing.T) {
	sClean, clean, _ := runGlitched(t, nil, false)
	if err := sClean.DrainErr(); err != nil {
		t.Fatal(err)
	}
	s, a, prog := runGlitched(t, glitchAll, false)

	fails := s.DrainErrs()
	if fails < 2 {
		t.Fatalf("want ≥2 failed drains to exercise error suppression, got %d (re-seed the injector)", fails)
	}
	if err := s.DrainErr(); !errors.Is(err, hw.ErrReadoutVerify) {
		t.Fatalf("DrainErr = %v, want ErrReadoutVerify", err)
	}
	if prog.DrainErrs != fails {
		t.Fatalf("Progress reports %d drain errors, session says %d", prog.DrainErrs, fails)
	}

	// Capture continued after the first failure: a later segment holds
	// records again (the card was re-armed, not left dead).
	segs := s.Segments()
	firstFail := -1
	stranded := 0
	var lost, captured uint64
	for i, seg := range segs {
		captured += uint64(seg.Capture.Len())
		lost += seg.Capture.Dropped
		if seg.Capture.Len() == 0 && seg.Capture.Dropped > 0 {
			stranded++
			if firstFail < 0 {
				firstFail = i
			}
		}
	}
	if stranded != fails {
		t.Fatalf("%d failed drains but %d stranded segments", fails, stranded)
	}
	recovered := false
	for _, seg := range segs[firstFail+1:] {
		if seg.Capture.Len() > 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no records captured after the first failed drain (segment %d of %d) — card not recovered", firstFail, len(segs))
	}

	// Nothing is silent: every strobe of the identical clean run is either
	// captured or accounted as dropped, exactly.
	if captured+lost != uint64(clean.Stats.Records) {
		t.Fatalf("accounting hole: %d captured + %d dropped != %d clean records",
			captured, lost, clean.Stats.Records)
	}
	if a.Stats.Dropped != lost {
		t.Fatalf("analysis reports %d dropped, segments carry %d", a.Stats.Dropped, lost)
	}
	// The stranded banks surface in the segment report as lossy boundaries.
	zero := 0
	for _, seg := range a.Segments {
		if seg.Records == 0 && seg.Dropped > 0 {
			zero++
		}
	}
	if zero != fails {
		t.Fatalf("analysis shows %d zero-record lossy segments, want %d", zero, fails)
	}
}

// TestGlitchedDrainPipelineMatchesSerial pins the recycling decoder's view
// of a glitched run to the record-retaining one's and both to a serial
// Stitch of the retained records: a failed drain hands its pooled buffer
// straight back, and the stranded segment flows through the pipe as an
// empty batch with its drop count, so every path sees the identical
// boundary sequence.
func TestGlitchedDrainPipelineMatchesSerial(t *testing.T) {
	sSer, serial, _ := runGlitched(t, glitchAll, false)
	sPipe, piped, _ := runGlitched(t, glitchAll, true)
	matchesStitch(t, "retained", serial, sSer)
	matchesStitch(t, "recycled", piped, sSer)
	if sSer.DrainErrs() == 0 || sSer.DrainErrs() != sPipe.DrainErrs() {
		t.Fatalf("drain failures differ: serial %d, recycled %d", sSer.DrainErrs(), sPipe.DrainErrs())
	}
	if got, want := piped.SummaryString(0), serial.SummaryString(0); got != want {
		t.Fatalf("recycled summary differs from serial under glitched drains:\n--- serial\n%s--- recycled\n%s", want, got)
	}
	if piped.Stats != serial.Stats {
		t.Fatalf("stats differ: serial %+v, recycled %+v", serial.Stats, piped.Stats)
	}
	if got, want := piped.SegmentsString(), serial.SegmentsString(); got != want {
		t.Fatalf("segment tables differ:\n--- serial\n%s--- recycled\n%s", want, got)
	}
	// The recycling run really used the background decoder's result.
	if sPipe.AnalyzeLean() != piped {
		t.Fatal("streamed analysis not cached")
	}
}
