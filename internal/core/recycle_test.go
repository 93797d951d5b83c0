package core

import (
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// runForRecycle profiles the drain-equivalence workload, retaining the
// drained records or (recycle) returning them to recycled buffers once the
// background decoder has consumed them. Either way the segments stream
// through the background decoder.
func runForRecycle(t *testing.T, recycle bool) *Session {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	mallocStorm(m, 300)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	return s
}

// matchesStitch fails t unless a's summary, statistics and segment table
// equal a serial lean analyze.Stitch of ref's retained segment captures:
// the serial decode every streamed analysis must reproduce.
func matchesStitch(t *testing.T, side string, a *analyze.Analysis, ref *Session) {
	t.Helper()
	serial := analyze.Stitch(ref.stitchList(), ref.Tags, analyze.ReconstructOptions{
		DiscardTrace: true,
		Repair:       analyze.DefaultRepair(),
	})
	if got, want := a.SummaryString(0), serial.SummaryString(0); got != want {
		t.Fatalf("%s summary differs from the serial Stitch:\n--- serial\n%s--- %s\n%s", side, want, side, got)
	}
	if a.Stats != serial.Stats {
		t.Fatalf("%s stats differ: serial %+v, %s %+v", side, serial.Stats, side, a.Stats)
	}
	if got, want := a.SegmentsString(), serial.SegmentsString(); got != want {
		t.Fatalf("%s segment table differs:\n--- serial\n%s--- %s\n%s", side, want, side, got)
	}
}

// TestRecycleMatchesResident pins the recycling drain loop's analysis to
// the record-retaining one's, byte for byte, and both to a serial Stitch
// of the retained records: recycling changes where the drained bytes
// live, never what they say.
func TestRecycleMatchesResident(t *testing.T) {
	sKeep := runForRecycle(t, false)
	sRec := runForRecycle(t, true)
	keep, rec := sKeep.AnalyzeLean(), sRec.AnalyzeLean()
	matchesStitch(t, "resident", keep, sKeep)
	matchesStitch(t, "recycled", rec, sKeep)
	if got, want := rec.SummaryString(0), keep.SummaryString(0); got != want {
		t.Fatalf("recycled summary differs from resident:\n--- resident\n%s--- recycled\n%s", want, got)
	}
	if rec.Stats != keep.Stats {
		t.Fatalf("stats differ: resident %+v, recycled %+v", keep.Stats, rec.Stats)
	}
	if got, want := rec.SegmentsString(), keep.SegmentsString(); got != want {
		t.Fatalf("segment tables differ:\n--- resident\n%s--- recycled\n%s", want, got)
	}

	// The segment store kept counts and loss metadata, not records.
	var keepRecs, recRecs int
	for _, seg := range sKeep.Segments() {
		keepRecs += seg.Records
		if seg.Records != seg.Capture.Len() {
			t.Fatalf("resident segment count %d != %d records held", seg.Records, seg.Capture.Len())
		}
	}
	for _, seg := range sRec.Segments() {
		recRecs += seg.Records
		if !seg.Recycled {
			t.Fatal("recycling session produced an unrecycled segment")
		}
		if seg.Capture.Records != nil {
			t.Fatal("recycled segment still holds its record buffer")
		}
	}
	if keepRecs != recRecs || keepRecs == 0 {
		t.Fatalf("drained record counts differ: resident %d, recycled %d", keepRecs, recRecs)
	}
}

// TestRecycleContract pins the narrowed contract: a recycling session's
// records are gone, so re-decoding them must fail loudly, not return an
// empty analysis.
func TestRecycleContract(t *testing.T) {
	s := runForRecycle(t, true)
	if len(s.Segments()) < 2 {
		t.Fatalf("only %d segments drained", len(s.Segments()))
	}
	mustPanic := func(op string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on recycled segments did not panic", op)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "Recycle") {
				t.Fatalf("%s panic does not explain the contract: %v", op, r)
			}
		}()
		fn()
	}
	mustPanic("Analyze", func() { s.Analyze() })

	// Invalidate the streamed result's coverage (fresh capture after the
	// pipe closed): the lean fallback would re-decode, so it must panic
	// too rather than analyze nil record lists.
	s.Arm()
	mallocStorm(s.M, 50)
	s.M.K.Run(s.M.K.Now() + 500*sim.Millisecond)
	s.Disarm()
	mustPanic("AnalyzeLean", func() { s.AnalyzeLean() })
}
