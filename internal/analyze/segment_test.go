package analyze

import (
	"slices"
	"strings"
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
)

// Untimed calls (force-closed frames, orphan exits, frames open at capture
// end) count in Calls but not in TimedCalls, and never dilute the averages.
func TestTimedCallsExcludeUntimed(t *testing.T) {
	// a { b (b's exit lost) } a-exit: b is force-closed, untimed.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{501, 50},
	))
	sb, _ := a.Fn("b")
	if sb.Calls != 1 || sb.TimedCalls != 0 {
		t.Fatalf("b calls=%d timed=%d, want 1/0", sb.Calls, sb.TimedCalls)
	}
	if sb.Avg() != 0 || sb.AvgElapsed() != 0 {
		t.Fatalf("untimed call biased averages: avg=%v avgElapsed=%v", sb.Avg(), sb.AvgElapsed())
	}
	sa, _ := a.Fn("a")
	if sa.Calls != 1 || sa.TimedCalls != 1 {
		t.Fatalf("a calls=%d timed=%d, want 1/1", sa.Calls, sa.TimedCalls)
	}
	if sa.Avg() != sa.Net {
		t.Fatalf("a avg=%v, want net %v over one timed call", sa.Avg(), sa.Net)
	}

	// One complete call plus one frame still open at capture end: the
	// average reflects only the complete call.
	a = analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{501, 30}, [2]uint32{500, 40},
	))
	sa, _ = a.Fn("a")
	if sa.Calls != 2 || sa.TimedCalls != 1 {
		t.Fatalf("a calls=%d timed=%d, want 2/1", sa.Calls, sa.TimedCalls)
	}
	if sa.Avg() != 30*sim.Microsecond {
		t.Fatalf("a avg=%v, want 30 µs (open frame excluded)", sa.Avg())
	}
}

// A lost interrupt exit inside an idle window must not leave the frame open
// on the idle stack: switch-in force-closes it, so interrupts in later idle
// windows never nest under a stale frame.
func TestSwitchInForceClosesLostIdleInterrupt(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0},   // a enter
		[2]uint32{600, 10},  // swtch enter: idle window 1
		[2]uint32{506, 20},  // isaintr enter — exit LOST
		[2]uint32{601, 100}, // swtch exit: force-close isaintr here
		[2]uint32{600, 110}, // swtch enter: idle window 2
		[2]uint32{506, 120}, // isaintr enter
		[2]uint32{507, 160}, // isaintr exit — must close THIS frame
		[2]uint32{601, 200}, // swtch exit
		[2]uint32{501, 220}, // a exit (adopts the suspended stack)
	))
	if a.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1 (the lost interrupt exit)", a.Recovered)
	}
	si, _ := a.Fn("isaintr")
	if si.Calls != 2 || si.TimedCalls != 1 {
		t.Fatalf("isaintr calls=%d timed=%d, want 2/1", si.Calls, si.TimedCalls)
	}
	// The second interrupt is a top-level idle frame, not a child of the
	// stale one: its 40 µs count and are deducted from the idle window.
	if si.Elapsed != 40*sim.Microsecond {
		t.Fatalf("isaintr elapsed = %v, want 40 µs", si.Elapsed)
	}
	// Window 1: 100-10 = 90 (the unclosed interrupt's time is unknowable).
	// Window 2: (200-110) - 40 = 50.
	if a.Idle != 140*sim.Microsecond {
		t.Fatalf("idle = %v, want 140 µs", a.Idle)
	}
	sa, _ := a.Fn("a")
	if sa.Elapsed != 30*sim.Microsecond {
		t.Fatalf("a elapsed = %v, want 30 µs in-context", sa.Elapsed)
	}
}

// The context switcher is whatever the tag file marks '!', not a function
// named "swtch": its stat carries CtxSwitch and reports skip it by flag.
func TestCtxSwitchFlagFollowsTagFile(t *testing.T) {
	tags, err := tagfile.ParseString("main/500\nresched/510!\n")
	if err != nil {
		t.Fatal(err)
	}
	c := capOf(
		[2]uint32{500, 0}, [2]uint32{510, 10},
		[2]uint32{511, 30}, [2]uint32{501, 50},
	)
	a := ReconstructCapture(c, tags, ReconstructOptions{})
	sw, ok := a.Fn("resched")
	if !ok || !sw.CtxSwitch {
		t.Fatalf("resched stat = %+v, ok=%v; want CtxSwitch", sw, ok)
	}
	if sw.Calls != 1 {
		t.Fatalf("resched calls = %d", sw.Calls)
	}
	if a.Idle != 20*sim.Microsecond {
		t.Fatalf("idle = %v", a.Idle)
	}
	sum := a.SummaryString(0)
	if strings.Contains(sum, "resched") {
		t.Fatalf("summary lists the switcher row:\n%s", sum)
	}
	if !strings.Contains(sum, "main") {
		t.Fatalf("summary lost the ordinary row:\n%s", sum)
	}
	sm, _ := a.Fn("main")
	if sm.CtxSwitch {
		t.Fatal("ordinary function flagged as switcher")
	}
}

// cleanSegments slices a capture into lossless segments at the given cut
// points.
func cleanSegments(c hw.Capture, cuts ...int) []hw.Capture {
	var segs []hw.Capture
	prev := 0
	for _, cut := range append(cuts, len(c.Records)) {
		seg := c
		seg.Records = c.Records[prev:cut]
		seg.Overflowed = false
		seg.Dropped = 0
		segs = append(segs, seg)
		prev = cut
	}
	return segs
}

// The split-anywhere property: a capture split at EVERY possible drain
// boundary reconstructs identically to the unsplit capture — clean
// boundaries are pure continuations, so drain timing can never change the
// analysis.
func TestStitchSplitAnywhereMatchesUnsplit(t *testing.T) {
	tags := mustTags(t)
	for _, seed := range []uint64{1, 77} {
		c := pseudoCapture(seed, 300)
		c.Overflowed = false
		c.Dropped = 0
		rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{})
		for _, r := range c.Records {
			rc.Push(r)
		}
		whole := rc.Finish(false, 0)
		wholeSum := whole.SummaryString(0)
		for cut := 0; cut <= len(c.Records); cut++ {
			split := Stitch(cleanSegments(c, cut), tags, ReconstructOptions{})
			if got := split.SummaryString(0); got != wholeSum {
				t.Fatalf("seed %d cut %d: summary differs\n--- split ---\n%s--- whole ---\n%s",
					seed, cut, got, wholeSum)
			}
			if split.Idle != whole.Idle || split.Switches != whole.Switches ||
				split.OrphanExits != whole.OrphanExits || split.Recovered != whole.Recovered {
				t.Fatalf("seed %d cut %d: accounting differs", seed, cut)
			}
			if split.Stats != whole.Stats {
				t.Fatalf("seed %d cut %d: stats %+v != %+v", seed, cut, split.Stats, whole.Stats)
			}
			if len(split.Segments) != 2 {
				t.Fatalf("seed %d cut %d: %d segments", seed, cut, len(split.Segments))
			}
			if split.Segments[0].Records != cut || split.Segments[1].Records != len(c.Records)-cut {
				t.Fatalf("seed %d cut %d: segment sizes %d/%d",
					seed, cut, split.Segments[0].Records, split.Segments[1].Records)
			}
		}
	}
}

// A lossy boundary force-closes every open frame, reports the count on the
// segment, and folds the dropped strobes into the capture-quality stats.
func TestStitchLossyBoundary(t *testing.T) {
	tags := mustTags(t)
	// Segment 1 ends with a and b open; 3 strobes were lost before the
	// drain. Segment 2 is a fresh balanced call.
	seg1 := capOf([2]uint32{500, 0}, [2]uint32{502, 10})
	seg1.Dropped = 3
	seg1.Overflowed = true
	seg2 := capOf([2]uint32{504, 100}, [2]uint32{505, 130})
	a := Stitch([]hw.Capture{seg1, seg2}, tags, ReconstructOptions{})
	if len(a.Segments) != 2 {
		t.Fatalf("%d segments", len(a.Segments))
	}
	if a.Segments[0].ForceClosed != 2 || a.Recovered != 2 {
		t.Fatalf("force-closed %d, recovered %d; want 2/2",
			a.Segments[0].ForceClosed, a.Recovered)
	}
	if a.Segments[0].Dropped != 3 || a.Stats.Dropped != 3 || !a.Stats.Overflowed {
		t.Fatalf("loss accounting: seg dropped=%d stats=%+v", a.Segments[0].Dropped, a.Stats)
	}
	if a.Segments[1].ForceClosed != 0 || a.Segments[1].Dropped != 0 {
		t.Fatalf("clean segment charged with loss: %+v", a.Segments[1])
	}
	// The frames spanning the boundary are untimed, and c is intact.
	for _, name := range []string{"a", "b"} {
		s, _ := a.Fn(name)
		if s.Calls != 1 || s.TimedCalls != 0 {
			t.Fatalf("%s calls=%d timed=%d, want 1/0", name, s.Calls, s.TimedCalls)
		}
	}
	sc, _ := a.Fn("c")
	if sc.TimedCalls != 1 || sc.Elapsed != 30*sim.Microsecond {
		t.Fatalf("c: %+v", sc)
	}
}

// EndSegment/Finish misuse panics rather than silently corrupting.
func TestSegmentAPIMisuse(t *testing.T) {
	rc := NewReconstructor(hw.Config{}, mustTags(t), ReconstructOptions{})
	rc.Finish(false, 0)
	for name, fn := range map[string]func(){
		"Push":       func() { rc.Push(hw.Record{}) },
		"EndSegment": func() { rc.EndSegment(0, false) },
		"Finish":     func() { rc.Finish(false, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Finish did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzSegmentBoundary drives the decoder/reconstructor segment-boundary
// state with arbitrary records and an arbitrary split point: a clean split
// must reconstruct identically to the unsplit capture, and a lossy split
// must keep the books consistent (records partitioned, drops folded,
// force-closes counted in Recovered) without panicking.
func FuzzSegmentBoundary(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0xf4, 0x01, 7, 0xff, 0xff, 0xff, 0xf5, 0x01})
	f.Add([]byte{3, 0x12, 0x34, 0x56, 0x58, 0x02, 0x11, 0x22, 0x33, 0x59, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tags := mustTags(t)
		var c hw.Capture
		for i := 1; i+5 <= len(data); i += 5 {
			stamp := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
			tag := uint16(data[i+3]) | uint16(data[i+4])<<8
			c.Records = append(c.Records, hw.Record{Tag: tag, Stamp: stamp & hw.TimerMask})
		}
		cut := 0
		if n := len(c.Records); n > 0 {
			cut = int(data[0]) % (n + 1)
		}

		rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{})
		for _, r := range c.Records {
			rc.Push(r)
		}
		whole := rc.Finish(false, 0)

		clean := Stitch(cleanSegments(c, cut), tags, ReconstructOptions{})
		if got, want := clean.SummaryString(0), whole.SummaryString(0); got != want {
			t.Fatalf("cut %d: clean split summary differs\n--- split ---\n%s--- whole ---\n%s", cut, got, want)
		}
		if clean.Recovered != whole.Recovered || clean.Idle != whole.Idle {
			t.Fatalf("cut %d: clean split accounting differs", cut)
		}
		if got, want := clean.Profile(), whole.Profile(); !slices.Equal(got.Paths(), want.Paths()) ||
			!slices.Equal(got.Samples(), want.Samples()) || !slices.Equal(got.Funcs(), want.Funcs()) {
			t.Fatalf("cut %d: clean split folds a different profile", cut)
		}

		// Lossy variant: the first segment drops one strobe at its end.
		segs := cleanSegments(c, cut)
		segs[0].Dropped = 1
		lossy := Stitch(segs, tags, ReconstructOptions{})
		if lossy.Stats.Dropped != 1 {
			t.Fatalf("lossy split folded %d dropped, want 1", lossy.Stats.Dropped)
		}
		total, forced := 0, 0
		for _, seg := range lossy.Segments {
			total += seg.Records
			forced += seg.ForceClosed
		}
		if total != len(c.Records) {
			t.Fatalf("segments hold %d records, capture %d", total, len(c.Records))
		}
		if lossy.Recovered < forced {
			t.Fatalf("Recovered=%d < force-closed=%d", lossy.Recovered, forced)
		}
		// Each record adds at most one trace item, the bound Stitch sizes
		// the trace to once; every complete invocation's callees account
		// for exactly its elapsed minus net; and the profile folded while
		// streaming is the one a walk of the trace finds. (The streamed
		// whole capture keeps no trace to check.)
		for name, a := range map[string]*Analysis{"clean": clean, "lossy": lossy} {
			if len(a.Items()) > a.Stats.Records {
				t.Fatalf("cut %d: %s trace has %d items for %d records", cut, name, len(a.Items()), a.Stats.Records)
			}
			if _, err := CheckConservation(a); err != nil {
				t.Fatalf("cut %d: %s: %v", cut, name, err)
			}
			if _, err := CheckProfile(a); err != nil {
				t.Fatalf("cut %d: %s: %v", cut, name, err)
			}
		}
	})
}
