package analyze

import (
	"strings"
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
)

// Test tag file: a few functions plus swtch ('!') and an inline tag.
const testTags = `a/500
b/502
c/504
isaintr/506
swtch/600!
MGET/1002=
`

func mustTags(t *testing.T) *tagfile.File {
	t.Helper()
	f, err := tagfile.ParseString(testTags)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// cap builds a capture from (tag, µs) pairs.
func capOf(pairs ...[2]uint32) hw.Capture {
	var c hw.Capture
	for _, p := range pairs {
		c.Records = append(c.Records, hw.Record{Tag: uint16(p[0]), Stamp: p[1] & hw.TimerMask})
	}
	return c
}

func analyzeCap(t *testing.T, c hw.Capture) *Analysis {
	t.Helper()
	return ReconstructCapture(c, mustTags(t), ReconstructOptions{})
}

func TestDecodeUnwrapsTimer(t *testing.T) {
	c := capOf([2]uint32{500, hw.TimerMask}, [2]uint32{501, 5})
	events, _ := Decode(c, mustTags(t))
	if events[0].Time != 0 {
		t.Fatalf("first event at %v", events[0].Time)
	}
	// Wrap: (5 - (2^24-1)) mod 2^24 = 6 µs.
	if events[1].Time != 6*sim.Microsecond {
		t.Fatalf("second event at %v, want 6 µs", events[1].Time)
	}
}

func TestDecodeClassifies(t *testing.T) {
	c := capOf([2]uint32{500, 0}, [2]uint32{1002, 1}, [2]uint32{501, 2}, [2]uint32{600, 3}, [2]uint32{9999, 4})
	events, stats := Decode(c, mustTags(t))
	wantKinds := []EventKind{Entry, Inline, Exit, Entry, Unknown}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, events[i].Kind, k)
		}
	}
	if !events[3].CtxSwitch {
		t.Fatal("swtch entry not flagged")
	}
	if stats.UnknownTags != 1 {
		t.Fatalf("unknown tags = %d", stats.UnknownTags)
	}
}

func TestSimpleNesting(t *testing.T) {
	// a { b {} b {} } : a 0..100, b 10..30, b 40..80.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30},
		[2]uint32{502, 40}, [2]uint32{503, 80}, [2]uint32{501, 100},
	))
	sa, _ := a.Fn("a")
	sb, _ := a.Fn("b")
	if sa.Calls != 1 || sb.Calls != 2 {
		t.Fatalf("calls a=%d b=%d", sa.Calls, sb.Calls)
	}
	if sa.Elapsed != 100*sim.Microsecond {
		t.Fatalf("a elapsed = %v", sa.Elapsed)
	}
	if sa.Net != 40*sim.Microsecond {
		t.Fatalf("a net = %v, want 100-60", sa.Net)
	}
	if sb.Elapsed != 60*sim.Microsecond || sb.Net != 60*sim.Microsecond {
		t.Fatalf("b elapsed=%v net=%v", sb.Elapsed, sb.Net)
	}
	if sb.Max != 40*sim.Microsecond || sb.MinOrZero() != 20*sim.Microsecond {
		t.Fatalf("b max=%v min=%v", sb.Max, sb.MinOrZero())
	}
	if sb.Avg() != 30*sim.Microsecond {
		t.Fatalf("b avg = %v", sb.Avg())
	}
}

func TestContextSwitchSplitsPaths(t *testing.T) {
	// Process A: a { b { swtch-in... } }; process B first runs while A
	// sleeps. Timeline:
	//   0  a enter (A)
	//  10  b enter (A)
	//  20  swtch enter (A sleeps)           -> idle begins
	//  50  swtch exit (B resumes, fresh)    -> idle 30
	//  55  c enter (B)
	//  75  c exit  (B)
	//  80  swtch enter (B sleeps)           -> idle begins
	//  95  swtch exit (A resumes)           -> idle 15
	// 100  b exit (A)  <- orphan exit identifies A's stack
	// 120  a exit (A)
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{600, 20},
		[2]uint32{601, 50}, [2]uint32{504, 55}, [2]uint32{505, 75},
		[2]uint32{600, 80}, [2]uint32{601, 95},
		[2]uint32{503, 100}, [2]uint32{501, 120},
	))
	if a.Idle != 45*sim.Microsecond {
		t.Fatalf("idle = %v, want 45 µs", a.Idle)
	}
	if a.Switches != 2 {
		t.Fatalf("switches = %d", a.Switches)
	}
	sb, _ := a.Fn("b")
	// b: 10..100 minus out-of-context 20..95 = 15 µs in context.
	if sb.Elapsed != 15*sim.Microsecond {
		t.Fatalf("b elapsed = %v, want 15 µs (in-context only)", sb.Elapsed)
	}
	sa, _ := a.Fn("a")
	// a: 0..120 minus the same 75 µs switched out = 45; net = 45-15 = 30.
	if sa.Elapsed != 45*sim.Microsecond {
		t.Fatalf("a elapsed = %v, want 45 µs", sa.Elapsed)
	}
	if sa.Net != 30*sim.Microsecond {
		t.Fatalf("a net = %v", sa.Net)
	}
	sc, _ := a.Fn("c")
	if sc.Elapsed != 20*sim.Microsecond {
		t.Fatalf("c elapsed = %v", sc.Elapsed)
	}
	if a.OrphanExits != 0 {
		t.Fatalf("orphan exits = %d", a.OrphanExits)
	}
}

func TestInterruptDuringIdleCountsAsRunTime(t *testing.T) {
	// swtch entry at 10, isaintr 20..60 inside the idle window, swtch
	// exit at 100: idle = 90 - 40 = 50.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{600, 10},
		[2]uint32{506, 20}, [2]uint32{507, 60},
		[2]uint32{601, 100}, [2]uint32{501, 120},
	))
	if a.Idle != 50*sim.Microsecond {
		t.Fatalf("idle = %v, want 50 µs", a.Idle)
	}
	si, _ := a.Fn("isaintr")
	if si.Elapsed != 40*sim.Microsecond {
		t.Fatalf("isaintr elapsed = %v", si.Elapsed)
	}
}

func TestMismatchedExitRecovery(t *testing.T) {
	// a { b { (b's exit lost) } a-exit } — a's exit force-closes b.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{501, 50},
	))
	if a.Recovered != 1 {
		t.Fatalf("recovered = %d", a.Recovered)
	}
	sa, _ := a.Fn("a")
	if sa.Calls != 1 || sa.Elapsed != 50*sim.Microsecond {
		t.Fatalf("a: %+v", sa)
	}
	sb, _ := a.Fn("b")
	if sb.Calls != 1 {
		t.Fatalf("b calls = %d", sb.Calls)
	}
	// b was force-closed: no timing recorded.
	if sb.Elapsed != 0 {
		t.Fatalf("b elapsed = %v, want 0 (incomplete)", sb.Elapsed)
	}
}

func TestOrphanExitAtCaptureStart(t *testing.T) {
	// Capture begins mid-function: first event is c's exit.
	a := analyzeCap(t, capOf(
		[2]uint32{505, 0}, [2]uint32{500, 10}, [2]uint32{501, 20},
	))
	if a.OrphanExits != 1 {
		t.Fatalf("orphan exits = %d", a.OrphanExits)
	}
	sa, _ := a.Fn("a")
	if sa.Elapsed != 10*sim.Microsecond {
		t.Fatalf("a elapsed = %v", sa.Elapsed)
	}
}

func TestInlineMarksAttachToOpenFrame(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{1002, 5}, [2]uint32{1002, 7}, [2]uint32{501, 10},
	))
	s, ok := a.Fn("MGET")
	if !ok || s.Inlines != 2 {
		t.Fatalf("MGET inlines = %+v", s)
	}
	// The trace carries '==' lines.
	trace := a.TraceString(TraceOptions{})
	if strings.Count(trace, "== MGET") != 2 {
		t.Fatalf("trace:\n%s", trace)
	}
}

func TestSummaryFormat(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30}, [2]uint32{501, 100},
	))
	sum := a.SummaryString(0)
	for _, want := range []string{"Elapsed time = 0 sec 100 us (4 tags)", "Accumulated run time", "Idle time", "% real", "b", "a"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	// Sorted by net: a (net 80) before b (net 20).
	if strings.Index(sum, "   a\n") > strings.Index(sum, "   b\n") {
		t.Fatalf("summary not sorted by net:\n%s", sum)
	}
}

func TestTraceFormat(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30}, [2]uint32{501, 100},
		[2]uint32{600, 110}, [2]uint32{601, 150},
	))
	trace := a.TraceString(TraceOptions{})
	for _, want := range []string{
		"0:000 000 -> a (80 us, 100 total)",
		"0:000 010     -> b (20 us)",
		"0:000 030     <-",
		"Context switch out",
		"Context switch in",
	} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestTraceWindowAndLimit(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{501, 10},
		[2]uint32{502, 20}, [2]uint32{503, 30},
	))
	trace := a.TraceString(TraceOptions{From: 15 * sim.Microsecond})
	if strings.Contains(trace, "-> a") {
		t.Fatalf("window leak:\n%s", trace)
	}
	trace = a.TraceString(TraceOptions{MaxLines: 1})
	if !strings.Contains(trace, "truncated") {
		t.Fatalf("no truncation notice:\n%s", trace)
	}
}

func TestHistogram(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{502, 0}, [2]uint32{503, 3},
		[2]uint32{502, 10}, [2]uint32{503, 40},
		[2]uint32{502, 50}, [2]uint32{503, 53},
	))
	h := a.HistogramOf("b")
	if h.Total != 3 {
		t.Fatalf("histogram total = %d", h.Total)
	}
	if !strings.Contains(h.String(), "#") {
		t.Fatalf("no bars:\n%s", h)
	}
}

func TestGroups(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{501, 30},
		[2]uint32{502, 40}, [2]uint32{503, 50},
	))
	groups := a.Groups(map[string]string{"a": "net", "b": "fs"})
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Name != "net" || groups[0].Net != 30*sim.Microsecond {
		t.Fatalf("top group = %+v", groups[0])
	}
	var out strings.Builder
	if err := WriteGroups(&out, groups); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "net") || !strings.Contains(out.String(), "fs") {
		t.Fatalf("groups render:\n%s", out.String())
	}
}

func TestWhatIfEstimators(t *testing.T) {
	p := PacketCost{
		DriverCopy: 1045 * sim.Microsecond,
		Checksum:   843 * sim.Microsecond,
		Copyout:    40 * sim.Microsecond,
		Other:      100 * sim.Microsecond,
		Bytes:      1024,
	}
	// Paper: total ≈ 2000 µs.
	if tot := p.Total(); tot != 2028*sim.Microsecond {
		t.Fatalf("total = %v", tot)
	}
	// Mbuf linking: copy saved, checksum+copyout slowed by the bus
	// penalty — a net loss ("would actually decrease the performance").
	link := EstimateMbufLinking(p, 691*sim.Nanosecond)
	if link.Improves() {
		t.Fatalf("mbuf linking should be a loss: %v", link)
	}
	// Paper: ≈3000 µs estimated.
	if link.Estimate < 2300*sim.Microsecond || link.Estimate > 3500*sim.Microsecond {
		t.Fatalf("mbuf linking estimate = %v, want ≈3000 µs", link.Estimate)
	}
	// Recoded checksum: a big win, ≈2000 → ≈1200 µs.
	opt := EstimateOptimizedChecksum(p, 42*sim.Nanosecond, 8*sim.Microsecond)
	if !opt.Improves() {
		t.Fatalf("optimized cksum should win: %v", opt)
	}
	if opt.Estimate < 1100*sim.Microsecond || opt.Estimate > 1400*sim.Microsecond {
		t.Fatalf("optimized estimate = %v, want ≈1200 µs", opt.Estimate)
	}
	if !strings.Contains(link.String(), "LOSS") || !strings.Contains(opt.String(), "win") {
		t.Fatalf("verdicts: %v / %v", link, opt)
	}
}

func TestWhatIfFlatVerdict(t *testing.T) {
	// A zero-delta estimate is a tie, not a regression.
	w := WhatIf{Name: "no-op change", Baseline: 2000 * sim.Microsecond, Estimate: 2000 * sim.Microsecond}
	if w.Improves() {
		t.Fatalf("tie must not claim a win: %v", w)
	}
	if s := w.String(); !strings.Contains(s, "flat") || strings.Contains(s, "LOSS") {
		t.Fatalf("tie verdict = %q, want flat", s)
	}
	loss := WhatIf{Name: "worse", Baseline: 2000 * sim.Microsecond, Estimate: 2001 * sim.Microsecond}
	if s := loss.String(); !strings.Contains(s, "LOSS") {
		t.Fatalf("loss verdict = %q", s)
	}
}

func TestEmptyCapture(t *testing.T) {
	a := analyzeCap(t, hw.Capture{})
	if a.Elapsed() != 0 || len(a.Functions()) != 0 {
		t.Fatal("empty capture not empty")
	}
	if a.SummaryString(0) == "" {
		t.Fatal("summary should still render headers")
	}
}

func TestCaptureEndsMidIdle(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{501, 10}, [2]uint32{600, 20},
		[2]uint32{506, 40}, [2]uint32{507, 50}, // interrupt, then capture ends mid-idle
	))
	// Idle from 20 to 50 (end) minus interrupt 10 = 20.
	if a.Idle != 20*sim.Microsecond {
		t.Fatalf("idle = %v", a.Idle)
	}
}

func TestNewProcessFirstDispatch(t *testing.T) {
	// swtch exit with no prior entry and no orphan exits: a brand-new
	// context; its calls count normally.
	a := analyzeCap(t, capOf(
		[2]uint32{601, 10}, [2]uint32{500, 20}, [2]uint32{501, 40},
	))
	sa, _ := a.Fn("a")
	if sa.Calls != 1 || sa.Elapsed != 20*sim.Microsecond {
		t.Fatalf("a: %+v", sa)
	}
	// The capture's timeline starts at its first record (the swtch
	// exit), so no idle is observable before it.
	if a.Idle != 0 {
		t.Fatalf("idle = %v", a.Idle)
	}
}
