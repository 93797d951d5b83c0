package analyze

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

func TestTimeline(t *testing.T) {
	// a (net 70) then, after idle, c (net 20) at the far end.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 40}, [2]uint32{501, 100},
		[2]uint32{600, 110}, [2]uint32{601, 900},
		[2]uint32{504, 910}, [2]uint32{505, 930},
	))
	tl := a.Timeline(map[string]string{"a": "net", "b": "net", "c": "fs"}, 10)
	if len(tl.Groups) != 2 {
		t.Fatalf("groups = %v", tl.Groups)
	}
	if tl.Groups[0] != "net" {
		t.Fatalf("dominant group = %s", tl.Groups[0])
	}
	out := tl.String()
	if !strings.Contains(out, "net") || !strings.Contains(out, "fs") {
		t.Fatalf("render:\n%s", out)
	}
	// The fs row's activity is in the last cells, net's in the first.
	netRow := tl.Cells["net"]
	fsRow := tl.Cells["fs"]
	if netRow[0] == 0 || fsRow[len(fsRow)-1] == 0 {
		t.Fatalf("activity misplaced: net=%v fs=%v", netRow, fsRow)
	}
	if fsRow[0] != 0 {
		t.Fatal("fs activity leaked to the start")
	}
}

func TestTimelineEmptyCapture(t *testing.T) {
	a := analyzeCap(t, hw.Capture{})
	tl := a.Timeline(nil, 10)
	if !strings.Contains(tl.String(), "empty") {
		t.Fatalf("render: %s", tl)
	}
}

// Conservation: on a clean balanced capture, per-function net times plus
// idle account for the whole elapsed span.
func TestTimeConservation(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30},
		[2]uint32{504, 35}, [2]uint32{505, 55}, [2]uint32{501, 60},
		[2]uint32{600, 70}, [2]uint32{601, 95},
		[2]uint32{504, 100}, [2]uint32{505, 130},
	))
	var nets sim.Time
	for _, s := range a.Functions() {
		nets += s.Net
	}
	// Gaps between top-level frames (60..70 pre-swtch, 95..100 pending)
	// are unattributed CPU; everything else must balance.
	unattributed := (70-60)*sim.Microsecond + (100-95)*sim.Microsecond
	if nets+a.Idle+unattributed != a.Elapsed() {
		t.Fatalf("nets=%v idle=%v unattributed=%v elapsed=%v",
			nets, a.Idle, unattributed, a.Elapsed())
	}
}

// Robustness: arbitrary garbage captures never panic the analyzer and
// always yield sane aggregates.
func TestAnalyzerRobustnessProperty(t *testing.T) {
	tags := mustTags(t)
	prop := func(raw []uint32) bool {
		var c hw.Capture
		for i := 0; i+1 < len(raw); i += 2 {
			c.Records = append(c.Records, hw.Record{
				Tag:   uint16(raw[i] % 1100), // hits entries, exits, inlines, unknowns
				Stamp: raw[i+1] & hw.TimerMask,
			})
		}
		a := ReconstructCapture(c, tags, ReconstructOptions{})
		if a.Idle < 0 || a.Elapsed() < 0 {
			return false
		}
		if a.Idle > a.Elapsed() {
			return false
		}
		for _, s := range a.Functions() {
			if s.Calls < 0 || s.Elapsed < 0 {
				return false
			}
		}
		// The reports render without panicking.
		_ = a.SummaryString(5)
		_ = a.TraceString(TraceOptions{MaxLines: 20})
		_ = a.Timeline(nil, 8)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Decode honours the capture's clock configuration (the future-work
// higher-precision card).
func TestDecodeHighPrecisionClock(t *testing.T) {
	c := hw.Capture{
		Records:   []hw.Record{{Tag: 500, Stamp: 0}, {Tag: 501, Stamp: 4}},
		ClockHz:   4_000_000,
		TimerBits: 26,
	}
	events, _ := Decode(c, mustTags(t))
	if events[1].Time != sim.Microsecond {
		t.Fatalf("4 ticks at 4 MHz = %v, want 1 µs", events[1].Time)
	}
	// Wrap at 26 bits.
	c2 := hw.Capture{
		Records:   []hw.Record{{Tag: 500, Stamp: 1<<26 - 1}, {Tag: 501, Stamp: 3}},
		ClockHz:   4_000_000,
		TimerBits: 26,
	}
	events2, _ := Decode(c2, mustTags(t))
	if events2[1].Time != sim.Microsecond {
		t.Fatalf("wrapped delta = %v, want 1 µs", events2[1].Time)
	}
}

// A sub-microsecond-resolution capture distinguishes calls the prototype
// card cannot.
func TestHighPrecisionSeparatesShortCalls(t *testing.T) {
	s := sim.NewScheduler()
	proto := hw.NewWithConfig(hw.Config{Depth: 16}, s.Now)
	fast := hw.NewWithConfig(hw.Config{Depth: 16, ClockHz: 10_000_000}, s.Now)
	proto.Arm()
	fast.Arm()
	latchBoth := func(tag uint16) { proto.Latch(tag); fast.Latch(tag) }
	s.AdvanceTo(sim.Microsecond)
	latchBoth(502) // b entry
	s.AdvanceTo(sim.Microsecond + 400*sim.Nanosecond)
	latchBoth(503) // b exit, 400 ns later
	tags := mustTags(t)

	ap := ReconstructCapture(proto.Dump(), tags, ReconstructOptions{})
	af := ReconstructCapture(fast.Dump(), tags, ReconstructOptions{})
	bp, _ := ap.Fn("b")
	bf, _ := af.Fn("b")
	if bp.Net != 0 {
		t.Fatalf("prototype saw %v for a 400 ns call", bp.Net)
	}
	if bf.Net != 400*sim.Nanosecond {
		t.Fatalf("10 MHz card saw %v, want 400 ns", bf.Net)
	}
}

func TestJSONExport(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30}, [2]uint32{501, 100},
	))
	var buf strings.Builder
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var r JSONReport
	if err := json.Unmarshal([]byte(buf.String()), &r); err != nil {
		t.Fatal(err)
	}
	if r.ElapsedUS != 100 || r.Records != 4 {
		t.Fatalf("report header = %+v", r)
	}
	if len(r.Functions) != 2 {
		t.Fatalf("functions = %d", len(r.Functions))
	}
	// Sorted by net: a first.
	if r.Functions[0].Name != "a" || r.Functions[0].NetUS != 80 {
		t.Fatalf("first fn = %+v", r.Functions[0])
	}
	if r.Functions[1].Name != "b" || r.Functions[1].AvgUS != 20 {
		t.Fatalf("second fn = %+v", r.Functions[1])
	}
}
