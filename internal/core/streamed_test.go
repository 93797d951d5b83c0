package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// TestStreamedAnalyzeMatchesStitch pins the background decoder's analysis
// to the serial one. For each drained capture, every output Analyze feeds
// equals what analyze.Stitch over the session's segment captures gives,
// byte for byte: the summary, the segment table, the statistics, the
// pprof profile, the call graph, and the trace, which the streamed
// analysis builds lazily from the retained records.
func TestStreamedAnalyzeMatchesStitch(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *core.Session
	}{
		{"netrecv-long", func(t *testing.T) *core.Session {
			return drainedNetrecvLong(t, 400*sim.Millisecond)
		}},
		{"proday", func(t *testing.T) *core.Session {
			p := workload.Params{Duration: 300 * sim.Millisecond, Conns: 100, Rate: 300}
			return drainedScenario(t, "proday", p, 2048)
		}},
		{"glitched", func(t *testing.T) *core.Session {
			s, _, _ := core.RunGlitched(t, core.GlitchAll, false)
			if s.DrainErrs() == 0 {
				t.Fatal("no drain failed; the glitched capture strands no bank")
			}
			return s
		}},
	}
	outputs := []struct {
		name   string
		render func(*analyze.Analysis) string
	}{
		{"summary", func(a *analyze.Analysis) string { return a.SummaryString(0) }},
		{"segments", (*analyze.Analysis).SegmentsString},
		{"stats", func(a *analyze.Analysis) string { return fmt.Sprintf("%+v", a.Stats) }},
		{"pprof", func(a *analyze.Analysis) string {
			return string(export.MarshalPprof(a, export.PprofOptions{}))
		}},
		{"callgraph", func(a *analyze.Analysis) string { return a.CallGraph().String() }},
		{"trace", func(a *analyze.Analysis) string {
			var b bytes.Buffer
			a.WriteTrace(&b, analyze.TraceOptions{})
			return b.String()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.run(t)
			got := s.Analyze()
			if s.Analyze() != got {
				t.Fatal("Analyze after Disarm decoded again; want the streamed analysis")
			}
			want := analyze.Stitch(segmentCaptures(s), s.Tags,
				analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
			for _, out := range outputs {
				if g, w := out.render(got), out.render(want); g != w {
					t.Errorf("streamed %s differs from Stitch's (%d bytes, want %d)", out.name, len(g), len(w))
				}
			}
		})
	}
}

// TestStreamedAnalyzeSkipsTappedSession: a session whose segments a
// SetOnSegment tap consumes starts no decoder of its own, so Analyze
// decodes serially on every call.
func TestStreamedAnalyzeSkipsTappedSession(t *testing.T) {
	s, m := netrecvSession(t)
	taps := 0
	s.SetOnSegment(func(core.Segment) { taps++ })
	before := runtime.NumGoroutine()
	s.Arm()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("arming a tapped session started %d goroutines", n-before)
	}
	runNetrecv(t, m, 100*sim.Millisecond)
	s.Disarm()
	if taps < 2 {
		t.Fatalf("the tap saw %d segments; want a multi-segment capture", taps)
	}
	if s.Analyze() == s.Analyze() {
		t.Fatal("a tapped session returned one analysis twice; want a serial decode per call")
	}
}

// TestStreamedAnalyzeJoinsDecoder: the background decoder is joined by
// Disarm, and by Reset of a session still armed, so the goroutine count
// returns to its start value.
func TestStreamedAnalyzeJoinsDecoder(t *testing.T) {
	start := runtime.NumGoroutine()

	s, m := netrecvSession(t)
	s.Arm()
	runNetrecv(t, m, 100*sim.Millisecond)
	s.Disarm()
	if a := s.Analyze(); a != s.Analyze() || a.Stats.Records == 0 {
		t.Fatal("the capture was not streamed")
	}
	waitGoroutines(t, start, "after Disarm")

	s, m = netrecvSession(t)
	s.Arm()
	runNetrecv(t, m, 100*sim.Millisecond)
	s.Reset()
	waitGoroutines(t, start, "after Reset of an armed session")
}

// netrecvSession boots a machine with a continuous, untapped session on a
// 1024-record card. Netrecv's simulated processes all exit when the
// scenario ends, so they leave no goroutine behind.
func netrecvSession(t *testing.T) (*core.Session, *core.Machine) {
	t.Helper()
	m := core.NewMachine(kernel.Config{Seed: 5})
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func runNetrecv(t *testing.T, m *core.Machine, d sim.Time) {
	t.Helper()
	if _, err := workload.NetReceive(m, d); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// back to start.
func waitGoroutines(t *testing.T, start int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %s, %d at the start", runtime.NumGoroutine(), when, start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
