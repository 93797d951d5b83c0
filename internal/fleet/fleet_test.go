package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// fixtureMachines is the heterogeneous test fleet: three machines with
// different scenarios, RAM depths and clock rates.
var fixtureMachines = []MachineConfig{
	{ID: 0, Seed: 1001, Scenario: "netrecv", Params: workload.Params{Duration: 120 * sim.Millisecond}, Depth: 2048},
	{ID: 1, Seed: 1002, Scenario: "forkexec", Params: workload.Params{Count: 2}, Depth: 1024, ClockHz: 2_000_000},
	{ID: 2, Seed: 1003, Scenario: "mixed", Params: workload.Params{Duration: 100 * sim.Millisecond}, Depth: 4096, ClockHz: 4_000_000},
}

var (
	fixtureOnce sync.Once
	fixtureSrcs []*ReplaySource
	fixtureErr  error
)

// fixture records the test fleet's segment streams once; every test
// replays the identical bytes.
func fixture(t *testing.T) []Source {
	t.Helper()
	fixtureOnce.Do(func() {
		for _, mc := range fixtureMachines {
			rs, err := Record(mc)
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureSrcs = append(fixtureSrcs, rs)
		}
	})
	if fixtureErr != nil {
		t.Fatalf("recording fixture fleet: %v", fixtureErr)
	}
	srcs := make([]Source, len(fixtureSrcs))
	for i, rs := range fixtureSrcs {
		srcs[i] = rs
	}
	return srcs
}

const testWindow = 20 * sim.Millisecond

// render flattens a result into its full text + JSON report bytes.
func render(t *testing.T, r *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Write(&b, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b.WriteString("\n--json--\n")
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.String()
}

func runReplay(t *testing.T, staging int) *Result {
	t.Helper()
	res, err := RunSources(Config{
		Machines: fixtureMachines,
		Window:   testWindow,
		Staging:  staging,
	}, fixture(t))
	if err != nil {
		t.Fatalf("RunSources(staging=%d): %v", staging, err)
	}
	return res
}

// TestFleetDeterminism is the tentpole acceptance check: the fleet report
// must be byte-identical for any ingest interleaving (the staging bound
// changes which appends block, reshuffling the commit schedule).
func TestFleetDeterminism(t *testing.T) {
	base := runReplay(t, 64)
	if base.Segments == 0 || base.Records == 0 || len(base.Windows) < 2 {
		t.Fatalf("fixture fleet too small to exercise windowing: %d segments, %d records, %d windows",
			base.Segments, base.Records, len(base.Windows))
	}
	baseBytes := render(t, base)
	for _, staging := range []int{1, 2, 8} {
		if got := render(t, runReplay(t, staging)); got != baseBytes {
			t.Errorf("report bytes differ at staging=%d (want the staging=64 bytes)", staging)
		}
	}
}

// TestFleetRestart is the checkpoint differential: stop the projection
// loop after k commits, start a second loop over the same store, and
// require the final report byte-identical to an uninterrupted run — with
// every segment committed exactly once.
func TestFleetRestart(t *testing.T) {
	base := runReplay(t, 64)
	baseBytes := render(t, base)
	total := base.Segments
	if total < 4 {
		t.Fatalf("fixture fleet produced only %d segments; restart test needs more", total)
	}
	for _, k := range []int{1, total / 2, total - 1} {
		st, err := NewStore(testWindow, 4, []int{0, 1, 2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ing := StartIngest(st, fixture(t))
		if err := st.project(k); !errors.Is(err, ErrKilled) {
			t.Fatalf("kill after %d: project = %v, want ErrKilled", k, err)
		}
		if got := st.Progress().SegmentsCommitted; got != k {
			t.Fatalf("kill after %d: %d segments committed at kill", k, got)
		}
		restarted := make(chan error, 1)
		go func() { restarted <- st.project(-1) }()
		if err := ing.Wait(); err != nil {
			t.Fatalf("kill after %d: ingest: %v", k, err)
		}
		if err := <-restarted; err != nil {
			t.Fatalf("kill after %d: restarted projection: %v", k, err)
		}
		prog := st.Progress()
		if prog.SegmentsCommitted != total || prog.SegmentsStaged != total {
			t.Errorf("kill after %d: committed %d / staged %d, want %d exactly-once",
				k, prog.SegmentsCommitted, prog.SegmentsStaged, total)
		}
		if got := render(t, st.Result()); got != baseBytes {
			t.Errorf("kill after %d: restarted report bytes differ from uninterrupted run", k)
		}
	}
}

// TestFleetWatermark asserts the pipeline invariants observable through
// the progress hook: the watermark never regresses, the backlog respects
// the staging bound, and commits never outrun appends.
func TestFleetWatermark(t *testing.T) {
	const staging = 3
	var trace []Progress
	_, err := RunSources(Config{
		Machines: fixtureMachines,
		Window:   testWindow,
		Staging:  staging,
		// Serialized under the store lock, so the plain append is safe.
		OnProgress: func(p Progress) { trace = append(trace, p) },
	}, fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	var prev Progress
	for i, p := range trace {
		if p.WatermarkUS < prev.WatermarkUS {
			t.Fatalf("callback %d: watermark regressed %d -> %d us", i, prev.WatermarkUS, p.WatermarkUS)
		}
		if p.WindowsClosed < prev.WindowsClosed {
			t.Fatalf("callback %d: closed-window count regressed", i)
		}
		if p.Backlog > staging {
			t.Fatalf("callback %d: backlog %d exceeds staging bound %d", i, p.Backlog, staging)
		}
		if p.SegmentsCommitted > p.SegmentsStaged {
			t.Fatalf("callback %d: committed %d > staged %d", i, p.SegmentsCommitted, p.SegmentsStaged)
		}
		prev = p
	}
	last := trace[len(trace)-1]
	if last.MachinesDone != len(fixtureMachines) || last.Backlog != 0 {
		t.Fatalf("final progress not drained: %+v", last)
	}
}

// TestFleetLiveMatchesReplay proves the live path and the replay path
// are the same pipeline: a live fleet run renders the same bytes as
// replaying the recorded streams of identically configured machines.
func TestFleetLiveMatchesReplay(t *testing.T) {
	cfg := Config{Machines: fixtureMachines, Window: testWindow}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := runReplay(t, 64)
	if render(t, live) != render(t, replay) {
		t.Error("live fleet run and replayed fleet run render different bytes")
	}
}

// TestFleetSamplesSumToReconstruction checks the ingest delta math
// end-to-end: a single-machine fleet's committed totals equal a direct
// full-stream reconstruction of the same segments, exactly.
func TestFleetSamplesSumToReconstruction(t *testing.T) {
	rs := fixture(t)[0].(*ReplaySource)
	res, err := RunSources(Config{
		Machines: fixtureMachines[:1],
		Window:   60 * sim.Second, // one window: the whole stream
	}, []Source{rs})
	if err != nil {
		t.Fatal(err)
	}
	rc := analyze.NewReconstructor(rs.Clock, rs.TagFile, analyze.ReconstructOptions{
		DiscardTrace: true, Repair: analyze.DefaultRepair(),
	})
	for _, seg := range rs.Segments {
		rc.PushBatch(seg.Records)
		rc.EndSegment(seg.Dropped, seg.Overflowed)
	}
	a := rc.Finish(false, 0)
	if res.Records != a.Stats.Records {
		t.Errorf("fleet committed %d records, reconstruction decoded %d", res.Records, a.Stats.Records)
	}
	if res.Segments != len(rs.Segments) {
		t.Errorf("fleet committed %d segments, stream has %d", res.Segments, len(rs.Segments))
	}
	if len(res.Windows) != 1 {
		t.Fatalf("expected one window, got %d", len(res.Windows))
	}
	g := res.Agg
	if g.Seeds != 1 {
		t.Fatalf("expected one observation, got %d", g.Seeds)
	}
	if want := float64(a.Elapsed()) / float64(sim.Microsecond); g.ElapsedUS.Mean != want {
		t.Errorf("window elapsed %v us, reconstruction %v us", g.ElapsedUS.Mean, want)
	}
	if want := float64(a.Idle) / float64(sim.Microsecond); g.ElapsedUS.Mean-g.RunUS.Mean != want {
		t.Errorf("window idle %v us, reconstruction %v us", g.ElapsedUS.Mean-g.RunUS.Mean, want)
	}
	// Per-function sums: every non-switcher function with net time must
	// round-trip exactly (ticks are integers; one float conversion each).
	for _, f := range a.Functions() {
		if f.CtxSwitch {
			continue
		}
		fa, ok := g.Fn(f.Name)
		if f.Calls == 0 && f.Net == 0 {
			continue
		}
		if !ok {
			t.Errorf("function %s missing from fleet aggregate", f.Name)
			continue
		}
		if fa.Calls.Mean != float64(f.Calls) {
			t.Errorf("%s: fleet calls %v, reconstruction %d", f.Name, fa.Calls.Mean, f.Calls)
		}
		if want := float64(f.Net) / float64(sim.Microsecond); fa.NetUS.Mean != want {
			t.Errorf("%s: fleet net %v us, reconstruction %v us", f.Name, fa.NetUS.Mean, want)
		}
	}
}

func TestMachinesFromMix(t *testing.T) {
	machines, err := MachinesFromMix(7, "netrecv=2,forkexec=1", 500, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	wantScenario := []string{"netrecv", "netrecv", "forkexec", "netrecv", "netrecv", "forkexec", "netrecv"}
	for i, mc := range machines {
		if mc.ID != i {
			t.Errorf("machine %d: ID %d", i, mc.ID)
		}
		if mc.Seed != 500+uint64(i) {
			t.Errorf("machine %d: seed %d", i, mc.Seed)
		}
		if mc.Scenario != wantScenario[i] {
			t.Errorf("machine %d: scenario %s, want %s", i, mc.Scenario, wantScenario[i])
		}
	}
	// Heterogeneity cycles: depth by index, clock every three machines.
	if machines[0].Depth != 0 || machines[1].Depth != 8192 || machines[2].Depth != 4096 {
		t.Errorf("depth cycle wrong: %d %d %d", machines[0].Depth, machines[1].Depth, machines[2].Depth)
	}
	if machines[0].ClockHz != 0 || machines[3].ClockHz != 2_000_000 || machines[6].ClockHz != 4_000_000 {
		t.Errorf("clock cycle wrong: %d %d %d", machines[0].ClockHz, machines[3].ClockHz, machines[6].ClockHz)
	}
	for _, spec := range []string{"nosuch", "netrecv=x", "netrecv=0"} {
		if _, err := MachinesFromMix(3, spec, 1, workload.Params{}); err == nil {
			t.Errorf("MachinesFromMix(%q) succeeded, want error", spec)
		}
	}
	if _, err := MachinesFromMix(0, "netrecv", 1, workload.Params{}); err == nil {
		t.Error("MachinesFromMix(0 machines) succeeded, want error")
	}
}

// TestFleetReportShape sanity-checks the rendered report so doc examples
// stay truthful.
func TestFleetReportShape(t *testing.T) {
	res := runReplay(t, 64)
	text := res.String()
	for _, want := range []string{"Fleet of 3 machines", "windows of 20000 us", "Sweep of fleet across"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "kprof-fleet/1"`, `"watermark_us"`, `"windows"`, `"functions"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// TestFleetOnWindowHook: the window-close hook sees every summary the
// final report lists, in close order — which is ascending index order,
// whatever the staging bound — and each summary equals its Result.Windows
// entry field for field (the serving tier's time-series ring depends on
// both properties).
func TestFleetOnWindowHook(t *testing.T) {
	for _, staging := range []int{1, 64} {
		var hooked []WindowSummary
		res, err := RunSources(Config{
			Machines: fixtureMachines,
			Window:   testWindow,
			Staging:  staging,
			OnWindow: func(ws WindowSummary) { hooked = append(hooked, ws) },
		}, fixture(t))
		if err != nil {
			t.Fatalf("RunSources(staging=%d): %v", staging, err)
		}
		if len(hooked) != len(res.Windows) {
			t.Fatalf("staging=%d: hook fired %d times, result has %d windows", staging, len(hooked), len(res.Windows))
		}
		for i, ws := range hooked {
			if i > 0 && ws.Index <= hooked[i-1].Index {
				t.Fatalf("staging=%d: window %d closed out of order: index %d after %d",
					staging, i, ws.Index, hooked[i-1].Index)
			}
			if !reflect.DeepEqual(ws, res.Windows[i]) {
				t.Fatalf("staging=%d: hooked window %d is %+v, result lists %+v", staging, i, ws, res.Windows[i])
			}
		}
	}
}

// TestFleetJoinsGoroutines: a fleet run returns only once every goroutine
// it started has exited — replays at two staging bounds, a projection
// loop stopped and started again, and a live netrecv machine (a scenario
// that leaves no parked simulated process behind). The fixture is
// recorded before the count starts, so its live recording stays outside
// it.
func TestFleetJoinsGoroutines(t *testing.T) {
	srcs := fixture(t)
	start := runtime.NumGoroutine()
	runReplay(t, 64)
	runReplay(t, 1)
	st, err := NewStore(testWindow, 4, []int{0, 1, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ing := StartIngest(st, srcs)
	if err := st.project(3); !errors.Is(err, ErrKilled) {
		t.Fatalf("project(3) = %v, want ErrKilled", err)
	}
	if err := st.project(-1); err != nil {
		t.Fatalf("restarted projection: %v", err)
	}
	if err := ing.Wait(); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := Run(Config{Machines: fixtureMachines[:1], Window: testWindow}); err != nil {
		t.Fatalf("live run: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the fleet runs, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
