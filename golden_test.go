// Golden-capture regression tests: rendered reports for fixed
// (scenario, seed) pairs are checked into testdata/ and must reproduce
// byte for byte — the simulator, instrumentation, card model and analyzer
// are all deterministic, so any drift is a behavior change, not noise.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGolden -update
package kprof_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kprof"
	"kprof/internal/analyze"
	"kprof/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// golden compares got against testdata/name, or rewrites it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with: go test -run TestGolden -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	// Report the first differing line, not a wall of text.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
	t.Fatalf("%s: outputs differ", path)
}

// checkTrees checks the invocation trees of a golden capture against their
// conservation law — for every complete invocation (each exit item),
// Elapsed minus Net equals the summed Elapsed of its linked callees — and
// the profile the reconstruction folded while streaming against a walk of
// those trees (foldMatchesWalk).
func checkTrees(t *testing.T, a *kprof.Analysis) {
	t.Helper()
	n := 0
	for _, it := range a.Items() {
		if it.Kind != analyze.TraceExit {
			continue
		}
		var sum kprof.Time
		for c := it.Node.FirstChild(); c != nil; c = c.NextSibling() {
			sum += c.Elapsed()
		}
		if got := it.Node.Elapsed() - it.Node.Net(); got != sum {
			t.Fatalf("%s exiting at %v: elapsed - net = %v, callees' elapsed sums to %v",
				it.Node.Name, it.Time, got, sum)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no complete invocation to check")
	}
	t.Logf("conservation holds for %d complete invocations", n)
	foldMatchesWalk(t, a)
}

// foldMatchesWalk compares the analysis's folded profile with the walk the
// pprof export made over the finished trees before the reconstruction
// folded the profile itself: from every root that exited at depth 0, in
// trace order, each tree in pre-order, numbering functions as it first
// meets them. The functions, the paths with their calls, net and elapsed
// time, and the sample order must all match.
func foldMatchesWalk(t *testing.T, a *kprof.Analysis) {
	t.Helper()
	var (
		funcs   []string
		ids     = map[string]int32{}
		paths   []analyze.ProfilePath
		pathIx  = map[[2]int32]int32{}
		samples []int32
	)
	var walk func(parent int32, n *analyze.Node)
	walk = func(parent int32, n *analyze.Node) {
		id, ok := ids[n.Name]
		if !ok {
			funcs = append(funcs, n.Name)
			id = int32(len(funcs))
			ids[n.Name] = id
		}
		ix, ok := pathIx[[2]int32{parent, id}]
		if !ok {
			ix = int32(len(paths))
			paths = append(paths, analyze.ProfilePath{Parent: parent, Fn: id})
			pathIx[[2]int32{parent, id}] = ix
		}
		if n.Complete {
			p := &paths[ix]
			if p.Calls == 0 {
				samples = append(samples, ix)
			}
			p.Calls++
			p.NS += max(int64(n.Net()), 0)
			p.Elapsed += n.Elapsed()
		}
		for c := n.FirstChild(); c != nil; c = c.NextSibling() {
			walk(ix, c)
		}
	}
	for _, it := range a.Items() {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			walk(-1, it.Node)
		}
	}
	prof := a.Profile()
	if !slices.Equal(prof.Funcs(), funcs) {
		t.Fatalf("fold numbers functions %q, the walk %q", prof.Funcs(), funcs)
	}
	if !slices.Equal(prof.Paths(), paths) || !slices.Equal(prof.Samples(), samples) {
		t.Fatalf("fold has %d paths and %d samples, the walk %d and %d, or their values differ",
			len(prof.Paths()), len(prof.Samples()), len(paths), len(samples))
	}
	t.Logf("fold matches the walk: %d functions, %d samples", len(funcs), len(samples))
}

// profileScenario runs one (scenario, seed) pair and returns the analysis,
// its trees checked by checkTrees.
func profileScenario(t *testing.T, seed uint64, run func(m *kprof.Machine)) *kprof.Analysis {
	t.Helper()
	m := kprof.NewMachine(kprof.MachineConfig{Seed: seed})
	s, err := kprof.NewSession(m, kprof.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	run(m)
	s.Disarm()
	a := s.Analyze()
	checkTrees(t, a)
	return a
}

func TestGoldenNetReceiveReports(t *testing.T) {
	a := profileScenario(t, 42, func(m *kprof.Machine) {
		if _, err := kprof.NetReceive(m, 60*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	golden(t, "netrecv_seed42.summary", a.SummaryString(15))
	golden(t, "netrecv_seed42.trace", a.TraceString(kprof.TraceOptions{
		From: 20 * sim.Millisecond, MaxLines: 40,
	}))
	var cg strings.Builder
	if err := a.CallGraph().Write(&cg, 0); err != nil {
		t.Fatal(err)
	}
	golden(t, "netrecv_seed42.callgraph", cg.String())
}

func TestGoldenForkExecReports(t *testing.T) {
	a := profileScenario(t, 7, func(m *kprof.Machine) {
		kprof.ForkExec(m, 1)
	})
	golden(t, "forkexec_seed7.summary", a.SummaryString(15))
	golden(t, "forkexec_seed7.trace", a.TraceString(kprof.TraceOptions{MaxLines: 40}))
}

// The long-run scenario under continuous capture: a workload generating
// >=10x the card's RAM depth completes with every record drained into
// host-side segments and zero silent loss, and the stitched reports (segment
// table, summary, and the raw pprof profile of every drained stack)
// reproduce byte for byte.
func TestGoldenNetReceiveLongDrain(t *testing.T) {
	const depth = 1024
	m := kprof.NewMachine(kprof.MachineConfig{Seed: 42})
	s, err := kprof.NewSession(m, kprof.ProfileConfig{
		Mode:  kprof.CaptureContinuous,
		Depth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	// netrecv-long's driver at a golden-test-sized duration: still >=10x
	// the (shrunken) card RAM.
	if _, err := kprof.NetReceive(m, 400*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	total := 0
	var lost uint64
	for _, seg := range s.Segments() {
		total += seg.Capture.Len()
		lost += seg.Capture.Dropped
	}
	if total < 10*depth {
		t.Fatalf("captured %d records, want >= 10x the %d-entry RAM", total, depth)
	}
	if lost != 0 {
		t.Fatalf("%d strobes lost silently despite draining", lost)
	}
	a := s.Analyze()
	if a.Stats.Records != total || a.Stats.Dropped != 0 {
		t.Fatalf("stitched stats %+v, want %d records and no loss", a.Stats, total)
	}
	checkTrees(t, a)
	golden(t, "netrecv_long_drain_seed42.segments", a.SegmentsString())
	golden(t, "netrecv_long_drain_seed42.summary", a.SummaryString(15))
	golden(t, "netrecv_long_drain_seed42.pprof", string(kprof.MarshalPprof(a, kprof.PprofOptions{})))
	storedGzipMatches(t, a)
}

// The exporters are golden too: MarshalPprof assigns every id in
// first-encounter order and WriteChromeTrace formats deterministically,
// so both byte streams must reproduce exactly. The pprof golden holds the
// raw (uncompressed) protobuf; the file WritePprof writes around it is
// held to compress/gzip by storedGzipMatches.
func TestGoldenPprofExport(t *testing.T) {
	a := profileScenario(t, 42, func(m *kprof.Machine) {
		if _, err := kprof.NetReceive(m, 60*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	golden(t, "netrecv_seed42.pprof", string(kprof.MarshalPprof(a, kprof.PprofOptions{})))
	storedGzipMatches(t, a)
}

// storedGzipMatches requires WritePprof to write exactly the bytes
// gzip.NewWriterLevel(w, gzip.NoCompression) writes over MarshalPprof's
// payload, and MarshalPprof to fill the buffer it sized.
func storedGzipMatches(t *testing.T, a *kprof.Analysis) {
	t.Helper()
	var got, want bytes.Buffer
	if err := kprof.WritePprof(&got, a, kprof.PprofOptions{}); err != nil {
		t.Fatal(err)
	}
	payload := kprof.MarshalPprof(a, kprof.PprofOptions{})
	if cap(payload) != len(payload) {
		t.Errorf("MarshalPprof: %d bytes in a buffer of %d, not sized exactly", len(payload), cap(payload))
	}
	zw, err := gzip.NewWriterLevel(&want, gzip.NoCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePprof wrote %d bytes, compress/gzip at NoCompression %d: they differ", got.Len(), want.Len())
	}
}

func TestGoldenChromeTraceExport(t *testing.T) {
	// A short window keeps the golden trace reviewable.
	a := profileScenario(t, 42, func(m *kprof.Machine) {
		if _, err := kprof.NetReceive(m, 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	var b strings.Builder
	if err := kprof.WriteChromeTrace(&b, a); err != nil {
		t.Fatal(err)
	}
	golden(t, "netrecv_seed42.trace.json", b.String())
}

// The card's counter free-runs from power-on, so the stamp of a capture's
// first record is arbitrary and only intervals carry meaning. Shifting the
// counter's phase must leave every report byte-identical: the summary,
// segment table, pprof payload, trace text, Chrome trace and decode
// statistics at each phase equal those at phase 0, on netrecv and proday,
// one-shot and drained. Only clean captures obey this: a stamp fault is an
// XOR, and an XOR does not commute with a phase shift.
func TestPowerOnPhaseLeavesReportsUnchanged(t *testing.T) {
	proday := prodayParams
	proday.Duration = 500 * sim.Millisecond
	netrecv := func(d kprof.Time) func(m *kprof.Machine) error {
		return func(m *kprof.Machine) error {
			_, err := kprof.NetReceive(m, d)
			return err
		}
	}
	prodayRun := func(m *kprof.Machine) error {
		_, err := kprof.Proday(m, proday)
		return err
	}
	setupProday := func(m *kprof.Machine) error { return kprof.ProdaySetup(m, proday) }
	drained := kprof.ProfileConfig{Mode: kprof.CaptureContinuous, Depth: 1024}
	runs := []struct {
		name  string
		cfg   kprof.ProfileConfig
		setup func(m *kprof.Machine) error
		run   func(m *kprof.Machine) error
	}{
		{"netrecv one-shot", kprof.ProfileConfig{}, nil, netrecv(60 * sim.Millisecond)},
		{"netrecv drained", drained, nil, netrecv(400 * sim.Millisecond)},
		{"proday one-shot", kprof.ProfileConfig{}, setupProday, prodayRun},
		{"proday drained", drained, setupProday, prodayRun},
	}
	outputs := []string{"summary", "segments", "pprof", "trace", "chrome trace", "stats"}
	for _, r := range runs {
		var base [][sha256.Size]byte
		for _, phase := range []uint32{0, 1, 12345, 0x7FFFFF, 0xFFFF00, 0xFFFFFF} {
			m := kprof.NewMachine(kprof.MachineConfig{Seed: 42})
			if r.setup != nil {
				if err := r.setup(m); err != nil {
					t.Fatal(err)
				}
			}
			s, err := kprof.NewSession(m, r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Card.SetPowerOnCounter(phase)
			s.Arm()
			if err := r.run(m); err != nil {
				t.Fatal(err)
			}
			s.Disarm()
			if err := s.DrainErr(); err != nil {
				t.Fatal(err)
			}
			a := s.Analyze()
			var chrome strings.Builder
			if err := kprof.WriteChromeTrace(&chrome, a); err != nil {
				t.Fatal(err)
			}
			sums := make([][sha256.Size]byte, 0, len(outputs))
			for _, out := range []string{
				a.SummaryString(0),
				a.SegmentsString(),
				string(kprof.MarshalPprof(a, kprof.PprofOptions{})),
				a.TraceString(kprof.TraceOptions{}),
				chrome.String(),
				fmt.Sprintf("%+v", a.Stats),
			} {
				sums = append(sums, sha256.Sum256([]byte(out)))
			}
			if base == nil {
				base = sums
				continue
			}
			for i := range sums {
				if sums[i] != base[i] {
					t.Errorf("%s: power-on counter %#x changes the %s", r.name, phase, outputs[i])
				}
			}
		}
	}
}

// The sweep aggregate is golden too: per-seed merges are deterministic in
// seed order regardless of the worker pool, so the whole cross-seed table
// must reproduce byte for byte.
func TestGoldenSweepAggregate(t *testing.T) {
	seeds, err := kprof.ParseSeeds("1..4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := kprof.Sweep(kprof.SweepConfig{
		Scenario: "netrecv",
		Seeds:    seeds,
		Params:   kprof.WorkloadParams{Duration: 40 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Agg.Write(&b, 12); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.PerSeed {
		fmt.Fprintf(&b, "seed %d: %s\n", r.Seed, r.Workload)
	}
	golden(t, "sweep_netrecv_seeds1-4.txt", b.String())
}

// The optimize-verify loop's differential report is fully deterministic:
// baseline and every re-profile boot from the same seed, so the estimate,
// the verified delta, the bottleneck classifications and the mover tables
// reproduce byte for byte.
func TestGoldenPGOLoopReport(t *testing.T) {
	r, err := kprof.RunPGOLoop(kprof.PGOLoopConfig{
		Seed:   1,
		Params: kprof.WorkloadParams{Duration: 150 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Confirmed() {
		t.Fatal("loop did not confirm every registry change")
	}
	var b strings.Builder
	if err := r.Write(&b, 6); err != nil {
		t.Fatal(err)
	}
	golden(t, "pgo_loop_netrecv_seed1.txt", b.String())
}

// The instrumentation-budget plan from a profiled run is deterministic
// too: same seed, same candidates, same exact optimum.
func TestGoldenPGOBudgetPlan(t *testing.T) {
	m := kprof.NewMachine(kprof.MachineConfig{Seed: 1})
	s, err := kprof.NewSession(m, kprof.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := kprof.NetReceive(m, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	a := s.Analyze()
	checkTrees(t, a)
	cands := kprof.PGOCandidatesFromAnalysis(a, m.ModuleOf())
	plan := kprof.OptimizeInstrumentation(cands, kprof.PGOBudget{Tags: 16, OverheadNs: 5_000_000})
	var b strings.Builder
	if err := plan.Write(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "pgo_budget_netrecv_seed1.txt", b.String())
}
