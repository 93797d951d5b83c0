package sweep

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// shortNet is a quick saturation-test sweep configuration.
func shortNet(seeds []uint64, parallel int) Config {
	return Config{
		Scenario: "netrecv",
		Seeds:    seeds,
		Parallel: parallel,
		Params:   workload.Params{Duration: 30 * sim.Millisecond},
	}
}

// The acceptance bar: the merged statistics are identical whether the
// seeds ran serially or fanned across workers.
func TestSerialAndParallelMergeIdentically(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	serial, err := Run(shortNet(seeds, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(shortNet(seeds, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parallel.Agg.String(), serial.Agg.String(); got != want {
		t.Fatalf("aggregates differ\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if !reflect.DeepEqual(parallel.PerSeed, serial.PerSeed) {
		t.Fatal("per-seed results differ between serial and parallel runs")
	}
	if serial.Workers != 1 || parallel.Workers != 4 {
		t.Fatalf("workers = %d, %d", serial.Workers, parallel.Workers)
	}
}

// Same process, two consecutive sweeps: byte-identical.
func TestConsecutiveSweepsIdentical(t *testing.T) {
	seeds := []uint64{10, 11, 12}
	first, err := Run(shortNet(seeds, 3))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(shortNet(seeds, 3))
	if err != nil {
		t.Fatal(err)
	}
	if first.Agg.String() != second.Agg.String() {
		t.Fatal("two consecutive sweeps disagree")
	}
	if !reflect.DeepEqual(first.PerSeed, second.PerSeed) {
		t.Fatal("two consecutive sweeps disagree per seed")
	}
}

// A seed profiled inside a parallel sweep yields the same per-seed result —
// every function's calls, net time and run-time share, plus the capture's
// accounting — as the same seed run serially on its own: the workers share
// nothing.
func TestSweepMatchesSerialSummaryAndTrace(t *testing.T) {
	seeds := []uint64{3, 7, 21, 42}
	cfg := shortNet(seeds, len(seeds))
	cfg.Params.Duration = 25 * sim.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := workload.FindScenario(cfg.Scenario)
	for i, seed := range seeds {
		want, err := runSeed(cfg, sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Fns) == 0 {
			t.Fatalf("seed %d: serial run profiled no functions", seed)
		}
		if !reflect.DeepEqual(res.PerSeed[i], want) {
			t.Fatalf("seed %d: sweep result differs from serial run\n--- sweep\n%+v\n--- serial\n%+v", seed, res.PerSeed[i], want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	if _, err := Run(Config{Scenario: "no-such", Seeds: []uint64{1}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Run(Config{Scenario: "netrecv"}); err == nil {
		t.Fatal("empty seed set accepted")
	}
}

// The saturation test's headline percentages must reproduce stably: bcopy
// and in_cksum appear in every seed with a tight %net spread.
func TestAggregateStability(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	res, err := Run(shortNet(seeds, 0))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Agg
	if g.Seeds != len(seeds) {
		t.Fatalf("aggregate seeds = %d", g.Seeds)
	}
	for _, name := range []string{"bcopy", "in_cksum"} {
		f, ok := g.Fn(name)
		if !ok {
			t.Fatalf("%s missing from aggregate", name)
		}
		if f.Seeds != len(seeds) {
			t.Fatalf("%s ran in %d/%d seeds", name, f.Seeds, len(seeds))
		}
		if !f.Stable(g.Seeds, 0) {
			t.Fatalf("%s unstable: %%net CV = %.3f (mean %.2f ± %.2f)",
				name, f.PctNet.CV(), f.PctNet.Mean, f.PctNet.Std())
		}
	}
	// The table renders with the stability marker and header.
	s := g.String()
	if !strings.Contains(s, "Sweep of netrecv across 5 seeds") || !strings.Contains(s, "* bcopy") {
		t.Fatalf("aggregate table:\n%s", s)
	}
	// swtch is accounted as idle in the header, not a row.
	if _, ok := g.Fn("swtch"); ok {
		t.Fatal("swtch leaked into the aggregate rows")
	}
}

// A sweep under continuous capture: every worker drains its small card
// through the EPROM socket and the lean stitched analysis merges into the
// same aggregate a one-shot sweep with a big-enough RAM produces.
func TestContinuousSweepMatchesOneShot(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	oneShot := shortNet(seeds, 0)
	ref, err := Run(oneShot)
	if err != nil {
		t.Fatal(err)
	}
	drained := shortNet(seeds, 0)
	drained.Profile = core.ProfileConfig{
		Mode:  core.CaptureContinuous,
		Depth: 512,
		Drain: core.DrainConfig{HighWater: 128, Interval: 100 * sim.Microsecond},
	}
	res, err := Run(drained)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.PerSeed {
		if r.Segments < 2 {
			t.Fatalf("seed %d drained only %d segments", r.Seed, r.Segments)
		}
		if r.Dropped != 0 {
			t.Fatalf("seed %d lost %d strobes; tighten the drain config", r.Seed, r.Dropped)
		}
		if r.Records != ref.PerSeed[i].Records {
			t.Fatalf("seed %d: drained %d records, one-shot %d", r.Seed, r.Records, ref.PerSeed[i].Records)
		}
		// The switcher row never leaks into the per-seed samples.
		if _, ok := r.Fns["swtch"]; ok {
			t.Fatalf("seed %d: switcher leaked into samples", r.Seed)
		}
	}
	if got, want := res.Agg.String(), ref.Agg.String(); got != want {
		t.Fatalf("drained aggregate differs from one-shot\n--- drained ---\n%s--- one-shot ---\n%s", got, want)
	}
}

// Count-based scenarios sweep too.
func TestForkExecSweep(t *testing.T) {
	res, err := Run(Config{
		Scenario: "forkexec",
		Seeds:    []uint64{7, 8},
		Params:   workload.Params{Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := res.Agg.Fn("pmap_pte"); !ok || f.Calls.Mean == 0 {
		t.Fatal("forkexec sweep lost pmap_pte")
	}
	for _, r := range res.PerSeed {
		if !strings.HasPrefix(r.Workload, "forkexec: 1 cycles") {
			t.Fatalf("workload line %q", r.Workload)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	good := []struct {
		spec string
		want []uint64
	}{
		{"7", []uint64{7}},
		{"1..4", []uint64{1, 2, 3, 4}},
		{"1..2,10,20..21", []uint64{1, 2, 10, 20, 21}},
		{" 5 , 6 ", []uint64{5, 6}},
		{"3..3", []uint64{3}},
	}
	for _, tc := range good {
		got, err := ParseSeeds(tc.spec)
		if err != nil {
			t.Fatalf("ParseSeeds(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseSeeds(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"", "x", "4..1", "1..", "..4", "1,,2", "0..100000000000"} {
		if _, err := ParseSeeds(spec); err == nil {
			t.Fatalf("ParseSeeds(%q) accepted", spec)
		}
	}
}

// A faulted sweep gives every seed its own derived fault stream: each seed
// reports injected faults, the streams differ across seeds, and rerunning
// the sweep reproduces every per-seed fault and corruption count exactly.
func TestSweepPerSeedFaultStreams(t *testing.T) {
	cfg := shortNet([]uint64{1, 2, 3, 4}, 2)
	cfg.Profile.Faults = &faults.Config{Seed: 7, Rate: 0.02}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]bool{}
	for _, r := range first.PerSeed {
		if r.Faults == 0 {
			t.Fatalf("seed %d injected no faults at 2%%: %+v", r.Seed, r)
		}
		counts[r.Faults] = true
	}
	// Distinct derived streams: four seeds all landing on the same fault
	// count would mean the derivation ignored the seed.
	if len(counts) == 1 {
		t.Fatalf("all seeds report identical fault counts %v — shared stream?", first.PerSeed)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first.PerSeed {
		s := again.PerSeed[i]
		if r.Faults != s.Faults || r.Corrupt != s.Corrupt || r.Repaired != s.Repaired || r.Resyncs != s.Resyncs {
			t.Fatalf("seed %d not reproducible: %+v vs %+v", r.Seed, r, s)
		}
	}
	// The caller's base config must come through untouched — workers
	// clone it per seed rather than rewriting the shared pointer.
	if cfg.Profile.Faults.Seed != 7 {
		t.Fatalf("sweep mutated the caller's fault config: %+v", cfg.Profile.Faults)
	}
}

// A single-seed sweep has no cross-seed spread to judge: nothing may be
// flagged stable (one observation always has CV 0), and the rendered
// marker column stays blank.
func TestSingleSeedNothingStable(t *testing.T) {
	res, err := Run(shortNet([]uint64{1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	g := res.Agg
	if g.Seeds != 1 {
		t.Fatalf("aggregate seeds = %d", g.Seeds)
	}
	for _, f := range g.Fns {
		if f.Stable(g.Seeds, 0) {
			t.Fatalf("%s flagged stable on a 1-seed sweep (CV %.3f)", f.Name, f.PctNet.CV())
		}
	}
	for i, line := range strings.Split(g.String(), "\n") {
		if strings.Contains(line, " * ") {
			t.Fatalf("line %d carries a stability marker on a 1-seed sweep: %q", i, line)
		}
	}
}

// failAfter errors once n bytes have been written — a stand-in for a
// full disk or a closed pipe.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	if f.n == 0 {
		return len(p), f.err
	}
	return len(p), nil
}

// Write must report the first failure instead of pretending success.
func TestAggregateWriteErrorPropagated(t *testing.T) {
	res, err := Run(shortNet([]uint64{1, 2}, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := errors.New("disk full")
	for _, budget := range []int{0, 1, 40, 200} {
		if err := res.Agg.Write(&failAfter{n: budget, err: want}, 10); !errors.Is(err, want) {
			t.Fatalf("budget %d: error %v, want %v", budget, err, want)
		}
	}
	var b strings.Builder
	if err := res.Agg.Write(&b, 10); err != nil {
		t.Fatalf("healthy writer errored: %v", err)
	}
}
