package pgo

import (
	"strings"
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// profileNetrecv captures a baseline netrecv measurement the way the loop
// does, for tests that feed the estimators and the optimizer directly.
func profileNetrecv(t *testing.T, seed uint64) Measurement {
	t.Helper()
	cfg := LoopConfig{Seed: seed, Params: workload.Params{Duration: 120 * sim.Millisecond}}
	cfg.defaults()
	sc, ok := workload.FindScenario(cfg.Scenario)
	if !ok {
		t.Fatal("netrecv scenario missing")
	}
	m, err := runProfiled(cfg, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// profileIdle captures a run with no workload at all: the machine just
// ticks its clock, so the profile has no netstack functions and the
// classifier must call it latency-bound.
func profileIdle(t *testing.T) Measurement {
	t.Helper()
	m := core.NewMachine(kernel.Config{Seed: 3})
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	workload.RunFor(m, 50*sim.Millisecond)
	s.Disarm()
	return Measurement{A: s.AnalyzeLean(), Units: 1}
}

func TestRunLoopVerifiesRegistry(t *testing.T) {
	r, err := RunLoop(LoopConfig{
		Seed:   1,
		Params: workload.Params{Duration: 150 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "netrecv" || r.WorkFn != DefaultWorkFn || r.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	if r.BaselineUnits == 0 || r.BaselinePerUnit == 0 {
		t.Fatalf("empty baseline: %+v", r)
	}
	if len(r.Outcomes) != len(Registry()) {
		t.Fatalf("%d outcomes for %d registry changes", len(r.Outcomes), len(Registry()))
	}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if o.EstimateErr != "" {
			t.Errorf("%s: estimator failed: %s", o.Name, o.EstimateErr)
			continue
		}
		if !o.SignAgrees {
			t.Errorf("%s: estimate delta %d us, verified delta %d us — sign mismatch",
				o.Name, o.Estimate.Delta().Micros(), o.Verified.Delta().Micros())
		}
		if !o.WithinTolerance {
			t.Errorf("%s: error %.1f%% outside tolerance %.0f%%", o.Name, o.ErrPct, o.TolerancePct)
		}
		if o.Movers == nil || len(o.Movers.Deltas) == 0 {
			t.Errorf("%s: no differential", o.Name)
		}
		if o.After.Type == "" {
			t.Errorf("%s: no bottleneck classification", o.Name)
		}
	}
	if !r.Confirmed() {
		t.Fatal("loop did not confirm every registry change")
	}
	// The headline change must be a verified win within its own tight
	// tolerance; the rejected design must be a verified loss.
	byName := map[string]*ChangeOutcome{}
	for i := range r.Outcomes {
		byName[r.Outcomes[i].Name] = &r.Outcomes[i]
	}
	ck := byName["recode-in-cksum"]
	if ck == nil || !ck.Confirmed() || !ck.Verified.Improves() || ck.ErrPct > 20 {
		t.Fatalf("recode-in-cksum outcome: %+v", ck)
	}
	lm := byName["link-mbufs"]
	if lm == nil || lm.Verified.Delta() <= 0 {
		t.Fatalf("link-mbufs must verify as a loss: %+v", lm)
	}
	out := r.String()
	for _, want := range []string{
		"pgo optimize-verify: scenario netrecv, seed 1",
		"baseline bottleneck:",
		"VERIFIED",
		"sign ok",
		"LOSS", // link-mbufs
		"biggest movers:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunLoopDeterministic(t *testing.T) {
	cfg := LoopConfig{Seed: 2, Params: workload.Params{Duration: 100 * sim.Millisecond}}
	a, err := RunLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("identical configs produced different reports")
	}
}

func TestRunLoopErrors(t *testing.T) {
	if _, err := RunLoop(LoopConfig{Scenario: "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	_, err := RunLoop(LoopConfig{
		WorkFn: "no_such_fn",
		Params: workload.Params{Duration: 20 * sim.Millisecond},
	})
	if err == nil || !strings.Contains(err.Error(), "did no work") {
		t.Fatalf("missing work function not reported: %v", err)
	}
}

func TestRunLoopSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := LoopConfig{Params: workload.Params{Duration: 80 * sim.Millisecond}}
	seeds := []uint64{1, 2, 3}
	serial, err := RunLoopSweep(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{3, 0} {
		par, err := RunLoopSweep(cfg, seeds, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if serial.String() != par.String() {
			t.Fatalf("parallel %d changed the sweep:\nserial:\n%s\nparallel:\n%s", parallel, serial.String(), par.String())
		}
	}
	if len(serial.PerSeed) != 3 || len(serial.Outcomes) != len(Registry()) {
		t.Fatalf("sweep shape: %+v", serial)
	}
	for _, o := range serial.Outcomes {
		if o.Name == "recode-in-cksum" && (o.SignAgree != 3 || o.Within != 3) {
			t.Fatalf("recode-in-cksum across seeds: %+v", o)
		}
	}
	if !strings.Contains(serial.String(), "3 seeds") {
		t.Fatalf("sweep render:\n%s", serial.String())
	}
	if _, err := RunLoopSweep(cfg, nil, 1); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestClassifyLatencyOnDiskBoundRun(t *testing.T) {
	// ffswrite spends most of its elapsed time waiting on the disk: the
	// classifier must call that latency, not compute or memory.
	sc, ok := workload.FindScenario("ffswrite")
	if !ok {
		t.Fatal("ffswrite scenario missing")
	}
	p := workload.Params{Duration: 50 * sim.Millisecond}
	m := core.NewMachine(kernel.Config{Seed: 3})
	if sc.Setup != nil {
		if err := sc.Setup(m, p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := sc.Run(m, p); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	b := Classify(s.AnalyzeLean())
	if b.Type != "latency" {
		t.Fatalf("idle machine classified %s: %+v", b.Type, b)
	}
	if b.IdleShare < latencyIdleShare || b.Confidence != b.IdleShare {
		t.Fatalf("latency confidence: %+v", b)
	}
	if len(b.Suggestions) == 0 || !strings.Contains(b.Suggestions[0], "waiting") {
		t.Fatalf("latency suggestions: %+v", b.Suggestions)
	}
	if !strings.Contains(b.String(), "latency (confidence") {
		t.Fatalf("render: %s", b.String())
	}
}

func TestEstimatorsFailWithoutTheirFunctions(t *testing.T) {
	// An idle profile has no in_cksum, bcopy, or mbuf churn: every
	// registry estimator must refuse rather than predict from nothing.
	idle := profileIdle(t)
	for _, ch := range Registry() {
		if _, err := ch.Estimate(idle); err == nil {
			t.Errorf("%s: estimator ran on an idle profile", ch.Name)
		}
	}
}

func TestFindChanges(t *testing.T) {
	got, err := FindChanges([]string{"link-mbufs", "recode-in-cksum"})
	if err != nil {
		t.Fatal(err)
	}
	// Registry order is preserved regardless of request order.
	if len(got) != 2 || got[0].Name != "recode-in-cksum" || got[1].Name != "link-mbufs" {
		t.Fatalf("FindChanges = %v", []string{got[0].Name, got[1].Name})
	}
	if _, err := FindChanges([]string{"warp-drive"}); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("unknown change: %v", err)
	}
}
