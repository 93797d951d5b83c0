package pgo

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// DefaultWorkFn is the work-unit function the loop normalizes by when
// LoopConfig.WorkFn is empty: one tcp_input call per delivered segment
// on the receive path the paper studies.
const DefaultWorkFn = "tcp_input"

// Measurement is one profiled run, reduced to what the estimators and
// the verification metric need.
type Measurement struct {
	// A is the run's analysis.
	A *analyze.Analysis
	// Units counts WorkFn calls — the work completed.
	Units int64
	// PoolMallocs and PoolFrees are the mbuf free-list miss counters at
	// the end of the run (the mbuf-pooling estimator's input).
	PoolMallocs, PoolFrees uint64
}

// PerUnit is the verification metric: accumulated run (non-idle) time
// per work unit. It is rate-free — a change that also shifts throughput
// (more packets in the same wall time) does not corrupt the comparison.
func (m Measurement) PerUnit() sim.Time {
	return perUnit(int64(m.A.RunTime()), m.Units)
}

func perUnit(runNs, units int64) sim.Time {
	if units <= 0 {
		return 0
	}
	return sim.Time(runNs / units)
}

// LoopConfig describes one optimize-verify run.
type LoopConfig struct {
	// Scenario names the registered workload; empty means "netrecv".
	Scenario string
	// Seed boots every machine in the loop — baseline and each change
	// re-profile under the identical seed; 0 means 1.
	Seed uint64
	// Params tunes the workload (zero selects scenario defaults).
	Params workload.Params
	// Profile configures instrumentation and the card for every run.
	Profile core.ProfileConfig
	// WorkFn names the work-unit function; empty means DefaultWorkFn.
	WorkFn string
	// Changes lists the proposed changes to apply and verify; nil means
	// the full Registry.
	Changes []Change
}

func (cfg *LoopConfig) defaults() {
	if cfg.Scenario == "" {
		cfg.Scenario = "netrecv"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.WorkFn == "" {
		cfg.WorkFn = DefaultWorkFn
	}
	if cfg.Changes == nil {
		cfg.Changes = Registry()
	}
}

// ChangeOutcome is one change's verified result.
type ChangeOutcome struct {
	Name, Summary string
	TolerancePct  float64

	// Estimate is the what-if prediction from the baseline profile;
	// EstimateErr carries the estimator's failure when it could not run
	// (Estimate is zero then).
	Estimate    analyze.WhatIf
	EstimateErr string
	// Verified is the measured per-unit before/after.
	Verified analyze.WhatIf

	// SignAgrees reports whether the verified delta moves the same way
	// the estimate predicted; WithinTolerance whether it lands within
	// TolerancePct of the estimated delta; ErrPct is the relative error.
	SignAgrees      bool
	WithinTolerance bool
	ErrPct          float64

	// Movers is the before/after differential (analyze.Compare).
	Movers *analyze.Comparison
	// After classifies the re-profiled run's bottleneck.
	After Bottleneck
}

// Confirmed reports whether the outcome's measurement confirmed the
// estimate: the estimator ran, the deltas agree in sign, and the error
// is within the change's declared tolerance.
func (o *ChangeOutcome) Confirmed() bool {
	return o.EstimateErr == "" && o.SignAgrees && o.WithinTolerance
}

// LoopResult is one finished optimize-verify loop.
type LoopResult struct {
	Scenario string
	Seed     uint64
	WorkFn   string

	// BaselineRun, BaselineUnits and BaselinePerUnit summarize the
	// baseline profile; Baseline classifies its bottleneck.
	BaselineRun     sim.Time
	BaselineUnits   int64
	BaselinePerUnit sim.Time
	Baseline        Bottleneck

	Outcomes []ChangeOutcome
}

// Confirmed reports whether every outcome confirmed its estimate.
func (r *LoopResult) Confirmed() bool {
	for i := range r.Outcomes {
		if !r.Outcomes[i].Confirmed() {
			return false
		}
	}
	return len(r.Outcomes) > 0
}

// runProfiled boots a fresh machine under cfg's seed, applies the change
// (nil for the baseline), runs the scenario under profile, and reduces
// the run to a Measurement.
func runProfiled(cfg LoopConfig, sc workload.Scenario, apply func(*core.Machine)) (Measurement, error) {
	m := core.NewMachine(kernel.Config{Seed: cfg.Seed})
	if sc.Setup != nil {
		if err := sc.Setup(m, cfg.Params); err != nil {
			return Measurement{}, fmt.Errorf("pgo: seed %d: setup: %w", cfg.Seed, err)
		}
	}
	// The measurement reads only the lean statistics, so drained records go
	// back to the readout pool as they are decoded.
	prof := cfg.Profile
	prof.Drain.Recycle = true
	s, err := core.NewSession(m, prof)
	if err != nil {
		return Measurement{}, fmt.Errorf("pgo: seed %d: %w", cfg.Seed, err)
	}
	if apply != nil {
		apply(m)
	}
	s.Arm()
	_, err = sc.Run(m, cfg.Params)
	s.Disarm()
	if err != nil {
		return Measurement{}, fmt.Errorf("pgo: seed %d: %w", cfg.Seed, err)
	}
	a := s.AnalyzeLean()
	meas := Measurement{
		A:           a,
		PoolMallocs: m.Net.Pool().PoolMallocs,
		PoolFrees:   m.Net.Pool().PoolFrees,
	}
	if fn, ok := a.Fn(cfg.WorkFn); ok {
		meas.Units = int64(fn.Calls)
	}
	if meas.Units == 0 {
		return Measurement{}, fmt.Errorf("pgo: seed %d: work function %q did no work under %s", cfg.Seed, cfg.WorkFn, cfg.Scenario)
	}
	return meas, nil
}

// RunLoop executes the optimize-verify loop: profile the baseline, then
// for each change apply it to a fresh machine, re-profile under the
// identical seed and scenario, and verify the measured per-unit delta
// against the what-if estimate.
func RunLoop(cfg LoopConfig) (*LoopResult, error) {
	cfg.defaults()
	sc, ok := workload.FindScenario(cfg.Scenario)
	if !ok {
		return nil, fmt.Errorf("pgo: unknown scenario %q (have %v)", cfg.Scenario, workload.ScenarioNames())
	}
	base, err := runProfiled(cfg, sc, nil)
	if err != nil {
		return nil, err
	}
	res := &LoopResult{
		Scenario:        cfg.Scenario,
		Seed:            cfg.Seed,
		WorkFn:          cfg.WorkFn,
		BaselineRun:     base.A.RunTime(),
		BaselineUnits:   base.Units,
		BaselinePerUnit: base.PerUnit(),
		Baseline:        Classify(base.A),
	}
	for _, ch := range cfg.Changes {
		out := ChangeOutcome{Name: ch.Name, Summary: ch.Summary, TolerancePct: ch.TolerancePct}
		est, eerr := ch.Estimate(base)
		if eerr != nil {
			out.EstimateErr = eerr.Error()
		} else {
			out.Estimate = est
		}
		after, err := runProfiled(cfg, sc, ch.Apply)
		if err != nil {
			return nil, fmt.Errorf("pgo: change %s: %w", ch.Name, err)
		}
		out.Verified = analyze.WhatIf{
			Name:     ch.Name,
			Baseline: base.PerUnit(),
			Estimate: after.PerUnit(),
		}
		if eerr == nil {
			ed, vd := int64(out.Estimate.Delta()), int64(out.Verified.Delta())
			out.SignAgrees = sign(ed) == sign(vd)
			if ed == 0 {
				out.WithinTolerance = vd == 0
			} else {
				out.ErrPct = 100 * float64(abs(vd-ed)) / float64(abs(ed))
				out.WithinTolerance = out.ErrPct <= ch.TolerancePct
			}
		}
		out.Movers = analyze.Compare(base.A, after.A)
		out.After = Classify(after.A)
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

func sign(v int64) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Write renders the loop's differential report: baseline summary and
// bottleneck, then per change the estimate, the verified measurement,
// the agreement verdict, the re-profiled bottleneck, and the biggest
// movers (top rows of the before/after comparison).
func (r *LoopResult) Write(w io.Writer, top int) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "pgo optimize-verify: scenario %s, seed %d, work unit = %s call\n",
		r.Scenario, r.Seed, r.WorkFn)
	fmt.Fprintf(ew, "baseline: run %d us over %d units -> %d us/unit\n",
		us(r.BaselineRun), r.BaselineUnits, us(r.BaselinePerUnit))
	fmt.Fprintf(ew, "baseline bottleneck: %s\n", r.Baseline.String())
	for _, s := range r.Baseline.Suggestions {
		fmt.Fprintf(ew, "  suggestion: %s\n", s)
	}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		fmt.Fprintf(ew, "\n== %s: %s ==\n", o.Name, o.Summary)
		if o.EstimateErr != "" {
			fmt.Fprintf(ew, "estimate: unavailable (%s)\n", o.EstimateErr)
		} else {
			fmt.Fprintf(ew, "estimate: %d us/unit -> %d us/unit (%+d us, %s)\n",
				us(o.Estimate.Baseline), us(o.Estimate.Estimate), us(o.Estimate.Delta()), verdict(o.Estimate))
		}
		fmt.Fprintf(ew, "verified: %d us/unit -> %d us/unit (%+d us, %s)\n",
			us(o.Verified.Baseline), us(o.Verified.Estimate), us(o.Verified.Delta()), verdict(o.Verified))
		if o.EstimateErr == "" {
			agree := "sign MISMATCH"
			if o.SignAgrees {
				agree = "sign ok"
			}
			hold := "OUTSIDE tolerance"
			if o.WithinTolerance {
				hold = "within tolerance"
			}
			mark := "UNCONFIRMED"
			if o.Confirmed() {
				mark = "VERIFIED"
			}
			fmt.Fprintf(ew, "agreement: %s, error %.1f%% of estimated delta (tolerance %.0f%%) -> %s\n",
				agree, o.ErrPct, o.TolerancePct, hold+", "+mark)
		}
		fmt.Fprintf(ew, "bottleneck after: %s\n", o.After.String())
		fmt.Fprintf(ew, "biggest movers:\n")
		if err := o.Movers.Write(ew, top); err != nil {
			return err
		}
	}
	return ew.err
}

// verdict names a WhatIf's direction the way the report prints it.
func verdict(w analyze.WhatIf) string {
	switch {
	case w.Improves():
		return "win"
	case w.Delta() == 0:
		return "flat"
	}
	return "LOSS"
}

// String renders the report with the top 8 movers per change.
func (r *LoopResult) String() string {
	var b strings.Builder
	_ = r.Write(&b, 8)
	return b.String()
}

// SweepOutcome folds one change's verification across a sweep's seeds.
type SweepOutcome struct {
	Name string
	// SignAgree and Within count the seeds whose verified delta agreed
	// in sign / landed within tolerance; Seeds is the total.
	Seeds, SignAgree, Within int
	// EstDeltaUS and VerDeltaUS accumulate the per-unit deltas (µs)
	// across seeds.
	EstDeltaUS, VerDeltaUS analyze.Acc
}

// LoopSweep is the sweep-level optimize-verify run: the full loop under
// every seed, folded in seed order.
type LoopSweep struct {
	Scenario string
	WorkFn   string
	Seeds    []uint64
	// PerSeed holds each seed's loop result, in Seeds order.
	PerSeed []*LoopResult
	// Outcomes is per change, registry order.
	Outcomes []SweepOutcome
}

// RunLoopSweep verifies every change across seeds: each seed runs the
// full optimize-verify loop on its own machine (parallel workers, 0 =
// GOMAXPROCS, never more than one per seed), and the verdicts fold in
// seed order so the result is identical whatever the worker count.
func RunLoopSweep(cfg LoopConfig, seeds []uint64, parallel int) (*LoopSweep, error) {
	cfg.defaults()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("pgo: no seeds")
	}
	results := make([]*LoopResult, len(seeds))
	errs := make([]error, len(seeds))
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				c := cfg
				c.Seed = seeds[idx]
				results[idx], errs[idx] = RunLoop(c)
			}
		}()
	}
	for idx := range seeds {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sw := &LoopSweep{Scenario: cfg.Scenario, WorkFn: cfg.WorkFn, Seeds: seeds, PerSeed: results}
	for ci, ch := range cfg.Changes {
		so := SweepOutcome{Name: ch.Name, Seeds: len(seeds)}
		for _, r := range results {
			o := &r.Outcomes[ci]
			if o.SignAgrees {
				so.SignAgree++
			}
			if o.WithinTolerance {
				so.Within++
			}
			so.EstDeltaUS.Add(float64(us(o.Estimate.Delta())))
			so.VerDeltaUS.Add(float64(us(o.Verified.Delta())))
		}
		sw.Outcomes = append(sw.Outcomes, so)
	}
	return sw, nil
}

// Write renders the sweep-level verification table.
func (s *LoopSweep) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "pgo optimize-verify sweep: scenario %s, %d seeds, work unit = %s call\n",
		s.Scenario, len(s.Seeds), s.WorkFn)
	fmt.Fprintf(ew, "%-18s %10s %10s %12s %12s\n",
		"change", "sign-agree", "within-tol", "est d us", "meas d us")
	for i := range s.Outcomes {
		o := &s.Outcomes[i]
		fmt.Fprintf(ew, "%-18s %7d/%-2d %7d/%-2d %12.1f %12.1f\n",
			o.Name, o.SignAgree, o.Seeds, o.Within, o.Seeds,
			o.EstDeltaUS.Mean, o.VerDeltaUS.Mean)
	}
	return ew.err
}

// String renders the sweep table.
func (s *LoopSweep) String() string {
	var b strings.Builder
	_ = s.Write(&b)
	return b.String()
}
