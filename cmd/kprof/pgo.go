package main

import (
	"fmt"
	"os"
	"strings"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/pgo"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

// runPGO executes the optimize-verify loop (-pgo): baseline profile,
// apply each proposed change, re-profile under the identical seed, verify
// against the what-if estimate. With a -seeds spec the whole loop runs
// per seed and the sweep-level verification table prints instead.
func runPGO(scenario, seedsSpec, optimizeSpec string, parallel int, seed uint64,
	params workload.Params, profile core.ProfileConfig, top int) error {
	changes, err := parseChanges(optimizeSpec)
	if err != nil {
		return err
	}
	cfg := pgo.LoopConfig{
		Scenario: scenario,
		Seed:     seed,
		Params:   params,
		Profile:  profile,
		Changes:  changes,
	}
	if seedsSpec != "" {
		seedSet, err := sweep.ParseSeeds(seedsSpec)
		if err != nil {
			return err
		}
		sw, err := pgo.RunLoopSweep(cfg, seedSet, parallel)
		if err != nil {
			return err
		}
		return sw.Write(os.Stdout)
	}
	r, err := pgo.RunLoop(cfg)
	if err != nil {
		return err
	}
	return r.Write(os.Stdout, top)
}

// parseChanges resolves the -optimize spec; empty selects the full
// registry.
func parseChanges(spec string) ([]pgo.Change, error) {
	if spec == "" {
		return nil, nil
	}
	return pgo.FindChanges(strings.Split(spec, ","))
}

// runBudget profiles the scenario once, then solves the
// instrumentation-budget problem (-budget): which functions should the
// next profile instrument to attribute the most net time within the tag
// budget. The plan prints in density order.
func runBudget(scenario string, tags int, overheadUS int64, seed uint64,
	params workload.Params, profile core.ProfileConfig) error {
	sc, ok := workload.FindScenario(scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have %v)", scenario, workload.ScenarioNames())
	}
	m := core.NewMachine(kernel.Config{Seed: seed})
	if sc.Setup != nil {
		if err := sc.Setup(m, params); err != nil {
			return err
		}
	}
	// The plan reads only the lean statistics, so drained records go back
	// to the readout pool as they are decoded.
	profile.Drain.Recycle = true
	s, err := core.NewSession(m, profile)
	if err != nil {
		return err
	}
	s.Arm()
	_, err = sc.Run(m, params)
	s.Disarm()
	if err != nil {
		return err
	}
	cands := pgo.CandidatesFromAnalysis(s.AnalyzeLean(), m.ModuleOf())
	plan := pgo.Optimize(cands, pgo.Budget{Tags: tags, OverheadNs: overheadUS * 1000})
	fmt.Printf("profiled %s (seed %d): %d candidate functions\n", scenario, seed, plan.Considered)
	return plan.Write(os.Stdout)
}
