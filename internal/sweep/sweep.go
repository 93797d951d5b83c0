// Package sweep is the parallel multi-seed sweep engine: it fans N
// independent (scenario, seed, config) profiling runs across a pool of
// worker goroutines and merges the per-seed analyses into cross-seed
// aggregate statistics.
//
// The paper's figures come from single runs on one machine. The simulator
// is deterministic, so one run is perfectly reproducible — but it is still
// one sample of the seed-dependent workload jitter. A sweep reruns the
// same study under many seeds and reports, per function, the mean, spread
// and extremes of net time, call counts and run-time share, plus a
// stability measure (coefficient of variation) saying whether a
// paper-reproduced percentage holds across seeds or was luck of one seed.
//
// Each worker boots its own Machine and Session, runs the workload, and
// analyzes locally through the streaming decode path (core.AnalyzeLean),
// so no worker ever holds the raw 16384-entry bank list and the merged
// report at the same time. Workers deposit compact per-seed samples; the
// merge folds them in seed order after the pool drains, so the aggregate
// is byte-identical no matter how many workers ran or in what order they
// finished.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// Config describes one sweep. Every worker analyzes its seed through the
// lean streaming path and keeps only the compact per-seed sample.
type Config struct {
	// Scenario names a registered workload (workload.ScenarioNames).
	Scenario string
	// Seeds are the simulation seeds to run, one machine each. Order is
	// the merge order, so it fixes the aggregate bit-for-bit.
	Seeds []uint64
	// Parallel is the worker-pool size; 0 means GOMAXPROCS. The pool is
	// clamped to len(Seeds).
	Parallel int
	// Params tunes the workload (zero values select scenario defaults).
	Params workload.Params
	// Profile configures each worker's instrumentation and card.
	Profile core.ProfileConfig
	// OnProgress, when non-nil, observes sweep scheduling: it fires once
	// when a worker picks a seed up and once when the seed finishes.
	// Calls are serialized; the callback must not block for long (every
	// worker contends on its lock). It feeds live observability
	// (export.StatusServer) for long sweeps.
	OnProgress func(Progress)
}

// Progress is one sweep scheduling event, delivered to Config.OnProgress.
// Its JSON form is the "sweep" section of export.StatusServer's
// /status.json and the payload of a "sweep" event.
type Progress struct {
	// Scenario and Seeds identify the sweep (Seeds is the total count).
	Scenario string `json:"scenario"`
	Seeds    int    `json:"seeds"`
	// Started counts seeds handed to workers so far; Done counts seeds
	// finished. Started - Done seeds are in flight.
	Started int `json:"started"`
	Done    int `json:"done"`
	// Seed is the seed this event concerns, served as last_seed;
	// Finished distinguishes its completion event from its pickup event
	// and is not served.
	Seed     uint64 `json:"last_seed"`
	Finished bool   `json:"-"`
	// Segments and Dropped accumulate finished seeds' drain-segment
	// counts and dropped-strobe losses (always zero for one-shot sweeps).
	Segments int    `json:"segments"`
	Dropped  uint64 `json:"dropped_strobes"`
}

// FnSample is one function's footprint in a single seed's run.
type FnSample struct {
	Calls   int
	NetUS   float64 // net µs in the function alone
	AvgUS   float64 // mean net µs per call
	PctReal float64 // net as % of elapsed (the summary's % real column)
	PctNet  float64 // net as % of accumulated run time (% net)
}

// SeedResult is one seed's compact outcome.
type SeedResult struct {
	Seed     uint64
	Workload string // the scenario's one-line result description

	ElapsedUS float64
	RunUS     float64
	IdleUS    float64
	IdlePct   float64
	Records   int
	Switches  int

	// Segments and Dropped describe a continuous-capture run: how many
	// drain segments the seed produced and how many strobes were lost at
	// their boundaries (0/0 for one-shot runs).
	Segments int
	Dropped  uint64

	// Faults counts corruptions the seed's fault injector applied (0 for
	// pristine-hardware sweeps); Corrupt, Repaired and Resyncs carry the
	// hardened decoder's accounting of what it found and fixed.
	Faults   uint64
	Corrupt  int
	Repaired int
	Resyncs  int

	Fns map[string]FnSample
}

// Result is a finished sweep.
type Result struct {
	Scenario string
	// PerSeed holds one entry per configured seed, in Config.Seeds order.
	PerSeed []SeedResult
	// Agg is the cross-seed aggregate.
	Agg *Aggregate
	// Workers is the pool size actually used.
	Workers int
}

// Run executes the sweep. Any seed's failure aborts the sweep and is
// reported (the first one in seed order); completed workers are drained
// first.
func Run(cfg Config) (*Result, error) {
	sc, ok := workload.FindScenario(cfg.Scenario)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown scenario %q (have %v)", cfg.Scenario, workload.ScenarioNames())
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: no seeds")
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfg.Seeds) {
		workers = len(cfg.Seeds)
	}

	results := make([]SeedResult, len(cfg.Seeds))
	errs := make([]error, len(cfg.Seeds))
	jobs := make(chan int)
	prog := newProgressTracker(cfg)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				prog.started(cfg.Seeds[idx])
				results[idx], errs[idx] = runSeed(cfg, sc, cfg.Seeds[idx])
				prog.finished(cfg.Seeds[idx], results[idx], errs[idx])
			}
		}()
	}
	for idx := range cfg.Seeds {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{
		Scenario: cfg.Scenario,
		PerSeed:  results,
		Agg:      aggregate(cfg.Scenario, results),
		Workers:  workers,
	}, nil
}

// progressTracker serializes OnProgress callbacks and accumulates the
// cross-seed counters they carry.
type progressTracker struct {
	cfg Config
	mu  sync.Mutex
	p   Progress
}

func newProgressTracker(cfg Config) *progressTracker {
	return &progressTracker{cfg: cfg, p: Progress{Scenario: cfg.Scenario, Seeds: len(cfg.Seeds)}}
}

func (t *progressTracker) started(seed uint64) {
	if t.cfg.OnProgress == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Started++
	t.p.Seed, t.p.Finished = seed, false
	t.cfg.OnProgress(t.p)
}

func (t *progressTracker) finished(seed uint64, r SeedResult, err error) {
	if t.cfg.OnProgress == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Done++
	t.p.Seed, t.p.Finished = seed, true
	if err == nil {
		t.p.Segments += r.Segments
		t.p.Dropped += r.Dropped
	}
	t.cfg.OnProgress(t.p)
}

// runSeed is one worker unit: boot, instrument, run, analyze (lean), sample.
func runSeed(cfg Config, sc workload.Scenario, seed uint64) (SeedResult, error) {
	m := core.NewMachine(kernel.Config{Seed: seed})
	if sc.Setup != nil {
		// Scenario setup registers kernel functions (SNMP agent, NFS
		// client); it must precede instrumentation or those functions
		// stay invisible to the profile.
		if err := sc.Setup(m, cfg.Params); err != nil {
			return SeedResult{}, fmt.Errorf("sweep: seed %d: setup: %w", seed, err)
		}
	}
	prof := cfg.Profile
	// A seed reads only the lean statistics, so its drained records go back
	// to the readout pool as they are decoded.
	prof.Drain.Recycle = true
	if prof.Faults != nil {
		// Per-seed fault profile: every seed gets a distinct but
		// reproducible fault stream derived from the sweep's base seed.
		fc := *prof.Faults
		fc.Seed = faults.DeriveSeed(fc.Seed, seed)
		prof.Faults = &fc
	}
	s, err := core.NewSession(m, prof)
	if err != nil {
		return SeedResult{}, fmt.Errorf("sweep: seed %d: %w", seed, err)
	}
	s.Arm()
	line, err := sc.Run(m, cfg.Params)
	s.Disarm()
	if err != nil {
		return SeedResult{}, fmt.Errorf("sweep: seed %d: %w", seed, err)
	}

	r := sample(seed, line, s.AnalyzeLean())
	if st, ok := s.FaultStats(); ok {
		r.Faults = st.Injected()
	}
	return r, nil
}

// sample condenses an Analysis into the compact per-seed record the merge
// consumes.
func sample(seed uint64, line string, a *analyze.Analysis) SeedResult {
	elapsed, run := a.Elapsed(), a.RunTime()
	r := SeedResult{
		Seed:      seed,
		Workload:  line,
		ElapsedUS: us(elapsed),
		RunUS:     us(run),
		IdleUS:    us(a.Idle),
		Records:   a.Stats.Records,
		Switches:  a.Switches,
		Segments:  len(a.Segments),
		Dropped:   a.Stats.Dropped,
		Corrupt:   a.Stats.CorruptRecords,
		Repaired:  a.Stats.RepairedTimestamps,
		Resyncs:   a.Stats.Resyncs,
		Fns:       make(map[string]FnSample, 160),
	}
	if elapsed > 0 {
		r.IdlePct = 100 * float64(a.Idle) / float64(elapsed)
	}
	for _, s := range a.Functions() {
		if s.CtxSwitch {
			continue // idle is accounted in the header, as in the summary
		}
		fs := FnSample{Calls: s.Calls, NetUS: us(s.Net), AvgUS: us(s.Avg())}
		if elapsed > 0 {
			fs.PctReal = 100 * float64(s.Net) / float64(elapsed)
		}
		if run > 0 {
			fs.PctNet = 100 * float64(s.Net) / float64(run)
		}
		r.Fns[s.Name] = fs
	}
	return r
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
