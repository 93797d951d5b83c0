// Command kprof drives the full profiling workflow on the simulated
// machine: pick a scenario, instrument the kernel (optionally just selected
// modules), arm the Profiler, run, and print the analysis — the same
// workflow the paper describes against real hardware.
//
// Examples:
//
//	kprof -scenario netrecv -duration 400ms -report summary -top 12
//	kprof -scenario forkexec -count 3 -report trace -maxlines 120
//	kprof -scenario netrecv -modules if_we,ip_input,tcp_input -report summary
//	kprof -scenario mixed -save run.kprof -tagsout run.tags
//	kprof -load run.kprof -tags run.tags -report groups
//
// Multi-seed sweeps fan the same scenario across many seeds on a worker
// pool and print the cross-seed aggregate (mean ± stddev per function):
//
//	kprof -scenario netrecv -seeds 1..32 -parallel 8 -report sweep
//	kprof -scenario forkexec -seeds 1..16 -count 2 -report sweep -top 15
//
// Exporters hand the reconstruction to modern viewers, and -http serves
// live capture status while the run executes:
//
//	kprof -scenario netrecv -pprof out.pb.gz -trace out.json -http :6060
//	go tool pprof -top out.pb.gz
//
// The benchmark harness measures the analysis hot paths (streaming decode,
// drain-and-stitch capture, multi-seed sweep) and gates regressions against
// a committed BENCH_*.json artifact:
//
//	kprof -bench BENCH_5.json
//	kprof -bench /tmp/now.json -benchquick
//	kprof -benchcmp BENCH_5.json,/tmp/now.json
//
// Fleet mode runs N heterogeneous machines under continuous capture and
// streams every drained segment through one ingest pipeline into a
// windowed cross-fleet aggregate:
//
//	kprof -fleet 6 -fleetmix netrecv=2,proday=1 -duration 200ms -window 50ms
//	kprof -fleet 4 -fleetjson fleet.json -http :6060
//
// The profile-guided loop closes the paper's "before and after" cycle:
// -budget solves which functions the next profile should instrument, and
// -pgo applies each proposed kernel change, re-profiles under the
// identical seed, and verifies the measured delta against the what-if
// estimate:
//
//	kprof -scenario netrecv -budget 16 -budgetoverhead 5000
//	kprof -scenario netrecv -pgo -duration 150ms -seed 1
//	kprof -pgo -optimize recode-in-cksum,link-mbufs -seeds 1..8 -parallel 4
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/bench"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/faults"
	"kprof/internal/fleet"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/loadgen"
	"kprof/internal/netstack"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

func main() {
	var (
		scenario   = flag.String("scenario", "netrecv", "workload: netrecv, netrecv-long, forkexec, ffswrite, ffsread, nfsftp, mixed, proday, embedded, embedded-old")
		duration   = flag.Duration("duration", 400*time.Millisecond, "virtual duration for time-based scenarios")
		count      = flag.Int("count", 3, "iterations for count-based scenarios (forkexec)")
		arrivals   = flag.String("arrivals", "poisson", "arrival process for loadgen-driven scenarios (proday): poisson, burst, const")
		rate       = flag.Float64("rate", 0, "total arrival rate in events per simulated second for loadgen-driven scenarios (0 = scenario default)")
		conns      = flag.Int("conns", 0, "concurrent connection count for proday (0 = 2000)")
		mix        = flag.String("mix", "", "proday class weights, e.g. net=70,disk=12,vm=8,nfs=5,snmp=5 (empty = defaults)")
		report     = flag.String("report", "summary", "report: summary, trace, groups, hist, timeline, callgraph, json")
		top        = flag.Int("top", 20, "rows in the summary report (0 = all)")
		maxlines   = flag.Int("maxlines", 80, "lines in the trace report (0 = all)")
		fn         = flag.String("fn", "bcopy", "function for -report hist")
		modules    = flag.String("modules", "", "comma-separated modules to instrument (selective profiling); empty = whole kernel")
		seed       = flag.Uint64("seed", 42, "simulation seed")
		seeds      = flag.String("seeds", "", "seed set for a multi-seed sweep, e.g. 1..32 or 1,2,7 (enables -report sweep)")
		parallel   = flag.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
		depth      = flag.Int("depth", 0, "profiler RAM depth (0 = 16384)")
		drain      = flag.Bool("drain", false, "continuous capture: drain the card through the EPROM socket before it overflows")
		highWater  = flag.Int("highwater", 0, "drain when this many records are stored (0 = 3/4 of depth; needs -drain)")
		drainEvery = flag.Duration("draininterval", 0, "virtual fill-level poll period (0 = 1ms; needs -drain)")
		segments   = flag.Bool("segments", false, "print the drain-segment summary before the report")
		save       = flag.String("save", "", "write the raw capture to this file")
		tagsOut    = flag.String("tagsout", "", "write the name/tag file to this file")
		load       = flag.String("load", "", "analyze a saved capture instead of running a scenario")
		tagsIn     = flag.String("tags", "", "name/tag file for -load")
		pprofOut   = flag.String("pprof", "", "write the analysis as a pprof profile in an uncompressed gzip container (view with `go tool pprof`)")
		traceOut   = flag.String("trace", "", "write the analysis as a Chrome trace_event JSON file (view in Perfetto or chrome://tracing)")
		httpAddr   = flag.String("http", "", "serve live capture status on this address, e.g. :6060 (JSON + HTML + SSE /events + /timeseries.json + live /pprof and /trace.json); keeps serving after the run")
		ringCap    = flag.Int("ringcap", 0, "points retained per time-series ring on the -http endpoint (0 = 256 windows / 512 load samples)")
		faultsOn   = flag.Bool("faults", false, "inject deterministic hardware faults into the capture (robustness testing)")
		faultRate  = flag.Float64("faultrate", 0.01, "per-strobe fault probability in [0,1] (needs -faults)")
		faultSeed  = flag.Uint64("faultseed", 1, "fault-injector seed; sweeps derive a per-seed stream from it (needs -faults)")
		benchOut   = flag.String("bench", "", "run the benchmark suite and write the BENCH json artifact to this file (- for stdout)")
		benchQuick = flag.Bool("benchquick", false, "trim the benchmark suite to the fast check-in configuration (needs -bench)")
		benchCmp   = flag.String("benchcmp", "", "compare two BENCH json artifacts, 'old.json,new.json'; exits 1 on regression")
		benchTol   = flag.Float64("benchtol", 0, "regression tolerance percentage for -benchcmp (0 = 15)")
		fleetN     = flag.Int("fleet", 0, "fleet mode: run this many machines under continuous capture through one ingest pipeline")
		fleetMix   = flag.String("fleetmix", "netrecv", "scenario mix for -fleet, e.g. netrecv=2,proday=1 (weights cycle across machines)")
		window     = flag.Duration("window", 100*time.Millisecond, "fleet aggregation window in virtual time (needs -fleet)")
		fleetJSON  = flag.String("fleetjson", "", "write the fleet report as JSON (schema kprof-fleet/1) to this file (- for stdout; needs -fleet)")
		pgoRun     = flag.Bool("pgo", false, "profile-guided optimize-verify loop: profile the scenario, apply each proposed kernel change, re-profile under the identical seed, and verify the measured delta against the what-if estimate (with -seeds, prints the sweep-level verification table)")
		optimize   = flag.String("optimize", "", "comma-separated proposed changes for -pgo, e.g. recode-in-cksum,cheaper-bcopy (empty = the full registry)")
		budgetTags = flag.Int("budget", 0, "instrumentation tag budget: profile the scenario once, then print the optimal set of functions to instrument within this many tags")
		budgetOvh  = flag.Int64("budgetoverhead", 0, "trigger-overhead budget in microseconds for -budget (0 = unconstrained)")
	)
	flag.Parse()

	if *benchCmp != "" {
		if err := runBenchCmp(*benchCmp, *benchTol); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if *benchOut != "" {
		if err := runBench(*benchOut, *benchQuick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	var status *export.StatusServer
	serveStatus := func(scenario string) {
		if *httpAddr == "" {
			return
		}
		status = export.NewStatusServer()
		if *ringCap > 0 {
			status.SetRingCap(*ringCap, 2**ringCap)
		}
		status.SetScenario(scenario)
		status.SetState("running")
		url, _, err := status.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "kprof: live status at %s (/, /status.json, /events, /timeseries.json, /pprof, /trace.json)\n", url)
	}
	// finish flushes the exporters, publishes the analysis to the live
	// /pprof and /trace.json endpoints, parks the status server in its
	// "done" state, and exits the process.
	finish := func(a *analyze.Analysis) {
		if a != nil {
			if err := writeExports(a, *pprofOut, *traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "kprof:", err)
				os.Exit(1)
			}
		}
		if status != nil {
			if a != nil {
				status.PublishAnalysis(a)
			}
			status.SetState("done")
			fmt.Fprintf(os.Stderr, "kprof: run finished; status endpoint still serving (Ctrl-C to exit)\n")
			select {}
		}
		os.Exit(0)
	}

	// Reports reach stdout through one buffered writer. flushReport
	// flushes it and exits 1 on the report's error or the flush's.
	out := bufio.NewWriter(os.Stdout)
	flushReport := func(err error) {
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
	}

	if *load != "" {
		serveStatus("(saved capture)")
		a, err := analyzeSaved(out, *load, *tagsIn, *report, *top, *maxlines, *fn)
		flushReport(err)
		finish(a)
	}

	var mods []string
	if *modules != "" {
		mods = strings.Split(*modules, ",")
	}
	arrivalKind, err := loadgen.ParseKind(*arrivals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
	prodayMix, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
	params := workload.Params{
		Duration: sim.Time(duration.Nanoseconds()),
		Count:    *count,
		Arrivals: arrivalKind,
		Rate:     *rate,
		Conns:    *conns,
		Mix:      prodayMix,
	}
	mode := core.CaptureOneShot
	if *drain {
		mode = core.CaptureContinuous
	}
	drainCfg := core.DrainConfig{HighWater: *highWater, Interval: sim.Time(drainEvery.Nanoseconds())}
	var faultCfg *faults.Config
	if *faultsOn {
		if *faultRate < 0 || *faultRate > 1 {
			fmt.Fprintf(os.Stderr, "kprof: -faultrate %v outside [0,1]\n", *faultRate)
			os.Exit(1)
		}
		faultCfg = &faults.Config{Seed: *faultSeed, Rate: *faultRate}
	}
	profileCfg := core.ProfileConfig{Mode: mode, Drain: drainCfg, Modules: mods, Depth: *depth, Faults: faultCfg}
	if *budgetTags != 0 || *budgetOvh != 0 {
		if err := runBudget(*scenario, *budgetTags, *budgetOvh, *seed, params, profileCfg); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if *pgoRun {
		if err := runPGO(*scenario, *seeds, *optimize, *parallel, *seed, params, profileCfg, *top); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if *fleetN > 0 {
		serveStatus(fmt.Sprintf("fleet of %d (%s)", *fleetN, *fleetMix))
		var onProgress func(fleet.Progress)
		var onWindow func(fleet.WindowSummary)
		if status != nil {
			onProgress = status.OnFleetProgress
			onWindow = status.OnFleetWindow
		}
		if err := runFleet(*fleetN, *fleetMix, *seed, params,
			sim.Time(window.Nanoseconds()), *top, *fleetJSON, onProgress, onWindow); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		finish(nil)
	}
	if *seeds != "" || *report == "sweep" {
		// The per-run exporters need one analysis; a sweep has many.
		if *pprofOut != "" || *traceOut != "" {
			fmt.Fprintln(os.Stderr, "kprof: -pprof/-trace export a single run; drop -seeds or pick one -seed")
			os.Exit(1)
		}
		serveStatus(*scenario)
		var onProgress func(sweep.Progress)
		if status != nil {
			onProgress = status.OnSweepProgress
		}
		if err := runSweep(*scenario, *seeds, *parallel, *seed,
			params, mods, *depth, *top, mode, drainCfg, faultCfg, onProgress); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
		finish(nil)
	}
	if *scenario == "embedded" || *scenario == "embedded-old" {
		serveStatus(*scenario)
		a, err := runEmbedded(out, *scenario == "embedded-old", sim.Time(duration.Nanoseconds()),
			*seed, mods, *report, *top, *maxlines, *fn, status)
		flushReport(err)
		finish(a)
	}
	serveStatus(*scenario)
	m := core.NewMachine(kernel.Config{Seed: *seed})
	if sc, ok := workload.FindScenario(*scenario); ok && sc.Setup != nil {
		// Scenario setup registers kernel functions; it must precede
		// instrumentation to be visible to the profile.
		if err := sc.Setup(m, params); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
	}
	s, err := core.NewSession(m, profileCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
	if status != nil {
		s.SetProgress(status.OnSessionProgress)
	}

	s.Arm()
	if err := runScenario(m, *scenario, params); err != nil {
		fmt.Fprintln(os.Stderr, "kprof:", err)
		os.Exit(1)
	}
	s.Disarm()

	if err := s.DrainErr(); err != nil {
		// A failed drain strands its bank — accounted as dropped strobes on
		// an empty segment, visible in -segments and the summary header —
		// but capture continued, so the profile is still valid.
		fmt.Fprintf(os.Stderr, "kprof: %d drain(s) failed readout; stranded banks are accounted as dropped strobes (first error: %v)\n",
			s.DrainErrs(), err)
	}
	if mode == core.CaptureOneShot && s.Card.Overflowed() {
		fmt.Fprintf(os.Stderr, "kprof: note: profiler RAM overflowed after %d events; the capture is the head of the run (rerun with -drain to keep everything)\n", s.Card.Stored())
	}

	if *save != "" {
		// A drained run's records live host-side; flatten the segments
		// into one capture file (drain boundaries are not preserved).
		c := s.Capture()
		if segs := s.Segments(); len(segs) > 0 {
			c = segs[0].Capture
			c.Records = append([]hw.Record(nil), c.Records...)
			for _, seg := range segs[1:] {
				c.Records = append(c.Records, seg.Capture.Records...)
				c.Dropped += seg.Capture.Dropped
				c.Overflowed = c.Overflowed || seg.Capture.Overflowed
			}
		}
		if err := writeFile(*save, func(w io.Writer) error {
			_, err := c.WriteTo(w)
			return err
		}); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
	}
	if *tagsOut != "" {
		if err := writeFile(*tagsOut, s.Tags.Format); err != nil {
			fmt.Fprintln(os.Stderr, "kprof:", err)
			os.Exit(1)
		}
	}

	a := s.Analyze()
	if st, ok := s.FaultStats(); ok {
		fmt.Fprintf(os.Stderr, "kprof: faults injected: %s\n", st)
		fmt.Fprintf(os.Stderr, "kprof: decode found %d corrupt records, repaired %d timestamps, %d resyncs\n",
			a.Stats.CorruptRecords, a.Stats.RepairedTimestamps, a.Stats.Resyncs)
	}
	if *segments {
		a.WriteSegments(out)
		if n := s.DrainErrs(); n > 0 {
			fmt.Fprintf(out, "%d drain(s) failed readout verification (first: %v; %d suppressed); their banks appear above as zero-record lossy segments\n",
				n, s.DrainErr(), n-1)
		}
		fmt.Fprintln(out)
	}
	flushReport(printReport(out, a, m, *report, *top, *maxlines, *fn))
	finish(a)
}

// runFleet builds the fleet from the mix spec, runs it through the ingest
// pipeline, and prints the windowed report (plus the JSON document when
// requested).
func runFleet(n int, mixSpec string, seed uint64, params workload.Params, window sim.Time, top int, jsonPath string, onProgress func(fleet.Progress), onWindow func(fleet.WindowSummary)) error {
	machines, err := fleet.MachinesFromMix(n, mixSpec, seed, params)
	if err != nil {
		return err
	}
	res, err := fleet.Run(fleet.Config{
		Machines:   machines,
		Window:     window,
		OnProgress: onProgress,
		OnWindow:   onWindow,
	})
	if err != nil {
		return err
	}
	if err := res.Write(os.Stdout, top); err != nil {
		return err
	}
	switch jsonPath {
	case "":
		return nil
	case "-":
		return res.WriteJSON(os.Stdout)
	}
	return writeFile(jsonPath, res.WriteJSON)
}

// runBench executes the benchmark suite and writes the BENCH json artifact
// to path ("-" = stdout), echoing a human-readable table to stderr.
func runBench(path string, quick bool, seed uint64) error {
	rep, err := bench.Run(bench.Config{Quick: quick, Seed: seed})
	if err != nil {
		return err
	}
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(os.Stderr, "kprof: %-16s %9d records  %8.1f ns/record  %7.3f allocs/record  %6.1f B/record\n",
			b.Name, b.Records, b.NsPerRecord, b.AllocsPerRecord, b.BytesPerRecord)
	}
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	return writeFile(path, rep.WriteJSON)
}

// runBenchCmp gates the artifact after the comma against the one before it,
// reporting every benchmark that regressed past the tolerance.
func runBenchCmp(spec string, tolerancePct float64) error {
	oldPath, newPath, ok := strings.Cut(spec, ",")
	if !ok || oldPath == "" || newPath == "" {
		return fmt.Errorf("-benchcmp wants 'old.json,new.json', got %q", spec)
	}
	oldRep, err := bench.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := bench.ReadFile(newPath)
	if err != nil {
		return err
	}
	regs := bench.Compare(oldRep, newRep, tolerancePct)
	if len(regs) > 0 {
		for _, g := range regs {
			fmt.Fprintln(os.Stderr, "kprof: regression:", g)
		}
		return fmt.Errorf("%d benchmark regression(s) between %s and %s", len(regs), oldPath, newPath)
	}
	fmt.Printf("benchcmp: %s vs %s: no regressions in %d benchmarks\n",
		oldPath, newPath, len(newRep.Benchmarks))
	return nil
}

// parseMix parses the -mix spec ("net=70,disk=12,vm=8,nfs=5,snmp=5"); an
// empty spec keeps the scenario defaults, and omitted classes get weight 0.
func parseMix(spec string) (workload.ProdayMix, error) {
	var m workload.ProdayMix
	if spec == "" {
		return m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("-mix entry %q wants class=weight", part)
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("-mix entry %q: bad weight %q", part, val)
		}
		switch name {
		case "net":
			m.Net = w
		case "disk":
			m.Disk = w
		case "vm":
			m.VM = w
		case "nfs":
			m.NFS = w
		case "snmp":
			m.SNMP = w
		default:
			return m, fmt.Errorf("-mix entry %q: unknown class (want net, disk, vm, nfs, snmp)", part)
		}
	}
	return m, nil
}

// writeExports runs the file exporters requested on the command line.
func writeExports(a *analyze.Analysis, pprofPath, tracePath string) error {
	if pprofPath != "" {
		if err := writeFile(pprofPath, func(w io.Writer) error {
			return export.WritePprof(w, a, export.PprofOptions{})
		}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		return writeFile(tracePath, func(w io.Writer) error {
			return export.WriteChromeTrace(w, a)
		})
	}
	return nil
}

// writeFile creates path, hands it to write, and closes it, returning the
// first error of the three. A failed close is an error like a failed
// write: it is where a buffered write-back reports a full disk, and
// ignoring it would exit 0 over a truncated file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runScenario(m *core.Machine, scenario string, params workload.Params) error {
	if sc, ok := workload.FindScenario(scenario); ok {
		line, err := sc.Run(m, params)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n\n", line)
		return nil
	}
	switch scenario {
	case "nfsftp":
		nres, err := workload.NFSTransfer(m, 128*1024)
		if err != nil {
			return err
		}
		fmt.Printf("nfs: %d bytes, elapsed %v, CPU proxy %v\n", nres.Bytes, nres.Elapsed, nres.CPUProxy)
		m2 := core.NewMachine(kernel.Config{Seed: 1})
		fres, err := workload.FTPTransfer(m2, 128*1024)
		if err != nil {
			return err
		}
		fmt.Printf("ftp: %d bytes, elapsed %v, CPU proxy %v\n\n", fres.Bytes, fres.Elapsed, fres.CPUProxy)
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	return nil
}

// printReport writes the selected report of a to w and returns the first
// write error. m supplies the subsystem grouping; nil groups by function.
func printReport(w io.Writer, a *analyze.Analysis, m *core.Machine, report string, top, maxlines int, fn string) error {
	var groupOf map[string]string
	if m != nil && (report == "groups" || report == "timeline") {
		groupOf = m.SubsystemOf()
	}
	switch report {
	case "summary":
		return a.WriteSummary(w, top)
	case "trace":
		return a.WriteTrace(w, analyze.TraceOptions{MaxLines: maxlines})
	case "groups":
		return analyze.WriteGroups(w, a.Groups(groupOf))
	case "hist":
		return a.HistogramOf(fn).Write(w)
	case "timeline":
		return a.Timeline(groupOf, 72).Write(w)
	case "callgraph":
		g := a.CallGraph()
		if err := g.Write(w, top); err != nil || fn == "" {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		return g.WriteFunction(w, fn)
	case "json":
		return a.WriteJSON(w)
	}
	return fmt.Errorf("unknown report %q", report)
}

// runSweep fans the scenario across a seed set on a worker pool and prints
// the cross-seed aggregate. With -report sweep but no -seeds, the single
// -seed value runs (a one-seed sweep).
func runSweep(scenario, spec string, parallel int, seed uint64, params workload.Params, mods []string, depth, top int, mode core.CaptureMode, drain core.DrainConfig, faultCfg *faults.Config, onProgress func(sweep.Progress)) error {
	var seedSet []uint64
	if spec == "" {
		seedSet = []uint64{seed}
	} else {
		var err error
		if seedSet, err = sweep.ParseSeeds(spec); err != nil {
			return err
		}
	}
	res, err := sweep.Run(sweep.Config{
		Scenario:   scenario,
		Seeds:      seedSet,
		Parallel:   parallel,
		Params:     params,
		Profile:    core.ProfileConfig{Mode: mode, Drain: drain, Modules: mods, Depth: depth, Faults: faultCfg},
		OnProgress: onProgress,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s sweep: %d seeds on %d workers\n", res.Scenario, len(res.PerSeed), res.Workers)
	fmt.Printf("first seed: %s\n", res.PerSeed[0].Workload)
	if mode == core.CaptureContinuous {
		var segs int
		var lost uint64
		for _, r := range res.PerSeed {
			segs += r.Segments
			lost += r.Dropped
		}
		fmt.Printf("drained %d segments across %d seeds, %d strobes lost\n", segs, len(res.PerSeed), lost)
	}
	if faultCfg != nil {
		var injected uint64
		var corrupt, repaired, resyncs int
		for _, r := range res.PerSeed {
			injected += r.Faults
			corrupt += r.Corrupt
			repaired += r.Repaired
			resyncs += r.Resyncs
		}
		fmt.Printf("faults: %d injected across %d seeds; decode found %d corrupt records, repaired %d timestamps, %d resyncs\n",
			injected, len(res.PerSeed), corrupt, repaired, resyncs)
	}
	fmt.Println()
	return res.Agg.Write(os.Stdout, top)
}

// runEmbedded profiles the Megadata 68020 platform (the paper's first case
// study): `-scenario embedded` uses the recoded Ethernet driver,
// `-scenario embedded-old` the original double-copy one.
func runEmbedded(w io.Writer, oldDriver bool, d sim.Time, seed uint64, mods []string, report string, top, maxlines int, fn string, status *export.StatusServer) (*analyze.Analysis, error) {
	style := netstack.DriverRecoded
	if oldDriver {
		style = netstack.DriverOld
	}
	m, le := core.NewEmbeddedMachine(kernel.Config{Seed: seed}, style)
	s, err := core.NewSession(m, core.ProfileConfig{Modules: mods})
	if err != nil {
		return nil, err
	}
	if status != nil {
		s.SetProgress(status.OnSessionProgress)
	}
	s.Arm()
	res, err := workload.EmbeddedNetReceive(m, le, d)
	if err != nil {
		return nil, err
	}
	s.Disarm()
	if _, err := fmt.Fprintf(w, "embedded (68020, %v driver): %d bytes delivered, %d frames, %d drops\n\n",
		style, res.BytesDelivered, res.Frames, res.Drops); err != nil {
		return nil, err
	}
	a := s.Analyze()
	return a, printReport(w, a, m, report, top, maxlines, fn)
}

func analyzeSaved(w io.Writer, capPath, tagsPath, report string, top, maxlines int, fn string) (*analyze.Analysis, error) {
	if tagsPath == "" {
		return nil, fmt.Errorf("-load requires -tags")
	}
	cf, err := os.Open(capPath)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	c, err := hw.ReadCapture(cf)
	if err != nil {
		return nil, err
	}
	tf, err := os.Open(tagsPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	tags, err := tagfile.Parse(tf)
	if err != nil {
		return nil, err
	}
	// Saved captures come from arbitrary hardware in arbitrary health;
	// analyze through the hardened pipeline.
	a := analyze.ReconstructCapture(c, tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
	return a, printReport(w, a, nil, report, top, maxlines, fn)
}
