// Command kbench is kprof's end-to-end benchmark. Each workload repeats,
// for a fixed host time, the public calls cmd/kprof makes for one command
// line, checks every repeat's output, and prints the metrics as one JSON
// line. A traced run (-trace 1) times each layer's calls from here, off
// the program's own code, and checks that the on-path layers add up to
// the untraced end-to-end figure. See README.md.
//
//	bash kbench/run.sh --workload netrecv-drain --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kprof/internal/sim"
	"kprof/internal/workload"
)

// ledgerTolerancePct is how far, in percent of the untraced end-to-end
// figure, the traced on-path layers may sum away from it.
const ledgerTolerancePct = 10

// Simulated durations per repeat.
const (
	netrecvDuration = 4 * sim.Second
	prodayDuration  = 2 * sim.Second
	fleetDuration   = 2 * sim.Second
	liveDuration    = 4 * sim.Second
)

// rep is one repeat of a workload on freshly booted machines, run in a
// process of its own and reported to the driving process as JSON.
type rep struct {
	Traced bool          `json:"traced"`
	Setup  time.Duration `json:"setup_ns"`
	// E2E runs from Arm (or the fleet run's start) to the last output
	// byte written; Records is what it captured (fleet: committed).
	E2E     time.Duration `json:"e2e_ns"`
	Records int           `json:"records"`
	// Ops counts operations attempted (drained segments; live-status adds
	// its HTTP requests) and Failed those that failed, with reasons.
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Problems []string `json:"problems,omitempty"`
	// Digests are the SHA-256 of each output the command line writes.
	Digests map[string]string `json:"digests"`
	// PeakRSSMB is the repeat process's peak resident set.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Calibration is the calibration time the driving process took just
	// before starting the repeat (see calib.go).
	Calibration time.Duration `json:"-"`
	// Traced repeats only: the sum of the on-path layer spans, and the
	// per-layer figures.
	OnPath time.Duration      `json:"on_path_ns"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// live-status only: successful request latencies and send lateness,
	// in ms from each request's scheduled send time.
	Latencies []float64 `json:"latencies_ms,omitempty"`
	Late      []float64 `json:"late_ms,omitempty"`

	outputs map[string][]byte
}

// fail counts n failed operations and records why.
func (r *rep) fail(n int, why string) {
	r.Failed += n
	r.Problems = append(r.Problems, why)
}

// runner runs one repeat of a workload. close releases what the runner
// holds (the live server) and, when layers is non-nil, adds the figures
// it measures once the repeat is over.
type runner interface {
	rep(traced bool) (*rep, error)
	close(layers map[string]float64) error
}

// workloadDef is one benchmark workload: the command line it equals, its
// simulated duration, and how to build its runner.
type workloadDef struct {
	name     string
	cli      string
	duration sim.Time
	start    func(seed uint64, outDir string) (runner, error)
}

var workloads = []workloadDef{
	{
		name:     "netrecv-drain",
		cli:      "kprof -scenario netrecv-long -drain -duration " + simDur(netrecvDuration) + " -report summary -pprof F",
		duration: netrecvDuration,
		start: func(seed uint64, outDir string) (runner, error) {
			return &captureRunner{sc: mustScenario("netrecv-long"), params: workload.Params{Duration: netrecvDuration},
				seed: seed, pprofPath: filepath.Join(outDir, "netrecv-drain.pb.gz")}, nil
		},
	},
	{
		name:     "proday-drain",
		cli:      "kprof -scenario proday -drain -duration " + simDur(prodayDuration) + " -report summary -pprof F",
		duration: prodayDuration,
		start: func(seed uint64, outDir string) (runner, error) {
			return &captureRunner{sc: mustScenario("proday"), params: workload.Params{Duration: prodayDuration},
				seed: seed, pprofPath: filepath.Join(outDir, "proday-drain.pb.gz")}, nil
		},
	},
	{
		name:     "fleet-live",
		cli:      "kprof -fleet 2 -fleetmix netrecv=1,proday=1 -duration " + simDur(fleetDuration) + " -fleetjson F",
		duration: fleetDuration,
		start: func(seed uint64, outDir string) (runner, error) {
			return &fleetRunner{machines: 2, mix: "netrecv=1,proday=1", seed: seed,
				params: workload.Params{Duration: fleetDuration}, window: 100 * sim.Millisecond,
				jsonPath: filepath.Join(outDir, "fleet-live.json")}, nil
		},
	},
	{
		name:     "live-status",
		cli:      "kprof -scenario netrecv-long -drain -duration " + simDur(liveDuration) + " -http 127.0.0.1:0",
		duration: liveDuration,
		start: func(seed uint64, outDir string) (runner, error) {
			live, err := startLive("netrecv-long")
			if err != nil {
				return nil, err
			}
			return &captureRunner{sc: mustScenario("netrecv-long"), params: workload.Params{Duration: liveDuration},
				seed: seed, live: live}, nil
		},
	},
}

// simDur formats a simulated duration the way kprof's -duration flag
// takes it ("4s").
func simDur(d sim.Time) string { return time.Duration(d).String() }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "host seconds to repeat the workload for")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "kbench-out"), "directory for the files the workload exports")
	repeat := fs.String("repeat", "", "run one repeat in this process (plain or traced) and print it as JSON; the driving process uses it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "kbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *repeat != "" {
		if *repeat != "plain" && *repeat != "traced" {
			fmt.Fprintf(stderr, "kbench: -repeat %q: want plain or traced\n", *repeat)
			return 2
		}
		if err := runRepeat(w, *seed, *outDir, *repeat == "traced", stdout); err != nil {
			fmt.Fprintf(stderr, "kbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "kbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	st, err := measure(time.Duration(*seconds)*time.Second, traced, func(tracedRep bool) (*rep, error) {
		mode := "plain"
		if tracedRep {
			mode = "traced"
		}
		calib := calibrate()
		rp, err := runChild(self, "-workload", w.name, "-seed", fmt.Sprint(*seed), "-out", *outDir, "-repeat", mode)
		if err != nil {
			return nil, err
		}
		rp.Calibration = calib
		return rp, nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "kbench: %s: %v\n", w.name, err)
		return 1
	}

	metrics, raw := endToEnd(st)
	specs := endToEndSpecs
	if traced {
		var problems []string
		metrics, problems = perLayer(st)
		st.problems = append(st.problems, problems...)
		specs = perLayerSpecs
	}
	for _, p := range st.problems {
		fmt.Fprintf(stderr, "kbench: %s seed %d: FAILED: %s\n", w.name, *seed, p)
	}
	if late := st.late(); len(late) > 0 {
		p50, _, _ := percentile(late, 50)
		p99, _, _ := percentile(late, 99)
		fmt.Fprintf(stderr, "kbench: %s: open-loop generator sent %d requests p50 %.3f ms, p99 %.3f ms behind schedule\n",
			w.name, len(late), p50, p99)
	}
	stamp := hostStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: w.name, CLI: w.cli, Seed: *seed, SimDuration: simDur(w.duration),
		Traced: traced, Repeats: len(st.reps), RecordsPerRepeat: st.reps[0].Records,
		Raw: raw,
	}
	res := result{Correct: st.failed == 0 && len(st.problems) == 0, Attempted: st.attempted, Failed: st.failed,
		Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v := metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "kbench: %s: metric %s is not a number\n", w.name, s.name)
			v, res.Correct = 0, false
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(stderr, "kbench: %-14s %-38s %14.4f %s\n", w.name, s.name, v, s.unit)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]hostStamp{"host": stamp}); err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	return 0
}

// runStats is a run's repeats and its operation accounting.
type runStats struct {
	reps              []*rep
	attempted, failed int
	problems          []string
}

// measure runs repeats until the host time d has passed, and at least
// twice per kind of repeat so the output check always compares. A traced
// run alternates untraced and traced repeats: the untraced ones give the
// figure the ledger must close against.
func measure(d time.Duration, traced bool, runRep func(traced bool) (*rep, error)) (*runStats, error) {
	minReps := 3
	if traced {
		minReps = 4
	}
	st := &runStats{}
	var check outputCheck
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		rp, err := runRep(traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", i+1, err)
		}
		if err := check.observe(rp.Digests); err != nil {
			rp.fail(rp.Ops, err.Error())
		}
		rp.Failed = min(rp.Failed, rp.Ops)
		st.attempted += rp.Ops
		st.failed += rp.Failed
		st.problems = append(st.problems, rp.Problems...)
		st.reps = append(st.reps, rp)
	}
	return st, nil
}

// runChild runs one repeat in a fresh process of this program and waits
// for it. A process per repeat gives each repeat a clean heap and its own
// peak RSS, as a kprof command line has.
func runChild(self string, args ...string) (*rep, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repeat process: %w", err)
	}
	var rp rep
	if err := json.Unmarshal(out, &rp); err != nil {
		return nil, fmt.Errorf("repeat process output: %w", err)
	}
	return &rp, nil
}

// runRepeat runs one repeat of w in this process and writes it to w as
// JSON.
func runRepeat(w workloadDef, seed uint64, outDir string, traced bool, out io.Writer) error {
	r, err := w.start(seed, outDir)
	if err != nil {
		return err
	}
	rp, err := r.rep(traced)
	var layers map[string]float64
	if err == nil && traced {
		layers = rp.Layers
	}
	if cerr := r.close(layers); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rp.Digests = digests(rp.outputs)
	rp.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(out).Encode(rp)
}

// late pools the live-status send lateness of every repeat, in ms.
func (st *runStats) late() []float64 {
	var late []float64
	for _, rp := range st.reps {
		late = append(late, rp.Late...)
	}
	return late
}

// peakRSSMB reports the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// rawFigures are the untraced repeats' medians before scaling to the
// reference host speed, for the host stamp.
type rawFigures struct {
	SetupS        float64 `json:"setup_s"`
	NsPerRecord   float64 `json:"ns_per_record"`
	CalibrationMs float64 `json:"calibration_ms"`
}

// endToEnd computes the end-to-end metrics from the untraced repeats, the
// times at the reference host speed, and the raw medians beside them.
func endToEnd(st *runStats) (map[string]float64, rawFigures) {
	var setup, nsRec, rss, rawSetup, rawNsRec, calib []float64
	for _, rp := range st.reps {
		if rp.Traced {
			continue
		}
		setup = append(setup, atReference(rp.Setup, rp.Calibration).Seconds())
		nsRec = append(nsRec, perRecord(atReference(rp.E2E, rp.Calibration), rp.Records))
		rss = append(rss, rp.PeakRSSMB)
		rawSetup = append(rawSetup, rp.Setup.Seconds())
		rawNsRec = append(rawNsRec, perRecord(rp.E2E, rp.Records))
		calib = append(calib, ms(rp.Calibration))
	}
	return map[string]float64{
			"setup_s":       median(setup),
			"ns_per_record": median(nsRec),
			"peak_rss_mb":   median(rss),
		}, rawFigures{
			SetupS:        median(rawSetup),
			NsPerRecord:   median(rawNsRec),
			CalibrationMs: median(calib),
		}
}

// perLayer computes the per-layer metrics of a traced run: the median of
// each layer figure over the traced repeats (0 for a layer the workload
// does not exercise), the ledger and tracing overhead, and the error and
// status-latency figures. It returns a problem when the ledger does not
// close.
//
// Each traced repeat is compared with the untraced repeat just before it,
// so host speed drift between the two hardly enters the gap.
func perLayer(st *runStats) (map[string]float64, []string) {
	var gaps, overheads, lat []float64
	byName := make(map[string][]float64)
	var untraced float64
	for _, rp := range st.reps {
		lat = append(lat, rp.Latencies...)
		e2e := perRecord(rp.E2E, rp.Records)
		if !rp.Traced {
			untraced = e2e
			continue
		}
		gaps = append(gaps, 100*(untraced-perRecord(rp.OnPath, rp.Records))/untraced)
		overheads = append(overheads, 100*(e2e-untraced)/untraced)
		for k, v := range rp.Layers {
			byName[k] = append(byName[k], v)
		}
	}
	m := make(map[string]float64)
	for _, s := range perLayerSpecs {
		m[s.name] = median(byName[s.name])
	}
	m["ledger.gap_pct"] = median(gaps)
	m["trace.overhead_pct"] = median(overheads)
	m["error_rate"] = float64(st.failed) / float64(st.attempted)
	m["status_samples"] = float64(len(lat))
	if v, _, ok := percentile(lat, 50); ok {
		m["status_p50_ms"] = v
	}
	if v, _, ok := percentile(lat, 99); ok {
		m["status_p99_ms"] = v
	}
	var problems []string
	if gap := m["ledger.gap_pct"]; math.Abs(gap) > ledgerTolerancePct {
		problems = append(problems, fmt.Sprintf("ledger does not close: on-path layers sum to %.1f%% away from the untraced end-to-end figure (tolerance %d%%)",
			gap, ledgerTolerancePct))
	}
	return m, problems
}

// metricSpec names a metric and its unit; the lists mirror
// BENCHMARK.json (TestSpecsMatchBenchmarkJSON holds them together).
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"ns_per_record", "ns"},
	{"peak_rss_mb", "MB"},
}

var perLayerSpecs = []metricSpec{
	{"kernel.ns_per_record", "ns"},
	{"core.capture_ns_per_record", "ns"},
	{"hw.trigger_ns_per_record", "ns"},
	{"hw.readout_ns_per_record", "ns"},
	{"core.retained_mb", "MB"},
	{"core.segments", "count"},
	{"core.drain_errs", "count"},
	{"analyze.full_ns_per_record", "ns"},
	{"analyze.full_allocs_per_record", "count"},
	{"analyze.full_alloc_bytes_per_record", "B"},
	{"analyze.lean_ns_per_record", "ns"},
	{"export.summary_ms", "ms"},
	{"export.pprof_ms", "ms"},
	{"export.publish_ns", "ns"},
	{"export.progress_hooks", "count"},
	{"export.status_render_us", "us"},
	{"export.status_304_ns", "ns"},
	{"export.sse_published", "count"},
	{"export.sse_slow_dropped", "count"},
	{"fleet.machine_ns_per_record", "ns"},
	{"fleet.ingest_ns_per_record", "ns"},
	{"fleet.backlog_max", "count"},
	{"fleet.commit_lag_ms", "ms"},
	{"fleet.tail_ms", "ms"},
	{"fleet.windows", "count"},
	{"ledger.gap_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
	{"status_p50_ms", "ms"},
	{"status_p99_ms", "ms"},
	{"status_samples", "count"},
}

// hostStamp records where and how a result was measured.
type hostStamp struct {
	NumCPU           int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	Go               string `json:"go"`
	Workload         string `json:"workload"`
	CLI              string `json:"cli"`
	Seed             uint64 `json:"seed"`
	SimDuration      string `json:"sim_duration"`
	Traced           bool   `json:"traced"`
	Repeats          int    `json:"repeats"`
	RecordsPerRepeat int    `json:"records_per_repeat"`
	// Raw holds the end-to-end times as measured, before scaling to the
	// reference host speed, and the calibration time they were scaled by.
	Raw rawFigures `json:"raw"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
