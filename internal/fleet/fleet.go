// Package fleet profiles many simulated machines at once and streams
// their captures through one host-side ingest pipeline.
//
// One Session owns one Machine; a sweep parallelizes seeds but each
// worker is an island that reports only when the pool drains. Fleet mode
// is the production shape: N machines with heterogeneous configurations
// (card RAM depth, counter clock rate, workload scenario) each run
// continuous drain capture, and every finished segment streams to a
// central ingest service the moment it drains. The ingest side follows
// the ingestor → staging store → projection pattern:
//
//   - a per-machine ingest worker decodes its machine's segment stream
//     through a dedicated streaming Reconstructor and condenses each
//     segment into an integer-delta Sample, appended to the staging
//     store (Append blocks when the store is full — backpressure reaches
//     all the way back to the machine's drain loop);
//   - one projection loop, run by the store itself, consumes staged
//     samples in strict per-machine order, committing each one
//     atomically: advance the machine's checkpoint, fold the sample into
//     its time window, recompute the fleet watermark, and close every
//     window the watermark has passed;
//   - cross-fleet aggregation is incremental and windowed: each closed
//     window folds its machines' sums into a sweep.Aggregate (machines in
//     ID order) and merges into the running fleet cumulative
//     (sweep.Aggregate.Merge, windows in index order) — never a
//     fold-at-the-end over retained per-seed results.
//
// Every float fold order is fixed — segments per machine in sequence
// order, machines within a window in ID order, windows into the
// cumulative in index order — so the fleet report is byte-identical for
// any staging bound and any ingest interleaving. The staging store holds
// the whole durable state (staged samples, checkpoints, window sums, the
// cumulative); a projection loop stopped mid-run is started again over
// the same store and resumes from the checkpoints without reprocessing a
// single committed segment. See DESIGN.md ("Fleet mode") for the
// invariant list the tests assert.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

// Schema identifies the fleet JSON report format (Result.WriteJSON).
const Schema = "kprof-fleet/1"

// DefaultWindow is the aggregation window width when Config.Window is
// zero: wide enough that every machine drains at least once per window
// under the default drain interval, narrow enough that a production-day
// run produces a meaningful time series.
const DefaultWindow = 100 * sim.Millisecond

// DefaultStaging bounds the staging store (in samples) when
// Config.Staging is zero.
const DefaultStaging = 64

// MachineConfig describes one fleet machine: its simulation seed, its
// workload, and the card build it profiles with. Heterogeneity lives
// here — different RAM depths drain at different cadences, different
// clock rates stamp at different precision, and the ingest pipeline
// decodes each stream under its own machine's configuration.
type MachineConfig struct {
	// ID identifies the machine; IDs must be unique across the fleet and
	// fix the merge order within a window (ascending).
	ID int
	// Seed is the machine's simulation seed.
	Seed uint64
	// Scenario names a registered workload (workload.ScenarioNames).
	Scenario string
	// Params tunes the workload (zero values select scenario defaults).
	Params workload.Params
	// Depth is the machine's card RAM depth; 0 means the prototype's
	// 16384 records.
	Depth int
	// ClockHz is the card's counter rate; 0 means the prototype's 1 MHz.
	ClockHz int64
}

// Config describes one fleet run.
type Config struct {
	// Machines is the fleet, typically built by MachinesFromMix.
	Machines []MachineConfig
	// Window is the aggregation window width in virtual time; 0 means
	// DefaultWindow. Samples are assigned to windows by drain time.
	Window sim.Time
	// Staging bounds the staging store in samples; 0 means
	// DefaultStaging. Appends block when the store is full.
	Staging int
	// OnProgress, when non-nil, observes the ingest pipeline: it fires on
	// every append, commit and machine completion. Calls are serialized
	// under the store's lock — the callback must be fast and must not
	// re-enter the fleet (it feeds export.StatusServer).
	OnProgress func(Progress)
	// OnWindow, when non-nil, observes every closed aggregation window at
	// the moment it closes, in ascending index order — the summaries are
	// exactly the ones Result.Windows will list. Like OnProgress, calls run
	// under the store's lock: the callback must be fast and must not
	// re-enter the fleet (it feeds export.StatusServer's time-series ring).
	OnWindow func(WindowSummary)
}

// MachinesFromMix builds n machine configurations from a scenario-mix
// spec of the form "netrecv=2,proday=1": scenario names with integer
// weights, assigned to machines by cycling through the weighted
// expansion (two netrecv machines, then one proday, repeating). An empty
// spec means all netrecv. Seeds are baseSeed, baseSeed+1, ...; card
// heterogeneity is derived deterministically from the machine index
// (RAM depth cycling 16384/8192/4096, clock rate cycling 1/2/4 MHz), so
// the same arguments always describe the same fleet.
func MachinesFromMix(n int, spec string, baseSeed uint64, params workload.Params) ([]MachineConfig, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: need at least one machine, got %d", n)
	}
	if spec == "" {
		spec = "netrecv"
	}
	var cycle []string
	for _, part := range strings.Split(spec, ",") {
		name, val, hasWeight := strings.Cut(part, "=")
		w := 1
		if hasWeight {
			parsed, err := strconv.Atoi(val)
			if err != nil || parsed < 0 {
				return nil, fmt.Errorf("fleet: -fleetmix entry %q: bad weight %q", part, val)
			}
			w = parsed
		}
		if _, ok := workload.FindScenario(name); !ok {
			return nil, fmt.Errorf("fleet: -fleetmix entry %q: unknown scenario (have %v)", part, workload.ScenarioNames())
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, name)
		}
	}
	if len(cycle) == 0 {
		return nil, fmt.Errorf("fleet: -fleetmix %q selects no machines (all weights zero)", spec)
	}
	depths := []int{0, 8192, 4096}             // 0 = prototype 16384
	clocks := []int64{0, 2_000_000, 4_000_000} // 0 = prototype 1 MHz
	machines := make([]MachineConfig, n)
	for i := range machines {
		machines[i] = MachineConfig{
			ID:       i,
			Seed:     baseSeed + uint64(i),
			Scenario: cycle[i%len(cycle)],
			Params:   params,
			Depth:    depths[i%len(depths)],
			ClockHz:  clocks[(i/len(depths))%len(clocks)],
		}
	}
	return machines, nil
}

// Run executes a full fleet run: boot every machine live, stream, ingest,
// project, and return the finished result once every machine's stream is
// fully committed and every window is closed.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("fleet: no machines configured")
	}
	sources := make([]Source, len(cfg.Machines))
	for i, mc := range cfg.Machines {
		ls, err := NewLiveSource(mc)
		if err != nil {
			return nil, err
		}
		sources[i] = ls
	}
	return RunSources(cfg, sources)
}

// RunSources executes a fleet run over explicit sources — live machines,
// or pre-captured ReplaySources (the benchmark and the differential
// tests replay identical streams under different staging bounds). The
// projection loop runs on the calling goroutine; RunSources returns once
// it and every ingest worker have finished.
func RunSources(cfg Config, sources []Source) (*Result, error) {
	ids := make([]int, len(sources))
	for i, src := range sources {
		ids[i] = src.ID()
	}
	st, err := NewStore(cfg.Window, cfg.Staging, ids, cfg.OnProgress, cfg.OnWindow)
	if err != nil {
		return nil, err
	}
	ing := StartIngest(st, sources)
	projErr := st.project(-1)
	ingErr := ing.Wait()
	if ingErr != nil {
		return nil, ingErr
	}
	if projErr != nil {
		return nil, projErr
	}
	return st.Result(), nil
}

// WindowFn is one function's entry in a closed window's top list.
type WindowFn struct {
	Name string `json:"name"`
	// Machines counts the machines the function appeared on in the window.
	Machines int `json:"machines"`
	// CallsMean, NetUSMean and PctNetMean are cross-machine means within
	// the window.
	CallsMean  float64 `json:"calls_mean"`
	NetUSMean  float64 `json:"net_us_mean"`
	PctNetMean float64 `json:"pct_net_mean"`
}

// WindowSummary is one closed aggregation window. Windows with no
// committed samples produce no summary, so indices may have gaps.
type WindowSummary struct {
	// Index is the window's position on the virtual timeline: the window
	// covers [Index*width, (Index+1)*width).
	Index int64 `json:"index"`
	// StartUS and EndUS are the window bounds in virtual microseconds.
	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`
	// Machines counts machines that contributed at least one segment.
	Machines int `json:"machines"`
	// Segments, Records and Dropped total the window's committed samples.
	Segments int    `json:"segments"`
	Records  int    `json:"records"`
	Dropped  uint64 `json:"dropped_strobes"`
	// Top lists the window's heaviest functions by mean net time.
	Top []WindowFn `json:"top"`
}

// windowTopFns bounds WindowSummary.Top.
const windowTopFns = 5

// Result is a finished fleet run.
type Result struct {
	// Machines is the fleet size; WindowUS the window width.
	Machines int
	WindowUS int64
	// Segments, Records and Dropped total every committed sample.
	Segments int
	Records  int
	Dropped  uint64
	// WatermarkUS is the final fleet watermark in virtual microseconds.
	WatermarkUS int64
	// Windows lists the closed windows in index order.
	Windows []WindowSummary
	// Agg is the cumulative fleet aggregate: the incremental merge of
	// every closed window, observation unit = one machine's contribution
	// to one window.
	Agg *sweep.Aggregate
}

// Write renders the fleet report: the run header, the window table, and
// the cumulative aggregate (top functions; 0 = all). The bytes depend
// only on the committed samples and the window width — not on the staging
// bound or ingest interleaving.
func (r *Result) Write(w io.Writer, top int) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "Fleet of %d machines: %d segments ingested (%d records, %d dropped strobes), watermark %d us\n",
		r.Machines, r.Segments, r.Records, r.Dropped, r.WatermarkUS)
	fmt.Fprintf(ew, "%d windows of %d us:\n", len(r.Windows), r.WindowUS)
	fmt.Fprintf(ew, "%6s %22s %5s %5s %8s %6s   %s\n",
		"window", "span (us)", "mach", "segs", "records", "drop", "top function (% net mean)")
	for _, ws := range r.Windows {
		topFn := ""
		if len(ws.Top) > 0 {
			topFn = fmt.Sprintf("%s (%.1f)", ws.Top[0].Name, ws.Top[0].PctNetMean)
		}
		fmt.Fprintf(ew, "%6d %10d..%-11d %5d %5d %8d %6d   %s\n",
			ws.Index, ws.StartUS, ws.EndUS, ws.Machines, ws.Segments, ws.Records, ws.Dropped, topFn)
	}
	fmt.Fprintln(ew)
	if ew.err != nil {
		return ew.err
	}
	return r.Agg.Write(w, top)
}

// String renders the report with the top 20 functions.
func (r *Result) String() string {
	var b strings.Builder
	_ = r.Write(&b, 20)
	return b.String()
}

// jsonAcc renders one accumulator.
type jsonAcc struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func accJSON(a interface {
	Std() float64
	Min() float64
	Max() float64
}, n int, mean float64) jsonAcc {
	return jsonAcc{N: n, Mean: mean, Std: a.Std(), Min: a.Min(), Max: a.Max()}
}

// jsonFleetFn is one function's row in the cumulative aggregate.
type jsonFleetFn struct {
	Name string `json:"name"`
	// Observations counts the (machine, window) pairs the function
	// appeared in.
	Observations int     `json:"observations"`
	CallsMean    float64 `json:"calls_mean"`
	NetUS        jsonAcc `json:"net_us"`
	PctNet       jsonAcc `json:"pct_net"`
	PctNetCV     float64 `json:"pct_net_cv"`
}

// jsonFleet is the cumulative aggregate section.
type jsonFleet struct {
	Observations int           `json:"observations"`
	ElapsedUS    jsonAcc       `json:"elapsed_us"`
	RunUS        jsonAcc       `json:"run_us"`
	IdlePct      jsonAcc       `json:"idle_pct"`
	Functions    []jsonFleetFn `json:"functions"`
}

// jsonReport is the whole document (schema kprof-fleet/1; see DESIGN.md).
type jsonReport struct {
	Schema      string          `json:"schema"`
	Machines    int             `json:"machines"`
	WindowUS    int64           `json:"window_us"`
	Segments    int             `json:"segments"`
	Records     int             `json:"records"`
	Dropped     uint64          `json:"dropped_strobes"`
	WatermarkUS int64           `json:"watermark_us"`
	Windows     []WindowSummary `json:"windows"`
	Fleet       jsonFleet       `json:"fleet"`
}

// WriteJSON writes the machine-readable fleet report (schema
// "kprof-fleet/1", documented in DESIGN.md). Like Write, the bytes are
// independent of the staging bound and ingest interleaving.
func (r *Result) WriteJSON(w io.Writer) error {
	g := r.Agg
	doc := jsonReport{
		Schema:      Schema,
		Machines:    r.Machines,
		WindowUS:    r.WindowUS,
		Segments:    r.Segments,
		Records:     r.Records,
		Dropped:     r.Dropped,
		WatermarkUS: r.WatermarkUS,
		Windows:     r.Windows,
		Fleet: jsonFleet{
			Observations: g.Seeds,
			ElapsedUS:    accJSON(g.ElapsedUS, g.ElapsedUS.N, g.ElapsedUS.Mean),
			RunUS:        accJSON(g.RunUS, g.RunUS.N, g.RunUS.Mean),
			IdlePct:      accJSON(g.IdlePct, g.IdlePct.N, g.IdlePct.Mean),
		},
	}
	if doc.Windows == nil {
		doc.Windows = []WindowSummary{}
	}
	doc.Fleet.Functions = make([]jsonFleetFn, 0, len(g.Fns))
	for _, f := range g.Fns {
		doc.Fleet.Functions = append(doc.Fleet.Functions, jsonFleetFn{
			Name:         f.Name,
			Observations: f.Seeds,
			CallsMean:    f.Calls.Mean,
			NetUS:        accJSON(f.NetUS, f.NetUS.N, f.NetUS.Mean),
			PctNet:       accJSON(f.PctNet, f.PctNet.N, f.PctNet.Mean),
			PctNetCV:     f.PctNet.CV(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// us converts virtual time to float microseconds (the aggregate unit).
func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// sortedMachineIDs returns m's keys ascending — the fixed fold order
// within a window.
func sortedMachineIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// errWriter passes writes through until one fails, then remembers the
// first error (the same pattern as the analyze/sweep report writers).
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}
