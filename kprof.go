// Package kprof is a reproduction of "Hardware Profiling of Kernels"
// (Andrew McRae, USENIX Winter 1993): a hardware event-tag profiler — a
// cheap card of RAM and counters piggy-backed on an EPROM socket — together
// with compiler-inserted trigger instructions and the host-side analysis
// software, measuring a simulated 386BSD-0.1-class kernel.
//
// The package is a facade over the internal implementation:
//
//   - NewMachine boots the simulated PC (kernel, VM, network stack,
//     filesystem, allocators) on a deterministic virtual clock.
//   - NewSession instruments the kernel (assigning event tags via the
//     name/tag file, performing the two-stage ProfileBase link) and plugs
//     the Profiler card into a spare EPROM socket.
//   - Workload functions (NetReceive, ForkExec, FFSWrite, ...) replay the
//     paper's case studies.
//   - Session.Analyze decodes the captured (tag, µs) stream and produces
//     the paper's reports: the per-function summary and the code-path
//     trace. A continuous session decodes its segments in the background
//     as they drain, so the analysis is ready when Disarm returns.
//   - Exporters (WritePprof, WriteChromeTrace) hand the reconstruction to
//     modern viewers — `go tool pprof` and Perfetto/chrome://tracing — and
//     StatusServer serves live capture status over HTTP.
//
// Quick start:
//
//	m := kprof.NewMachine(kprof.MachineConfig{Seed: 1})
//	s, _ := kprof.NewSession(m, kprof.ProfileConfig{})
//	s.Arm()
//	kprof.NetReceive(m, 400*kprof.Millisecond)
//	s.Disarm()
//	a := s.Analyze()
//	fmt.Print(a.SummaryString(10))
package kprof

import (
	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/faults"
	"kprof/internal/fleet"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/loadgen"
	"kprof/internal/netstack"
	"kprof/internal/pgo"
	"kprof/internal/sim"
	"kprof/internal/snmp"
	"kprof/internal/sweep"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

// Time is a virtual-time instant or duration in nanoseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// MachineConfig selects the simulated machine's parameters.
type MachineConfig = kernel.Config

// Machine is the simulated 40 MHz i386 PC running the modeled 386BSD
// kernel with all subsystems attached.
type Machine = core.Machine

// NewMachine boots a machine.
func NewMachine(cfg MachineConfig) *Machine { return core.NewMachine(cfg) }

// ProfileConfig selects what to instrument and where the card sits.
type ProfileConfig = core.ProfileConfig

// CaptureMode selects how a Session manages the card's finite RAM.
type CaptureMode = core.CaptureMode

// Capture modes: the paper's arm-run-pull workflow, or the drain-and-stitch
// pipeline that bounds captures by host memory instead of the 16384-entry
// RAM.
const (
	CaptureOneShot    = core.CaptureOneShot
	CaptureContinuous = core.CaptureContinuous
)

// DrainConfig tunes continuous capture (high-water mark and poll period).
type DrainConfig = core.DrainConfig

// Segment is one drained slice of a continuous capture, held host-side.
type Segment = core.Segment

// SegmentInfo is one segment's entry in a stitched Analysis: record count
// plus the losses (dropped strobes, force-closed frames) at its boundary.
type SegmentInfo = analyze.SegmentInfo

// Session is an instrumented kernel with the Profiler card attached. An
// armed continuous Session must be ended with Disarm or Reset: unless a
// SetOnSegment tap consumes its segments, Arm starts a background decoder
// that only those two calls join.
type Session = core.Session

// NewSession instruments the machine per cfg and attaches the card.
func NewSession(m *Machine, cfg ProfileConfig) (*Session, error) {
	return core.NewSession(m, cfg)
}

// Profiler is the hardware card model.
type Profiler = hw.Profiler

// Capture is the raw data pulled from the card's battery-backed RAM.
type Capture = hw.Capture

// ReadCapture and WriteTo (on Capture) move captures between hosts.
var ReadCapture = hw.ReadCapture

// Analysis is a reconstructed capture: function statistics, idle
// accounting, and the trace timeline.
type Analysis = analyze.Analysis

// CallGraph is the measured caller/callee graph of a capture.
type CallGraph = analyze.CallGraph

// Comparison is a before/after report between two analyses — the paper's
// "accurate before and after measurements" workflow.
type Comparison = analyze.Comparison

// Compare builds a before/after comparison.
var Compare = analyze.Compare

// Timeline is the per-subsystem activity chart.
type Timeline = analyze.Timeline

// FnStat is one function's aggregated statistics.
type FnStat = analyze.FnStat

// TraceOptions controls trace rendering.
type TraceOptions = analyze.TraceOptions

// TagFile is the name/tag file shared by the compiler and the analyzer.
type TagFile = tagfile.File

// ParseTagFile parses a name/tag file ("name/value" lines with '!' and '='
// modifiers).
var ParseTagFile = tagfile.ParseString

// Analyze decodes and reconstructs a raw capture against a tag file, for
// captures loaded from disk rather than a live session. It runs the
// hardened pipeline — timestamp repair on — since a loaded capture's
// provenance is unknown; clean captures decode identically either way.
// Like Session.Analyze, it keeps the trace timeline and invocation trees
// every report and exporter reads.
func Analyze(c Capture, tags *TagFile) *Analysis {
	return analyze.ReconstructCapture(c, tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
}

// Stitch reconstructs a segmented capture — the drained slices of one
// continuous run, in drain order — into a single Analysis, reporting any
// per-boundary losses on Analysis.Segments. Like Analyze, it runs the
// hardened pipeline and keeps the trace. It is the serial form of what a
// continuous Session does while it drains: Session.Analyze returns the
// same analysis, decoded segment by segment during the run.
func Stitch(segs []Capture, tags *TagFile) *Analysis {
	return analyze.Stitch(segs, tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
}

// RepairConfig tunes the decoder's timestamp-monotonicity repair; see
// analyze.RepairConfig for the heuristic.
type RepairConfig = analyze.RepairConfig

// DefaultRepair is the hardened pipeline's repair configuration.
var DefaultRepair = analyze.DefaultRepair

// Fault injection: a deterministic, seedable model of the card's analog
// failure modes (dropped/duplicated strobes, tag and timestamp bit flips,
// timer jitter, glitched readout). Attach one via ProfileConfig.Faults to
// prove an analysis pipeline survives broken hardware.
type (
	// FaultConfig configures the injector attached to a session's card.
	FaultConfig = faults.Config
	// FaultStats counts what an injector has done (Session.FaultStats).
	FaultStats = faults.Stats
	// FaultClass is a bitmask selecting fault classes.
	FaultClass = faults.Class
)

// Fault classes for FaultConfig.Classes.
const (
	// FaultDropStrobe loses latch strobes silently.
	FaultDropStrobe = faults.DropStrobe
	// FaultDupStrobe stores a strobe twice (a bounced strobe line).
	FaultDupStrobe = faults.DupStrobe
	// FaultTagFlip flips one bit on the 16 tag lines.
	FaultTagFlip = faults.TagFlip
	// FaultStampFlip flips one bit in the stored timestamp.
	FaultStampFlip = faults.StampFlip
	// FaultJitter perturbs the counter by a few ticks.
	FaultJitter = faults.Jitter
	// FaultReadoutGlitch misreads single bytes during socket readout.
	FaultReadoutGlitch = faults.ReadoutGlitch
	// FaultBankBurst corrupts a contiguous run of one RAM bank on drain.
	FaultBankBurst = faults.BankBurst
	// FaultAllClasses enables every fault class.
	FaultAllClasses = faults.AllClasses
)

// DeriveFaultSeed folds a sweep seed into a base fault seed, giving every
// seed of a sweep a distinct but reproducible fault stream.
var DeriveFaultSeed = faults.DeriveSeed

// Workload drivers (see internal/workload for details).
var (
	// NetReceive runs the TCP receive saturation study (Figures 3/4).
	NetReceive = workload.NetReceive
	// ForkExec runs the vfork/execve study (Figure 5).
	ForkExec = workload.ForkExec
	// FFSWrite streams sequential filesystem writes (the FFS study).
	FFSWrite = workload.FFSWrite
	// FFSRead performs seek-heavy reads.
	FFSRead = workload.FFSRead
	// NFSTransfer runs the NFS leg of the NFS-vs-FTP comparison.
	NFSTransfer = workload.NFSTransfer
	// FTPTransfer runs the FTP leg of the NFS-vs-FTP comparison.
	FTPTransfer = workload.FTPTransfer
	// Mixed is the everything-at-once background of Table 1.
	Mixed = workload.Mixed
	// RunFor advances the machine in virtual time.
	RunFor = workload.RunFor
	// ProdaySetup pre-registers the kernel state the proday scenario
	// needs; call it before NewSession.
	ProdaySetup = workload.ProdaySetup
	// Proday runs the open-loop "production day" stress: thousands of
	// TCP/UDP connections, fork storms, disk and VM pressure, NFS and
	// SNMP traffic, all driven by seeded arrival processes.
	Proday = workload.Proday
)

// Production-day scenario types.
type (
	// ProdayMix sets the per-class arrival weights for Proday.
	ProdayMix = workload.ProdayMix
	// ProdayResult summarises a Proday run.
	ProdayResult = workload.ProdayResult
)

// Open-loop load generation (see internal/loadgen): seeded arrival
// processes driven off the sim scheduler, so the same seed reproduces the
// same schedule bit for bit regardless of what the system under test does.
type (
	// ArrivalKind selects an arrival process for LoadGenConfig or
	// WorkloadParams.Arrivals.
	ArrivalKind = loadgen.Kind
	// LoadGenConfig parameterizes a load generator.
	LoadGenConfig = loadgen.Config
	// LoadGen generates one seeded arrival schedule.
	LoadGen = loadgen.Gen
)

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps.
	ArrivalPoisson = loadgen.Poisson
	// ArrivalBurst is an ON/OFF modulated Poisson process.
	ArrivalBurst = loadgen.Burst
	// ArrivalConst emits arrivals at a fixed interval.
	ArrivalConst = loadgen.Const
)

var (
	// NewLoadGen builds a load generator.
	NewLoadGen = loadgen.New
	// ParseArrivalKind parses the -arrivals flag spelling ("poisson",
	// "burst", "const").
	ParseArrivalKind = loadgen.ParseKind
)

// The SNMP MIB case study (linear list versus B-tree; see the paper's
// 68020 case studies section).
type (
	// SNMPAgent services GET/GETNEXT against a MIB store under profile.
	SNMPAgent = snmp.Agent
	// MIBStore is a MIB variable store.
	MIBStore = snmp.Store
	// OID is an SNMP object identifier.
	OID = snmp.OID
)

// SNMP case-study constructors.
var (
	NewLinearMIB = snmp.NewLinearStore
	NewBTreeMIB  = snmp.NewBTreeStore
	NewSNMPAgent = snmp.NewAgent
	// PopulateMIB fills a store with MIB-II-shaped entries.
	PopulateMIB = snmp.StandardMIB
)

// The Megadata 68020 embedded platform — the paper's first case-study
// machine, with multi-priority interrupt hardware and the Ethernet driver
// whose recoding doubled throughput.
type (
	// EmbeddedNIC is the board's LANCE-class Ethernet controller.
	EmbeddedNIC = netstack.LE
	// DriverStyle selects the old (double-copy) or recoded driver.
	DriverStyle = netstack.DriverStyle
)

// Driver generations for the embedded Ethernet.
const (
	DriverOld     = netstack.DriverOld
	DriverRecoded = netstack.DriverRecoded
)

// CksumMode selects the in_cksum implementation (set it on Machine.Net).
type CksumMode = netstack.CksumMode

// Checksum implementations: the shipped C code and the assembler-style
// recode the paper recommends.
const (
	CksumNaive     = netstack.CksumNaive
	CksumOptimized = netstack.CksumOptimized
)

// NewEmbeddedMachine boots the 68020 board; EmbeddedNetReceive runs the
// case-study workload on it.
var (
	NewEmbeddedMachine = core.NewEmbeddedMachine
	EmbeddedNetReceive = workload.EmbeddedNetReceive
)

// User-level profiling (the paper's User Code Profiling section): map the
// card into a process with Session.MapUser, register functions, and their
// triggers interleave with the kernel's in one capture.
type UserProgram = core.UserProgram

// SNMPServe runs the mixed kernel/user scenario: a profiled user-mode
// snmpd serving GETNEXT requests over UDP.
var SNMPServe = workload.SNMPServe

// Multi-seed sweeps: the deterministic simulator makes every run
// reproducible, so statistical confidence comes from rerunning a scenario
// under many seeds. Sweep fans (scenario, seed) runs across a worker pool
// — each worker boots its own Machine and Session and analyzes through
// the streaming decode path — and merges the per-seed results into
// cross-seed aggregate statistics (per-function mean/stddev/min/max and a
// stability measure).
type (
	// SweepConfig selects the scenario, seeds, pool size and per-worker
	// profiling configuration.
	SweepConfig = sweep.Config
	// SweepResult carries the per-seed results and the merged aggregate.
	SweepResult = sweep.Result
	// SweepSeedResult is one seed's compact outcome.
	SweepSeedResult = sweep.SeedResult
	// SweepAggregate is the cross-seed merge.
	SweepAggregate = sweep.Aggregate
	// SweepFnAggregate is one function's cross-seed statistics.
	SweepFnAggregate = sweep.FnAggregate
	// WorkloadParams tunes a registered scenario (duration, count, and
	// the proday load knobs: arrival process, rate, connections, mix).
	WorkloadParams = workload.Params
)

// Sweep runs a parallel multi-seed sweep.
func Sweep(cfg SweepConfig) (*SweepResult, error) { return sweep.Run(cfg) }

// ParseSeeds parses a seed-set specification such as "1..32" or
// "1..4,10,20..22".
var ParseSeeds = sweep.ParseSeeds

// ScenarioNames lists the workload scenarios a sweep can run.
var ScenarioNames = workload.ScenarioNames

// Exporters: the analysis rendered in the formats modern profiling
// consumers expect (see internal/export).
type (
	// PprofOptions tunes the pprof export (sampling period metadata).
	PprofOptions = export.PprofOptions
	// StatusServer is the live serving tier: /status.json and / (HTML)
	// with ETag revalidation, /events (SSE push through a bounded
	// fan-out hub that drops slow clients rather than block the capture
	// path), /timeseries.json (fixed-capacity ring of recent fleet
	// windows and load samples), and live /pprof + /trace.json rendered
	// from a published analysis. Fed by Session.SetProgress,
	// SweepConfig.OnProgress, FleetConfig.OnProgress and
	// FleetConfig.OnWindow hooks.
	StatusServer = export.StatusServer
	// SessionProgress is one capture-state snapshot delivered to a
	// Session.SetProgress hook. Its JSON form is the "session" section
	// of StatusServer's /status.json.
	SessionProgress = core.Progress
	// SweepProgress is one scheduling event delivered to a
	// SweepConfig.OnProgress hook. Its JSON form is the "sweep" section
	// of StatusServer's /status.json.
	SweepProgress = sweep.Progress
	// ServingStats is the SSE hub's lifetime accounting: current
	// subscribers, events published, slow clients dropped.
	ServingStats = export.HubStats
	// Timeseries is the /timeseries.json document: recent fleet window
	// summaries and ingest load samples, oldest first, plus lifetime
	// totals (schema kprof-timeseries/1).
	Timeseries = export.Timeseries
	// TimeseriesWindow is one closed fleet window in the time series.
	TimeseriesWindow = export.WindowPoint
	// TimeseriesLoad is one ingest load sample (backlog/throughput) in
	// the time series.
	TimeseriesLoad = export.LoadPoint
)

// TimeseriesSchema identifies the /timeseries.json document format.
const TimeseriesSchema = export.TimeseriesSchema

var (
	// MarshalPprof encodes an Analysis as an uncompressed pprof protobuf
	// profile with deterministic bytes, into one buffer sized up front.
	MarshalPprof = export.MarshalPprof
	// WritePprof writes the pprof profile file `go tool pprof` expects: a
	// gzip stream holding MarshalPprof's bytes stored, not compressed —
	// byte for byte what compress/gzip writes at NoCompression. Leaving
	// out the compressor saves its ~650 KB of state and most of the
	// export's time; the file grows to the payload plus 28 bytes (8.3 KB
	// for a 4 s netrecv-long capture, 38 KB for a 2 s proday one).
	WritePprof = export.WritePprof
	// WriteChromeTrace writes the Chrome trace_event JSON file Perfetto
	// and chrome://tracing load.
	WriteChromeTrace = export.WriteChromeTrace
	// NewStatusServer builds a live status endpoint.
	NewStatusServer = export.NewStatusServer
)

// What-if estimation (the paper's Network Performance arithmetic).
type (
	// PacketCost is a measured per-packet cost breakdown.
	PacketCost = analyze.PacketCost
	// WhatIf is an estimated design alternative.
	WhatIf = analyze.WhatIf
)

var (
	// EstimateMbufLinking evaluates leaving packets in controller memory.
	EstimateMbufLinking = analyze.EstimateMbufLinking
	// EstimateOptimizedChecksum evaluates recoding in_cksum.
	EstimateOptimizedChecksum = analyze.EstimateOptimizedChecksum
)

// Fleet mode: many machines, one ingest pipeline. N heterogeneous
// simulated machines run continuous drain capture concurrently and stream
// every finished segment into a central staging store; one projection
// loop commits them with atomic per-machine checkpoints under a monotonic
// fleet watermark, folding an incremental windowed cross-fleet aggregate
// (see internal/fleet and the DESIGN.md fleet section).
type (
	// FleetMachine describes one fleet machine: seed, scenario, card build.
	FleetMachine = fleet.MachineConfig
	// FleetConfig describes a fleet run (machines, window, staging bound,
	// progress and window hooks).
	FleetConfig = fleet.Config
	// FleetResult is a finished fleet run: the closed windows and the
	// cumulative aggregate, rendered by Write/WriteJSON.
	FleetResult = fleet.Result
	// FleetWindow is one closed aggregation window's summary.
	FleetWindow = fleet.WindowSummary
	// FleetProgress is a point-in-time view of the ingest pipeline
	// (watermark, backlog, committed counts), fed to FleetConfig.OnProgress
	// and StatusServer.OnFleetProgress; its JSON form is the "fleet"
	// section of /status.json. Window-close summaries flow separately, to
	// FleetConfig.OnWindow and StatusServer.OnFleetWindow.
	FleetProgress = fleet.Progress
	// FleetSource is one machine's segment stream (live or replayed).
	FleetSource = fleet.Source
	// FleetReplaySource replays a pre-captured segment stream — the same
	// bytes under any staging bound, for determinism tests and benchmarks.
	FleetReplaySource = fleet.ReplaySource
)

// FleetSchema tags the fleet JSON report format.
const FleetSchema = fleet.Schema

// RunFleet executes a full fleet run and returns the windowed result.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

var (
	// RunFleetSources executes a fleet run over explicit sources (e.g.
	// FleetReplaySources).
	RunFleetSources = fleet.RunSources
	// FleetMachinesFromMix expands a scenario-mix spec ("netrecv=2,proday=1")
	// into n deterministic heterogeneous machine configurations.
	FleetMachinesFromMix = fleet.MachinesFromMix
	// RecordFleetSource captures one machine's live stream into a
	// FleetReplaySource.
	RecordFleetSource = fleet.Record
)

// Profile-guided optimization: the closing of the paper's loop. A captured
// profile feeds back two ways — into the next measurement (the
// instrumentation-budget optimizer chooses which functions to instrument
// so the next run attributes the most net time within a tag or
// trigger-overhead budget) and into the kernel itself (the optimize-verify
// loop applies proposed cost changes, re-profiles under the identical
// seed, and verifies the measured delta against the what-if estimate).
// See internal/pgo.
type (
	// PGOCandidate is one function the budget optimizer may instrument,
	// with its footprint in the prior profile.
	PGOCandidate = pgo.Candidate
	// PGOBudget bounds an instrumentation plan (tags, trigger overhead).
	PGOBudget = pgo.Budget
	// PGOPlan is a concrete instrumentation choice; Options converts it
	// into instrument options for the next session.
	PGOPlan = pgo.Plan
	// PGOChange is one proposed kernel cost change the loop can apply and
	// verify.
	PGOChange = pgo.Change
	// PGOMeasurement is one profiled run reduced to what the estimators
	// and the per-unit verification metric need.
	PGOMeasurement = pgo.Measurement
	// PGOLoopConfig describes one optimize-verify run (scenario, seed,
	// changes).
	PGOLoopConfig = pgo.LoopConfig
	// PGOLoopResult is a finished optimize-verify loop, rendered by
	// Write/String.
	PGOLoopResult = pgo.LoopResult
	// PGOChangeOutcome is one change's verified result within a loop.
	PGOChangeOutcome = pgo.ChangeOutcome
	// PGOLoopSweep is the loop verified across a seed set, folded in seed
	// order.
	PGOLoopSweep = pgo.LoopSweep
	// Bottleneck is the roofline-style classification of a profiled run:
	// compute, memory, latency, or balanced, with a confidence and
	// suggestions.
	Bottleneck = pgo.Bottleneck
)

var (
	// OptimizeInstrumentation solves the instrumentation-budget problem
	// exactly: the candidate set maximizing attributed net time under the
	// budget.
	OptimizeInstrumentation = pgo.Optimize
	// PGOCandidatesFromAnalysis extracts optimizer candidates from a prior
	// profile (pair with Machine.ModuleOf for module labels).
	PGOCandidatesFromAnalysis = pgo.CandidatesFromAnalysis
	// PGOCandidatesFromAggregate extracts candidates from a cross-seed
	// sweep aggregate.
	PGOCandidatesFromAggregate = pgo.CandidatesFromAggregate
	// PGORegistry returns the proposed kernel changes the loop knows.
	PGORegistry = pgo.Registry
	// FindPGOChanges resolves registry changes by name, registry order.
	FindPGOChanges = pgo.FindChanges
	// RunPGOLoop executes the optimize-verify loop for one seed.
	RunPGOLoop = pgo.RunLoop
	// RunPGOLoopSweep executes the loop across a seed set on a worker
	// pool; the result is identical whatever the worker count.
	RunPGOLoopSweep = pgo.RunLoopSweep
	// ClassifyBottleneck labels a profiled run with its bottleneck type.
	ClassifyBottleneck = pgo.Classify
)

// PGODefaultTriggerNs is the per-trigger cost the budget optimizer
// assumes when none is given: ≈200 ns per EPROM-window load.
const PGODefaultTriggerNs = pgo.DefaultTriggerNs

// PGODefaultWorkFn is the work-unit function the loop's per-unit metric
// normalizes by when none is named.
const PGODefaultWorkFn = pgo.DefaultWorkFn
