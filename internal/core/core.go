// Package core assembles the full profiling system: a simulated 386BSD-0.1
// class machine (kernel, allocators, VM, network stack, filesystem), the
// instrumentation pass and two-stage link, and the Profiler card plugged
// into a spare EPROM socket — the paper used the socket on the WD8003E
// Ethernet card. A Session drives the paper's workflow: instrument selected
// modules, arm the card, run a workload, pull the RAMs, analyze.
package core

import (
	"fmt"

	"kprof/internal/analyze"
	"kprof/internal/faults"
	"kprof/internal/fdesc"
	"kprof/internal/fs"
	"kprof/internal/hw"
	"kprof/internal/instrument"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/netstack"
	"kprof/internal/nfs"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
	"kprof/internal/vm"
)

// Machine is the complete simulated PC: the 40 MHz i386 with 8 MB running
// the modeled kernel and all its subsystems.
type Machine struct {
	K     *kernel.Kernel
	Alloc *mem.Allocator
	VM    *vm.VM
	Net   *netstack.Net
	FS    *fs.FS
	FD    *fdesc.FD

	// Aux carries scenario state that must be built before the kernel is
	// instrumented (a Scenario.Setup registering kernel functions stashes
	// what its Run needs here; see workload.Scenario).
	Aux map[string]any

	nfsClient *nfs.Client
}

// NewMachine boots a machine: every subsystem attached, clock ticking.
func NewMachine(cfg kernel.Config) *Machine {
	k := kernel.New(cfg)
	alloc := mem.Attach(k)
	m := &Machine{
		K:     k,
		Alloc: alloc,
		VM:    vm.Attach(k, alloc),
		Net:   netstack.Attach(k, alloc),
		FS:    fs.Attach(k, alloc),
		FD:    fdesc.Attach(k, alloc),
		Aux:   make(map[string]any),
	}
	k.StartClock()
	return m
}

// NFS lazily attaches the NFS-lite client (it binds a UDP port).
func (m *Machine) NFS() (*nfs.Client, error) {
	if m.nfsClient == nil {
		c, err := nfs.NewClient(m.K, m.Net)
		if err != nil {
			return nil, err
		}
		m.nfsClient = c
	}
	return m.nfsClient, nil
}

// CaptureMode selects how a Session manages the card's finite RAM.
type CaptureMode int

// captureModeNames holds each mode's name as MarshalText returns it:
// built once, so encoding a progress snapshot allocates nothing for it.
var captureModeNames = [...][]byte{
	CaptureOneShot:    []byte("one-shot"),
	CaptureContinuous: []byte("continuous"),
}

// String names the mode ("one-shot" or "continuous").
func (m CaptureMode) String() string {
	b, _ := m.MarshalText()
	return string(b)
}

// MarshalText encodes the mode by name, the form /status.json serves.
// The returned slice is shared and must not be modified.
func (m CaptureMode) MarshalText() ([]byte, error) {
	if m >= 0 && int(m) < len(captureModeNames) {
		return captureModeNames[m], nil
	}
	return fmt.Appendf(nil, "CaptureMode(%d)", int(m)), nil
}

// UnmarshalText decodes a mode name; an unknown name is an error.
func (m *CaptureMode) UnmarshalText(text []byte) error {
	for i, name := range captureModeNames {
		if string(text) == string(name) {
			*m = CaptureMode(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown capture mode %q", text)
}

const (
	// CaptureOneShot is the paper's workflow: arm, run, pull the RAMs.
	// Capture ceases silently when the 16384-entry RAM fills; only the
	// head of a long run is kept.
	CaptureOneShot CaptureMode = iota
	// CaptureContinuous is the drain-and-stitch pipeline built on the
	// paper's future-work fast readout: whenever the card crosses a
	// high-water mark the session pauses capture at a safe point, reads
	// the RAM out through the EPROM socket into a host-side segment
	// store, resets the card and resumes. Captures are then bounded only
	// by host memory, and any records lost between drains are reported
	// per segment — never silently.
	CaptureContinuous
)

// DefaultDrainInterval is how often a continuous-capture session polls the
// card's fill level when DrainConfig.Interval is zero.
const DefaultDrainInterval = sim.Millisecond

// The card's socket and the kernel image the two-stage link lays out: the
// paper borrowed the WD8003E Ethernet card's EPROM socket at 0xD0000, and
// a representative 640 KB kernel fixes where ISA space lands in kernel VA.
const (
	epromPhys  = 0xD0000
	kernelSize = 640 * 1024
)

// recycleDepth is the bounded-channel capacity between the drain loop and
// the background reconstructor: up to this many drained-but-undecoded
// segments may be in flight before a drain blocks on the decoder. It
// bounds how far the decoder lags behind the drains, so the decode left
// for Disarm to wait on is about recycleDepth+1 segments, and a brief
// decoder stall still does not block the simulation. A recycling session's
// readout pool is capped at recycleDepth+1 buffers by the same bound, so
// the records it holds host-side stay a few card readouts for any run
// length.
const recycleDepth = 4

// DrainConfig tunes continuous capture.
type DrainConfig struct {
	// HighWater is the stored-record count that triggers a drain; 0
	// means three quarters of the card depth. The headroom above it
	// absorbs the records that arrive between polls.
	HighWater int
	// Interval is the fill-level poll period in virtual time; 0 means
	// DefaultDrainInterval. The card has no interrupt line to the host —
	// the front panel has only LEDs — so the host polls.
	Interval sim.Time
	// Recycle trades the drained records for bounded memory. Every
	// untapped continuous session decodes its segments on a background
	// goroutine as they drain (see Session.Analyze); under Recycle that
	// decode is lean (statistics only, as AnalyzeLean returns), and each
	// record buffer returns to a pool once the decoder has consumed it.
	// A long continuous capture then reads the card out into a handful of
	// reused buffers instead of accumulating every segment's records
	// host-side. It narrows the session's contract: segments retain only
	// their loss metadata (Segment.Recycled, Capture.Records nil), so the
	// capture cannot be re-decoded — Analyze and any AnalyzeLean call the
	// streamed result does not cover panic rather than silently analyzing
	// an empty record list. Use it where only the final statistics matter
	// (benchmarks, sweeps), not where the raw records are part of the
	// product.
	Recycle bool
}

// ProfileConfig selects what to instrument and how the card captures.
// Every session starts a fresh name/tag file at tag 500, allocates the
// MGET inline trigger the paper's sample tag file shows, and plugs the
// card into the WD8003E's EPROM socket in front of a 640 KB kernel.
type ProfileConfig struct {
	// Mode selects one-shot (the default, the paper's pull-the-RAMs
	// workflow) or continuous (drain-and-stitch) capture.
	Mode CaptureMode
	// Drain tunes continuous capture; ignored in one-shot mode.
	Drain DrainConfig
	// Modules restricts instrumentation (micro-profiling); empty
	// instruments the whole kernel.
	Modules []string
	// Depth is the card RAM depth; 0 means the prototype's 16384.
	Depth int
	// ClockHz selects the card's counter rate (the paper's future-work
	// precision upgrade); 0 means the prototype's 1 MHz.
	ClockHz int64
	// TimerBits selects the stored counter width; 0 means 24.
	TimerBits uint
	// Faults, when non-nil, attaches a deterministic fault injector to the
	// card's capture and readout paths (see internal/faults). A non-nil
	// config with Rate 0 attaches a pure pass-through — byte-identical
	// captures to running with no injector at all.
	Faults *faults.Config
}

// Segment is one drained slice of a continuous capture, held host-side.
// Its Capture.Dropped and Capture.Overflowed fields describe the loss (if
// any) at the segment's end: strobes that arrived after the card filled
// but before the drain ran.
type Segment struct {
	Capture   hw.Capture
	DrainedAt sim.Time // virtual time the drain ran
	// Records is the drained record count. It always equals
	// Capture.Len() except on a recycled segment, where it preserves the
	// count after the record buffer went back to the pool.
	Records int
	// Recycled marks a segment whose record buffer was returned to the
	// drain pool after the background decoder consumed it
	// (DrainConfig.Recycle): Capture.Records is nil and only the loss
	// metadata remains host-side.
	Recycled bool
}

// Session is one profiling setup: an instrumented kernel with the card
// attached.
type Session struct {
	M      *Machine
	Card   *hw.Profiler
	Socket *hw.EPROMSocket
	Inst   *instrument.Result
	Linked *instrument.Linked
	Tags   *tagfile.File

	// Continuous-capture state.
	mode     CaptureMode
	drain    DrainConfig
	segments []Segment
	// segRecords and segDropped are the running sums of the segments'
	// Records and Capture.Dropped, so a progress snapshot costs the same
	// however many segments a long capture has drained.
	segRecords int
	segDropped uint64
	drainEv    *sim.Event
	// drainPollFn is the poll body, bound once so the periodic re-arm can
	// reuse drainEv's allocation (Reschedule) instead of building a fresh
	// closure and event every interval.
	drainPollFn func()
	drainErr    error
	drainErrs   int

	// Background-decode state: the in-flight pipe while armed, then the
	// finished analysis and the number of segments it consumed once the
	// session disarms.
	pipe      *decodePipe
	pipedA    *analyze.Analysis
	pipedSegs int

	// injector is the fault injector attached via ProfileConfig.Faults,
	// nil when the session runs on pristine hardware.
	injector *faults.Injector

	// progress, when set, observes capture state changes (see SetProgress).
	// progressGen counts delivered snapshots (Progress.Gen).
	progress    func(Progress)
	progressGen uint64
	// onSegment, when set, receives each drained segment (see SetOnSegment).
	onSegment func(Segment)
}

// Progress is a point-in-time snapshot of a session's capture state,
// delivered to the callback registered with SetProgress. It is the feed
// for live observability (export.StatusServer): fill level, drained
// segments and loss counters while a long continuous capture runs. Its
// JSON form is the "session" section of /status.json and the payload of
// a "session" event, so the field order and tags are that wire format;
// loss counters use the repository-wide dropped_strobes name (see
// DESIGN.md).
type Progress struct {
	// NowUS is the machine's virtual time at the snapshot, in whole
	// microseconds.
	NowUS int64 `json:"now_us"`
	// Armed reports whether the card is capturing; Mode is the session's
	// capture mode.
	Armed bool        `json:"armed"`
	Mode  CaptureMode `json:"mode"`
	// Stored and Depth are the card RAM's fill state, and FillPct is
	// Stored as a percentage of Depth; Overflowed reports the overflow
	// LED.
	Stored     int     `json:"stored"`
	Depth      int     `json:"depth"`
	FillPct    float64 `json:"fill_pct"`
	Overflowed bool    `json:"overflowed"`
	// Segments counts host-side drained segments so far, holding
	// SegmentRecords records in total.
	Segments       int `json:"segments"`
	SegmentRecords int `json:"drained_records"`
	// Dropped counts every strobe lost so far: the card's current drop
	// counter plus the losses attached to already-drained segments.
	Dropped uint64 `json:"dropped_strobes"`
	// FaultsInjected counts corruptions the session's fault injector has
	// applied so far (zero, and absent from the JSON, when no injector is
	// attached or none has fired).
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// DrainErrs counts drains whose readout failed verification so far;
	// each one stranded a bank, accounted as dropped strobes above.
	// Absent from the JSON while every drain read back clean.
	DrainErrs int `json:"drain_errors,omitempty"`
	// Gen is a session-monotonic snapshot sequence number: it increments
	// by exactly one per delivered snapshot, so a consumer can order
	// snapshots and invalidate caches (export.StatusServer's ETag
	// generations) without comparing every field.
	Gen uint64 `json:"gen"`
}

// SetProgress registers fn to observe the session's capture state: it
// fires on Arm and Disarm, on every drain-loop fill poll, and after every
// drain. The callback runs on the simulation goroutine between events —
// it must not re-enter the session, and anything it shares with other
// goroutines (an HTTP status server, say) must do its own locking. A nil
// fn unregisters.
func (s *Session) SetProgress(fn func(Progress)) { s.progress = fn }

// SetOnSegment registers fn to receive every drained segment of a
// continuous capture, immediately after it is appended to the segment
// store — including the final drain performed by Disarm. The callback
// runs on the simulation goroutine inside the drain (no virtual time
// passes during it) and must not re-enter the session. The segment's
// Capture.Records slice is owned by the segment store; a recycling
// session (DrainConfig.Recycle) has already surrendered it to the drain
// pool, so the callback sees Records nil there, exactly like
// Session.Segments does. This is the streaming tap the fleet ingest
// pipeline consumes: each machine's segments flow to a host-side ingest
// worker as they finish instead of being collected after disarm. The tap
// is the segments' consumer, so a session armed with one (and without
// Recycle) decodes nothing itself: Analyze runs the serial decode. A nil
// fn unregisters.
func (s *Session) SetOnSegment(fn func(Segment)) { s.onSegment = fn }

// notifyProgress delivers a snapshot to the registered callback.
func (s *Session) notifyProgress() {
	if s.progress == nil {
		return
	}
	p := Progress{
		NowUS:          s.M.K.Now().Micros(),
		Armed:          s.Card.Armed(),
		Mode:           s.mode,
		Stored:         s.Card.Stored(),
		Depth:          s.Card.Depth(),
		Overflowed:     s.Card.Overflowed(),
		Segments:       len(s.segments),
		SegmentRecords: s.segRecords,
		Dropped:        s.Card.Dropped + s.segDropped,
		DrainErrs:      s.drainErrs,
	}
	if p.Depth > 0 {
		p.FillPct = 100 * float64(p.Stored) / float64(p.Depth)
	}
	if s.injector != nil {
		p.FaultsInjected = s.injector.Stats().Injected()
	}
	s.progressGen++
	p.Gen = s.progressGen
	s.progress(p)
}

// NewSession instruments the machine's kernel per cfg, performs the
// two-stage link, and plugs the card into the EPROM socket.
func NewSession(m *Machine, cfg ProfileConfig) (*Session, error) {
	inst, err := instrument.Instrument(m.K, instrument.Options{
		Modules: cfg.Modules,
		Inlines: []string{"MGET"},
	})
	if err != nil {
		return nil, err
	}
	linked, err := inst.Link(instrument.Layout{KernelSize: kernelSize, EPROMPhys: epromPhys})
	if err != nil {
		return nil, err
	}
	card := hw.NewWithConfig(hw.Config{
		Depth:     cfg.Depth,
		ClockHz:   cfg.ClockHz,
		TimerBits: cfg.TimerBits,
	}, m.K.Now)
	socket := hw.NewEPROMSocket(epromPhys, card)
	// The kernel's trigger loads hit kernel-virtual addresses; the MMU
	// translation puts them on the ISA bus where the socket decodes them.
	m.K.SetTrigger(func(va uint32) {
		socket.Read(linked.VirtToPhys(va))
	})
	if addr, ok := inst.InlineAddr(linked, "MGET"); ok {
		m.Net.Pool().SetMGetInline(addr)
	}
	s := &Session{
		M: m, Card: card, Socket: socket, Inst: inst, Linked: linked, Tags: inst.Tags,
		mode: cfg.Mode, drain: cfg.Drain,
	}
	if cfg.Faults != nil {
		s.injector = faults.New(*cfg.Faults)
		card.SetFaultHook(s.injector)
	}
	if cfg.Mode == CaptureContinuous {
		if card.Depth() > hw.WindowSize {
			return nil, fmt.Errorf("core: continuous capture needs the RAM readable through the 64 KiB EPROM window; depth %d exceeds it", card.Depth())
		}
		if cfg.Drain.HighWater < 0 || cfg.Drain.HighWater > card.Depth() {
			return nil, fmt.Errorf("core: drain high-water mark %d outside the card's %d-record RAM", cfg.Drain.HighWater, card.Depth())
		}
		if cfg.Drain.Interval < 0 {
			return nil, fmt.Errorf("core: negative drain interval %v", cfg.Drain.Interval)
		}
	}
	return s, nil
}

// Arm flips the front-panel switch to begin capture. In continuous mode it
// also starts the drain loop: a periodic poll of the card's fill level that
// drains the RAM through the EPROM socket whenever the high-water mark is
// crossed, and, unless a SetOnSegment tap consumes the segments, the
// background decoder they stream into. An armed continuous session must
// be ended with Disarm or Reset: either joins that decoder, which
// otherwise stays blocked on its channel, holding its reconstruction.
func (s *Session) Arm() {
	s.Card.Arm()
	if s.mode == CaptureContinuous && s.drainEv == nil {
		s.scheduleDrainPoll()
	}
	// The background decoder starts on the first arm of a fresh capture
	// (nothing drained, nothing streamed) whose segments no tap consumes; a
	// re-arm after Disarm already consumed its stream, so later segments
	// fall back to the serial path (streamed checks the coverage).
	fresh := s.pipe == nil && s.pipedA == nil && len(s.segments) == 0
	if s.mode == CaptureContinuous && fresh && (s.drain.Recycle || s.onSegment == nil) {
		s.startPipe()
	}
	s.notifyProgress()
}

// Disarm stops capture. In continuous mode the drain loop stops and any
// remaining records (and the card's loss counters) are drained into a final
// segment, so nothing is left behind on the card.
func (s *Session) Disarm() {
	if s.drainEv != nil {
		s.M.K.Scheduler().Cancel(s.drainEv)
		s.drainEv = nil
	}
	if s.mode == CaptureContinuous {
		s.drainNow(false)
	}
	s.Card.Disarm()
	s.finishPipe()
	s.notifyProgress()
}

// Reset clears the card — and, in continuous mode, the host-side segment
// store — for a fresh run. It joins the background decoder of a session
// still armed and drops its analysis.
func (s *Session) Reset() {
	s.finishPipe()
	s.Card.Reset()
	s.segments = nil
	s.segRecords, s.segDropped = 0, 0
	s.drainErr = nil
	s.drainErrs = 0
	s.pipedA = nil
	s.pipedSegs = 0
}

// FaultStats reports the attached fault injector's statistics; ok is false
// when the session runs on pristine hardware.
func (s *Session) FaultStats() (stats faults.Stats, ok bool) {
	if s.injector == nil {
		return faults.Stats{}, false
	}
	return s.injector.Stats(), true
}

// Segments reports the host-side segment store: the drained slices of a
// continuous capture, in drain order.
func (s *Session) Segments() []Segment { return s.segments }

// DrainErr reports the first drain failure, if any — a readout whose
// open-bus verify caught glitched addressing (hw.ErrReadoutVerify). The
// drain loop survives it: the card is reset and re-armed, and the stranded
// bank is accounted as dropped strobes on an empty segment, so a non-nil
// value means the capture has a lossy (but honestly reported) hole, not
// that it stalled. Later failures are suppressed behind the first; DrainErrs
// counts them all.
func (s *Session) DrainErr() error { return s.drainErr }

// DrainErrs reports how many drains failed readout in total. Only the first
// failure's error is retained (DrainErr); the remaining DrainErrs-1 were
// suppressed, but every one of them left a zero-record segment carrying its
// stranded bank's drop count, so no loss is silent.
func (s *Session) DrainErrs() int { return s.drainErrs }

// decodePipe couples a continuous session's drain loop to a background
// reconstructor: drained segments travel through a bounded channel of
// record batches and are decoded while the simulation runs on. The worker
// owns the reconstructor until done closes; the main goroutine only sends
// batches and, after done, finishes the reconstructor — so the two sides
// never share mutable state. The records themselves are shared read-only:
// nothing writes a drained record after its drain.
type decodePipe struct {
	ch   chan pipeBatch
	done chan struct{}
	rc   *analyze.Reconstructor
	// free recycles drained readout buffers under DrainConfig.Recycle
	// (nil otherwise): the worker returns a batch's buffer here once the
	// reconstructor has consumed its records, and the next drain reads
	// the card out into it. The channel handoff is the synchronization —
	// a buffer is never touched by both sides at once.
	free chan *hw.ReadoutBuffer
}

// pipeBatch is one drained segment in flight: the records and the loss at
// its end boundary. buf is the pooled readout buffer the records live in,
// returned to the pipe's free pool after consumption; it is nil when the
// segment store keeps the records, and on a stranded segment, whose
// buffer the failed drain already returned.
type pipeBatch struct {
	records    []hw.Record
	dropped    uint64
	overflowed bool
	buf        *hw.ReadoutBuffer
}

// startPipe launches the background decoder of a continuous capture: a
// lean one under DrainConfig.Recycle, a folding one otherwise.
func (s *Session) startPipe() {
	p := &decodePipe{
		ch:   make(chan pipeBatch, recycleDepth),
		done: make(chan struct{}),
		rc: analyze.NewReconstructor(s.Card.Config(), s.Tags, analyze.ReconstructOptions{
			DiscardTrace: s.drain.Recycle,
			Repair:       analyze.DefaultRepair(),
		}),
	}
	if s.drain.Recycle {
		// One buffer per in-flight batch plus the one being drained into.
		p.free = make(chan *hw.ReadoutBuffer, recycleDepth+1)
	}
	go func() {
		defer close(p.done)
		for b := range p.ch {
			p.rc.PushBatch(b.records)
			p.rc.EndSegment(b.dropped, b.overflowed)
			if b.buf != nil {
				select {
				case p.free <- b.buf:
				default: // pool full; let the buffer go
				}
			}
		}
	}()
	s.pipe = p
}

// finishPipe closes the batch channel, waits for the background decoder to
// consume it, finishes the books, and parks the result for Analyze and
// AnalyzeLean. A folding decoder's result gets Stitch's lazy trace over
// the segments it streamed.
func (s *Session) finishPipe() {
	p := s.pipe
	if p == nil {
		return
	}
	s.pipe = nil
	close(p.ch)
	<-p.done
	s.pipedSegs = len(s.segments)
	if s.drain.Recycle {
		s.pipedA = p.rc.Finish(false, 0)
		return
	}
	s.pipedA = p.rc.FinishStitch(s.stitchList())
}

// highWater reports the effective drain threshold.
func (s *Session) highWater() int {
	if s.drain.HighWater > 0 {
		return s.drain.HighWater
	}
	return s.Card.Depth() * 3 / 4
}

// drainInterval reports the effective fill-level poll period.
func (s *Session) drainInterval() sim.Time {
	if s.drain.Interval > 0 {
		return s.drain.Interval
	}
	return DefaultDrainInterval
}

// scheduleDrainPoll arms the next fill-level check on the machine's event
// scheduler. The callback runs between simulation events — a safe point:
// no kernel code is mid-trigger, and no virtual time passes while the
// host reads the card out. The poll closure and its event are allocated
// once per session and re-armed in place each interval.
func (s *Session) scheduleDrainPoll() {
	if s.drainPollFn == nil {
		s.drainPollFn = func() {
			if s.Card.Stored() >= s.highWater() || s.Card.Overflowed() {
				s.drainNow(true)
			}
			s.notifyProgress()
			s.scheduleDrainPoll()
		}
	}
	sched := s.M.K.Scheduler()
	if s.drainEv != nil && !s.drainEv.Scheduled() {
		sched.Reschedule(s.drainEv, sched.Now()+s.drainInterval())
		return
	}
	s.drainEv = sched.After(s.drainInterval(), s.drainPollFn)
}

// drainNow performs one drain: pause capture, fast-read the RAM bank by
// bank through the EPROM socket, append the result to the segment store,
// reset the card, and (between polls, not at the final drain) re-arm. The
// whole cycle is atomic in virtual time; a real host would pause the
// workload for the microseconds the readout takes.
func (s *Session) drainNow(rearm bool) {
	if s.Card.Stored() == 0 && s.Card.Dropped == 0 {
		return // nothing captured and nothing lost since the last drain
	}
	// A recycling drain reads the card out into a pooled buffer; the pipe
	// worker hands the buffer back once the decoder has consumed it. Any
	// other drain reads into fresh storage, which the segment store keeps
	// and the decoder reads.
	var buf *hw.ReadoutBuffer
	if s.pipe != nil && s.pipe.free != nil {
		select {
		case buf = <-s.pipe.free:
		default:
			buf = new(hw.ReadoutBuffer)
		}
	}
	c, err := hw.ReadoutViaSocketInto(s.Socket, s.Card.Stored(), buf)
	if err != nil {
		// The bank is unreadable — a glitched readout. Its records are
		// gone, but the loss must be loud and capture must go on: account
		// every stranded strobe as dropped on an empty (force-closed)
		// segment, keep the first error and count the rest, and fall
		// through to the same reset + re-arm a successful drain performs.
		// Returning early here would leave the card full and disarmed,
		// silently stalling capture for the rest of the run.
		s.drainErrs++
		if s.drainErr == nil {
			s.drainErr = err
		}
		c = s.Card.StrandedCapture()
		if buf != nil {
			// Nothing to consume; the buffer goes straight back.
			select {
			case s.pipe.free <- buf:
			default:
			}
			buf = nil
		}
	}
	seg := Segment{Capture: c, DrainedAt: s.M.K.Now(), Records: c.Len()}
	if buf != nil {
		// The buffer (and the records in it) belongs to the pipe now;
		// the segment store keeps only the loss metadata.
		seg.Capture.Records = nil
		seg.Recycled = true
	}
	s.segments = append(s.segments, seg)
	s.segRecords += seg.Records
	s.segDropped += seg.Capture.Dropped
	if s.onSegment != nil {
		s.onSegment(seg)
	}
	if s.pipe != nil {
		// Hand the segment to the background decoder. The send blocks only
		// when recycleDepth segments are already in flight — the bounded
		// channel is the pipeline's backpressure.
		s.pipe.ch <- pipeBatch{records: c.Records, dropped: c.Dropped, overflowed: c.Overflowed, buf: buf}
	}
	s.Card.Reset()
	if rearm {
		s.Card.Arm()
	}
}

// Capture pulls the battery-backed RAMs: the raw event list.
func (s *Session) Capture() hw.Capture { return s.Card.Dump() }

// stitchList assembles the full capture sequence of a continuous run: the
// drained segments plus whatever is still on the card (a Disarm leaves the
// card empty, but callers may analyze mid-run). Nil when nothing was ever
// drained — the one-shot case.
func (s *Session) stitchList() []hw.Capture {
	if len(s.segments) == 0 {
		return nil
	}
	caps := make([]hw.Capture, 0, len(s.segments)+1)
	for _, seg := range s.segments {
		caps = append(caps, seg.Capture)
	}
	if s.Card.Stored() > 0 || s.Card.Dropped > 0 {
		caps = append(caps, s.Card.Dump())
	}
	return caps
}

// requireResident panics when any drained segment's records went back to
// the readout pool: a recycling session (DrainConfig.Recycle) traded the
// raw records for bounded memory, so re-decoding them is a contract
// violation, not an empty analysis.
func (s *Session) requireResident(op string) {
	for _, seg := range s.segments {
		if seg.Recycled {
			panic("core: " + op + " needs the drained records, but DrainConfig.Recycle returned them to the readout pool; only the streamed AnalyzeLean result is available")
		}
	}
}

// streamed returns the background decoder's analysis when it covers the
// whole capture: every drained segment went through the pipe, and nothing
// is left on the card. Otherwise (mid-run, after a re-arm, or with no
// decoder) it returns nil.
func (s *Session) streamed() *analyze.Analysis {
	if s.pipedA != nil && s.pipedSegs == len(s.segments) &&
		s.Card.Stored() == 0 && s.Card.Dropped == 0 {
		return s.pipedA
	}
	return nil
}

// Analyze decodes and reconstructs the current capture through the hardened
// pipeline (timestamp repair on — see analyze.RepairConfig; clean captures
// decode identically either way). A continuous run's drained segments are
// stitched back into one timeline, with per-boundary losses reported on
// Analysis.Segments. The result keeps the trace timeline and invocation
// trees every report and exporter reads; the trace is built from the
// records on the first Items call.
//
// An untapped continuous session decodes each segment in the background as
// it drains, so once Disarm has joined that decoder the analysis is
// ready: Analyze returns it, identical to stitching the retained segments,
// and repeated calls return the same *Analysis. Any analysis the stream
// does not cover (one-shot, mid-run, after a re-arm, or a session tapped
// through SetOnSegment) is decoded serially on each call.
func (s *Session) Analyze() *analyze.Analysis {
	s.requireResident("Analyze")
	if a := s.streamed(); a != nil && !s.drain.Recycle {
		return a
	}
	opts := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
	if caps := s.stitchList(); caps != nil {
		return analyze.Stitch(caps, s.Tags, opts)
	}
	return analyze.ReconstructCapture(s.Capture(), s.Tags, opts)
}

// AnalyzeLean decodes the card's RAM in place — streaming each record into
// the reconstructor — and discards the trace timeline. The resulting
// Analysis carries the per-function statistics and idle accounting only,
// so a sweep worker never holds a copy of the 16384-entry bank list
// alongside its report. Drained segments go through analyze.Stitch's lean
// loop over the segment store the worker already paid for (plus, mid-run,
// a copy of the bank still on the card).
//
// When the background decoder's analysis covers the whole capture (see
// Analyze), AnalyzeLean returns it instead, and repeated calls return the
// same *Analysis: lean under DrainConfig.Recycle, otherwise the full
// analysis Analyze returns, whose statistics are the same.
func (s *Session) AnalyzeLean() *analyze.Analysis {
	if a := s.streamed(); a != nil {
		return a
	}
	s.requireResident("AnalyzeLean")
	opts := analyze.ReconstructOptions{DiscardTrace: true, Repair: analyze.DefaultRepair()}
	if caps := s.stitchList(); caps != nil {
		return analyze.Stitch(caps, s.Tags, opts)
	}
	rc := analyze.NewReconstructor(s.Card.Config(), s.Tags, opts)
	rc.PushBatch(s.Card.Records())
	return rc.Finish(s.Card.Overflowed(), s.Card.Dropped)
}

// ModuleOf maps function names to their kernel module, for subsystem
// grouping of analysis results.
func (m *Machine) ModuleOf() map[string]string {
	out := make(map[string]string)
	for _, fn := range m.K.Functions() {
		out[fn.Name] = fn.Module
	}
	return out
}

// SubsystemOf maps function names to coarse subsystems (net, fs, vm, mem,
// kern, dev) for the grouping report.
func (m *Machine) SubsystemOf() map[string]string {
	coarse := map[string]string{
		"if_we": "netdev", "ip_input": "net", "ip_output": "net",
		"in_cksum": "net", "in_pcb": "net", "tcp_input": "net",
		"tcp_output": "net", "udp_usrreq": "net", "uipc_socket": "net",
		"uipc_socket2": "net", "nfs_socket": "nfs",
		"wd": "disk", "vfs_bio": "fs", "ufs_vnops": "fs",
		"ffs_alloc": "fs", "vfs_lookup": "fs", "ufs_lookup": "fs",
		"ufs_inode": "fs",
		"vm_fault":  "vm", "vm_page": "vm", "vm_map": "vm", "pmap": "vm",
		"vm_kern": "vm", "kern_malloc": "mem",
		"locore": "kern", "kern_synch": "kern", "kern_clock": "kern",
		"trap": "kern", "kern_descrip": "kern",
	}
	out := make(map[string]string)
	for _, fn := range m.K.Functions() {
		if g, ok := coarse[fn.Module]; ok {
			out[fn.Name] = g
		} else {
			out[fn.Name] = fn.Module
		}
	}
	return out
}

func (s *Session) String() string {
	return fmt.Sprintf("session(%d fns instrumented, ProfileBase=%#x, %d/%d records)",
		s.Inst.Functions(), s.Linked.ProfileBase, s.Card.Stored(), s.Card.Depth())
}

// NewEmbeddedMachine boots the paper's first case-study platform: the
// Megadata 68020 embedded board running a kernel with the 4.3BSD Tahoe
// networking code. The 68020 has real multi-priority interrupt levels
// (cheap spl*), the Tahoe stack carries the assembler in_cksum, the
// Ethernet controller DMAs into shared memory, and with no MMU there is no
// user/kernel boundary — application code traces straight into the kernel.
func NewEmbeddedMachine(cfg kernel.Config, style netstack.DriverStyle) (*Machine, *netstack.LE) {
	cfg.Arch = kernel.ArchM68K
	k := kernel.New(cfg)
	alloc := mem.Attach(k)
	m := &Machine{
		K:     k,
		Alloc: alloc,
		Net:   netstack.Attach(k, alloc),
		Aux:   make(map[string]any),
	}
	le := netstack.NewLE(m.Net, style)
	m.Net.SetOutputDevice(le)
	// Tahoe's in_cksum is the assembler version.
	m.Net.CksumMode = netstack.CksumOptimized
	k.StartClock()
	return m, le
}
