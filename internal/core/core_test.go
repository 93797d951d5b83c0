package core

import (
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
)

func TestSessionSetup(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	s, err := NewSession(m, ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Inst.Functions() < 60 {
		t.Fatalf("only %d functions instrumented", s.Inst.Functions())
	}
	if s.Inst.AsmFunctions == 0 {
		t.Fatal("no assembler routines instrumented")
	}
	// swtch is marked '!' in the tag file.
	e, ok := s.Tags.Lookup("swtch")
	if !ok || !e.ContextSwitch {
		t.Fatalf("swtch entry = %+v ok=%v", e, ok)
	}
	// MGET inline tag allocated.
	e, ok = s.Tags.Lookup("MGET")
	if !ok || !e.Inline {
		t.Fatalf("MGET entry = %+v ok=%v", e, ok)
	}
	// ProfileBase is a kernel-virtual ISA address above the kernel image.
	if s.Linked.ProfileBase < 0xFE000000 {
		t.Fatalf("ProfileBase = %#x", s.Linked.ProfileBase)
	}
	if s.Socket.Base() != 0xD0000 {
		t.Fatalf("socket base = %#x", s.Socket.Base())
	}
}

func TestTriggersReachCardThroughSocket(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	s, err := NewSession(m, ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	// Run a little kernel activity in process context.
	m.K.Spawn("worker", func(p *kernel.Proc) {
		m.K.Syscall(p, func() {
			blk := m.Alloc.Malloc(512)
			m.Alloc.Free(blk)
		})
	})
	m.K.Run(50 * sim.Millisecond)
	s.Disarm()
	c := s.Capture()
	if c.Len() == 0 {
		t.Fatal("no events captured")
	}
	a := s.Analyze()
	if _, ok := a.Fn("malloc"); !ok {
		t.Fatalf("malloc not in analysis; functions: %d", len(a.Functions()))
	}
	if _, ok := a.Fn("hardclock"); !ok {
		t.Fatal("clock interrupt not captured")
	}
}

func TestSelectiveProfiling(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	s, err := NewSession(m, ProfileConfig{Modules: []string{"kern_malloc"}})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	m.K.Spawn("worker", func(p *kernel.Proc) {
		blk := m.Alloc.Malloc(512)
		m.Alloc.Free(blk)
	})
	m.K.Run(30 * sim.Millisecond)
	a := s.Analyze()
	if _, ok := a.Fn("malloc"); !ok {
		t.Fatal("selected module not profiled")
	}
	if _, ok := a.Fn("hardclock"); ok {
		t.Fatal("unselected module leaked into the capture")
	}
}

// An unplugged card takes the bus read away and nothing else: every
// trigger instruction still executes and costs its time. A one-shot run
// detached ends at the same virtual time, with the same kernel counters,
// as the run with the card attached, and the card stores nothing. Plugged
// back in, it captures again.
func TestDetachKeepsTriggerCostOnly(t *testing.T) {
	run := func(detach bool) (*Machine, *Session, sim.Time) {
		m := NewMachine(kernel.Config{Seed: 1})
		s, err := NewSession(m, ProfileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		if detach {
			s.Detach()
		}
		m.K.Spawn("worker", func(p *kernel.Proc) {
			for i := 0; i < 50; i++ {
				m.K.Syscall(p, func() {
					blk := m.Alloc.Malloc(256)
					m.Alloc.Free(blk)
					m.K.Advance(100 * sim.Microsecond)
				})
				p.Yield()
			}
		})
		return m, s, m.K.RunUntilIdle(time500ms)
	}
	am, as, attachedEnd := run(false)
	dm, ds, detachedEnd := run(true)
	if as.Card.Stored() == 0 {
		t.Fatal("attached card captured nothing")
	}
	if ds.Card.Stored() != 0 {
		t.Fatalf("detached card stored %d events", ds.Card.Stored())
	}
	if detachedEnd != attachedEnd {
		t.Fatalf("detached run ended at %v, attached at %v: the trigger instructions' time went missing", detachedEnd, attachedEnd)
	}
	if dm.K.Stats != am.K.Stats {
		t.Fatalf("detached kernel stats %+v, attached %+v", dm.K.Stats, am.K.Stats)
	}

	ds.Reattach()
	dm.K.Spawn("worker2", func(p *kernel.Proc) {
		dm.K.Syscall(p, func() { dm.K.Advance(sim.Millisecond) })
	})
	dm.K.Run(dm.K.Now() + 20*sim.Millisecond)
	if ds.Card.Stored() == 0 {
		t.Fatal("reattached card captured nothing")
	}
}

func TestAnalysisSurvivesCardOverflow(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	s, err := NewSession(m, ProfileConfig{Depth: 256})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	m.K.Spawn("worker", func(p *kernel.Proc) {
		for i := 0; i < 200; i++ {
			m.K.Syscall(p, func() {
				blk := m.Alloc.Malloc(256)
				m.Alloc.Free(blk)
			})
			p.Yield()
		}
	})
	m.K.Run(time500ms)
	if !s.Card.Overflowed() {
		t.Fatal("card should have overflowed")
	}
	a := s.Analyze()
	if !a.Stats.Overflowed {
		t.Fatal("overflow not propagated")
	}
	// The analysis still produces sane numbers from the truncated head.
	if len(a.Functions()) == 0 || a.Elapsed() <= 0 {
		t.Fatal("no analysis from overflowed capture")
	}
}

const time500ms = 500 * sim.Millisecond

func TestSubsystemMaps(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	mods := m.ModuleOf()
	if mods["tcp_input"] != "tcp_input" || mods["malloc"] != "kern_malloc" {
		t.Fatalf("ModuleOf: %v %v", mods["tcp_input"], mods["malloc"])
	}
	subs := m.SubsystemOf()
	if subs["tcp_input"] != "net" || subs["pmap_pte"] != "vm" || subs["bread"] != "fs" {
		t.Fatalf("SubsystemOf: tcp=%v pmap=%v bread=%v", subs["tcp_input"], subs["pmap_pte"], subs["bread"])
	}
}

func TestSessionString(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	s, err := NewSession(m, ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "ProfileBase") {
		t.Fatalf("String: %s", s)
	}
}

func TestNFSLazyAttach(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	c1, err := m.NFS()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.NFS()
	if err != nil || c1 != c2 {
		t.Fatal("NFS client not cached")
	}
}

// mallocStorm spawns a worker that generates records well past a small
// card's RAM depth: iters syscalls each doing a malloc/free pair.
func mallocStorm(m *Machine, iters int) {
	m.K.Spawn("storm", func(p *kernel.Proc) {
		for i := 0; i < iters; i++ {
			m.K.Syscall(p, func() {
				blk := m.Alloc.Malloc(256)
				m.Alloc.Free(blk)
			})
			p.Yield()
		}
	})
}

// The tentpole: a continuous-capture session drains the card before it
// overflows, so a workload generating many times the RAM depth loses
// nothing — every record lands in some host-side segment.
func TestContinuousCaptureOutrunsRAM(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 9})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	mallocStorm(m, 400)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected multiple drain segments, got %d", len(segs))
	}
	total := 0
	var lost uint64
	for _, seg := range segs {
		total += seg.Capture.Len()
		lost += seg.Capture.Dropped
	}
	if total < 10*256 {
		t.Fatalf("captured %d records, want >= 10x the 256-entry RAM", total)
	}
	if lost != 0 {
		t.Fatalf("%d strobes lost despite drains", lost)
	}
	if s.Card.Stored() != 0 {
		t.Fatalf("%d records left on the card after Disarm", s.Card.Stored())
	}
	a := s.Analyze()
	if len(a.Segments) != len(segs) {
		t.Fatalf("analysis has %d segments, session drained %d", len(a.Segments), len(segs))
	}
	if a.Stats.Records != total {
		t.Fatalf("analysis decoded %d records, segments hold %d", a.Stats.Records, total)
	}
	if a.Stats.Dropped != 0 || a.Stats.Overflowed {
		t.Fatalf("loss reported on a lossless run: dropped=%d overflowed=%v",
			a.Stats.Dropped, a.Stats.Overflowed)
	}
	if _, ok := a.Fn("malloc"); !ok {
		t.Fatal("malloc missing from stitched analysis")
	}
}

// A drained run and a one-shot run of the same seeded workload must produce
// identical per-function summaries: the drain pipeline may not perturb the
// simulation, and stitching a losslessly segmented capture is exact.
func TestDrainedAnalysisMatchesOneShot(t *testing.T) {
	run := func(cfg ProfileConfig) (*Session, *analyze.Analysis) {
		m := NewMachine(kernel.Config{Seed: 11})
		s, err := NewSession(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		mallocStorm(m, 300)
		m.K.Run(2 * sim.Second)
		s.Disarm()
		return s, s.Analyze()
	}
	// One-shot with the full-size RAM: nothing overflows.
	sOne, one := run(ProfileConfig{})
	if one.Stats.Overflowed {
		t.Fatal("one-shot reference overflowed; shrink the workload")
	}
	// Continuous with a RAM 1/64 the size.
	sCont, cont := run(ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
	})
	if err := sCont.DrainErr(); err != nil {
		t.Fatal(err)
	}
	if cont.Stats.Dropped != 0 {
		t.Fatalf("continuous run lost %d strobes; tighten the drain config", cont.Stats.Dropped)
	}
	if len(sCont.Segments()) < 2 {
		t.Fatalf("continuous run drained only %d segments", len(sCont.Segments()))
	}
	if got, want := cont.SummaryString(0), one.SummaryString(0); got != want {
		t.Fatalf("stitched summary differs from one-shot:\n--- one-shot\n%s--- stitched\n%s", want, got)
	}
	// The lean path agrees with a serial lean Stitch of the retained
	// segments, and with the full path segment for segment.
	lean := sCont.AnalyzeLean()
	matchesStitch(t, "lean", lean, sCont)
	if got, want := lean.SummaryString(0), cont.SummaryString(0); got != want {
		t.Fatalf("lean stitched summary differs:\n--- full\n%s--- lean\n%s", want, got)
	}
	if len(lean.Segments) != len(cont.Segments) {
		t.Fatalf("lean %d segments, full %d", len(lean.Segments), len(cont.Segments))
	}
	_ = sOne
}

// When drains cannot keep up (a poll interval far too long), records are
// lost — but the loss is *accounted*: each segment reports its dropped
// strobes and the stitched totals match the card's counters.
func TestContinuousCaptureReportsLoss(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 9})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{Interval: 100 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	mallocStorm(m, 400)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	segs := s.Segments()
	if len(segs) == 0 {
		t.Fatal("no segments drained")
	}
	var lost uint64
	for _, seg := range segs {
		lost += seg.Capture.Dropped
	}
	if lost == 0 {
		t.Fatal("expected losses with a 100ms poll on a 256-entry card")
	}
	a := s.Analyze()
	if a.Stats.Dropped != lost {
		t.Fatalf("analysis reports %d dropped, segments recorded %d", a.Stats.Dropped, lost)
	}
	if !a.Stats.Overflowed {
		t.Fatal("overflow flag lost in stitching")
	}
	forced := 0
	for _, seg := range a.Segments {
		forced += seg.ForceClosed
	}
	if forced == 0 {
		t.Fatal("lossy boundaries force-closed no frames")
	}
	if a.Recovered < forced {
		t.Fatalf("Recovered=%d < force-closed=%d", a.Recovered, forced)
	}
}

// Continuous-mode configuration errors are caught at session setup, not at
// the first drain.
func TestContinuousConfigValidation(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 1})
	if _, err := NewSession(m, ProfileConfig{Mode: CaptureContinuous, Depth: 2 * hw.WindowSize}); err == nil {
		t.Fatal("depth beyond the EPROM window accepted")
	}
	if _, err := NewSession(m, ProfileConfig{Mode: CaptureContinuous, Drain: DrainConfig{HighWater: 99999}}); err == nil {
		t.Fatal("high-water above depth accepted")
	}
	if _, err := NewSession(m, ProfileConfig{Mode: CaptureContinuous, Drain: DrainConfig{Interval: -1}}); err == nil {
		t.Fatal("negative interval accepted")
	}
	// Session.Reset clears the segment store for a fresh run.
	s, err := NewSession(m, ProfileConfig{
		Mode: CaptureContinuous, Depth: 256,
		Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	mallocStorm(m, 100)
	m.K.Run(sim.Second)
	s.Disarm()
	if len(s.Segments()) == 0 {
		t.Fatal("no segments before reset")
	}
	s.Reset()
	if len(s.Segments()) != 0 {
		t.Fatal("Reset left segments behind")
	}
}

// The future-work fast readout: pull the capture back through the EPROM
// window instead of unsocketing the RAMs, and get an identical analysis.
func TestReadoutViaSocketMatchesDirectDump(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 4})
	s, err := NewSession(m, ProfileConfig{Depth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	m.K.Spawn("worker", func(p *kernel.Proc) {
		for i := 0; i < 10; i++ {
			m.K.Syscall(p, func() {
				blk := m.Alloc.Malloc(128)
				m.Alloc.Free(blk)
			})
			p.Yield()
		}
	})
	m.K.Run(200 * sim.Millisecond)
	s.Disarm()

	direct := s.Capture()
	viaSocket, err := hw.ReadoutViaSocketInto(s.Socket, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaSocket.Len() != direct.Len() {
		t.Fatalf("readout %d records, direct %d", viaSocket.Len(), direct.Len())
	}
	a1 := s.Analyze()
	a2 := analyze.ReconstructCapture(viaSocket, s.Tags, analyze.ReconstructOptions{})
	if a1.SummaryString(0) != a2.SummaryString(0) {
		t.Fatal("readout analysis differs from direct dump")
	}
	// And the card still latches normally afterwards.
	s.Arm()
	before := s.Card.Stored()
	m.K.Spawn("again", func(p *kernel.Proc) {
		m.K.Syscall(p, func() { m.K.Advance(sim.Microsecond) })
	})
	m.K.Run(m.K.Now() + 50*sim.Millisecond)
	if s.Card.Stored() == before {
		t.Fatal("card dead after readout")
	}
}

// The pipelined decoder (readout overlapping decode on a background
// goroutine, which every untapped continuous session runs) must be
// invisible in the output: a recycling and a record-retaining continuous
// run yield a summary and segment accounting byte-identical to each other
// and to a serial Stitch of the retained records over the same seeded
// workload.
func TestPipelinedDecodeMatchesSerial(t *testing.T) {
	run := func(pipeline bool) (*Session, *analyze.Analysis) {
		s := runForRecycle(t, pipeline)
		if err := s.DrainErr(); err != nil {
			t.Fatal(err)
		}
		return s, s.AnalyzeLean()
	}
	sSer, serial := run(false)
	sPipe, piped := run(true)
	matchesStitch(t, "retained", serial, sSer)
	matchesStitch(t, "recycled", piped, sSer)
	if len(sPipe.Segments()) < 2 {
		t.Fatalf("pipelined run drained only %d segments", len(sPipe.Segments()))
	}
	if len(sSer.Segments()) != len(sPipe.Segments()) {
		t.Fatalf("segment counts differ: serial %d, pipelined %d",
			len(sSer.Segments()), len(sPipe.Segments()))
	}
	if got, want := piped.SummaryString(0), serial.SummaryString(0); got != want {
		t.Fatalf("pipelined summary differs from serial:\n--- serial\n%s--- pipelined\n%s", want, got)
	}
	if len(piped.Segments) != len(serial.Segments) {
		t.Fatalf("analysis segments differ: serial %d, pipelined %d",
			len(serial.Segments), len(piped.Segments))
	}
	for i := range piped.Segments {
		if piped.Segments[i] != serial.Segments[i] {
			t.Fatalf("segment %d differs: serial %+v, pipelined %+v",
				i, serial.Segments[i], piped.Segments[i])
		}
	}
	if piped.Stats != serial.Stats {
		t.Fatalf("stats differ: serial %+v, pipelined %+v", serial.Stats, piped.Stats)
	}
	// The pipelined result really is the background decoder's work, not a
	// serial re-decode: a second AnalyzeLean returns the identical object.
	if sPipe.AnalyzeLean() != piped {
		t.Fatal("pipelined analysis not cached")
	}
}

// Analyzing while armed ("what has the profile seen so far?") stitches the
// drained segments plus a live dump of the card's partial bank. The
// observation must be read-only: the mid-run view holds exactly the
// records captured so far (every drained segment and the live tail, each
// once), and it perturbs neither the drain-and-stitch pipeline nor the
// simulation, so the finished capture analyzes byte-identically to an
// unobserved run of the same seed.
//
// The first observation comes right after the first drain, while the
// background decoder is on its first batch and the batch channel has not
// yet ordered anything it did before this goroutine. The mid-run Stitch
// reads the tag file beside it, so under the race detector this case holds
// the decoder to reading only what the session built before it started.
func TestMidRunAnalyzePipelineEquivalence(t *testing.T) {
	run := func(observeAt sim.Time, observe bool) (*Session, *analyze.Analysis) {
		m := NewMachine(kernel.Config{Seed: 11})
		s, err := NewSession(m, ProfileConfig{
			Mode:  CaptureContinuous,
			Depth: 256,
			Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Arm()
		mallocStorm(m, 300)
		m.K.Run(observeAt)
		if observe {
			// Mid-run observation: still armed, some segments drained, a
			// partial bank live on the card.
			if len(s.Segments()) == 0 || s.Card.Stored() == 0 {
				t.Fatalf("at %v: %d segments drained, %d records live; want both", observeAt, len(s.Segments()), s.Card.Stored())
			}
			if observeAt == sim.Millisecond && len(s.Segments()) > 2 {
				t.Fatalf("at %v: %d segments drained; the case wants the first or second drain", observeAt, len(s.Segments()))
			}
			seen := s.Card.Stored()
			for _, seg := range s.Segments() {
				seen += seg.Records
			}
			mid := s.Analyze()
			if mid.Stats.Records != seen {
				t.Fatalf("at %v: mid-run analysis decoded %d records, %d captured so far", observeAt, mid.Stats.Records, seen)
			}
			// The stream does not cover a mid-run capture, so the lean
			// path decodes serially too, and agrees with the full one.
			lean := s.AnalyzeLean()
			if got, want := lean.SummaryString(0), mid.SummaryString(0); got != want {
				t.Fatalf("at %v: mid-run lean summary differs:\n--- full\n%s--- lean\n%s", observeAt, want, got)
			}
			if lean.Stats != mid.Stats || lean.SegmentsString() != mid.SegmentsString() {
				t.Fatalf("at %v: mid-run lean analysis differs: full %+v, lean %+v", observeAt, mid.Stats, lean.Stats)
			}
		}
		m.K.Run(2 * sim.Second)
		s.Disarm()
		if err := s.DrainErr(); err != nil {
			t.Fatal(err)
		}
		return s, s.Analyze()
	}
	for _, observeAt := range []sim.Time{sim.Millisecond, sim.Second} {
		sPlain, plain := run(observeAt, false)
		sObs, observed := run(observeAt, true)

		if len(sObs.Segments()) != len(sPlain.Segments()) {
			t.Fatalf("at %v: segment counts differ: unobserved %d, observed %d", observeAt, len(sPlain.Segments()), len(sObs.Segments()))
		}
		if got, want := observed.SummaryString(0), plain.SummaryString(0); got != want {
			t.Fatalf("at %v: final summary differs after a mid-run analyze:\n--- unobserved\n%s--- observed\n%s", observeAt, want, got)
		}
		if observed.Stats != plain.Stats {
			t.Fatalf("at %v: final stats differ: unobserved %+v, observed %+v", observeAt, plain.Stats, observed.Stats)
		}
		if got, want := observed.SegmentsString(), plain.SegmentsString(); got != want {
			t.Fatalf("at %v: segment tables differ:\n--- unobserved\n%s--- observed\n%s", observeAt, want, got)
		}
	}
}

// TestProgressGenMonotonic: every delivered progress snapshot carries the
// session's Gen sequence number, incrementing by exactly one per
// delivery starting at 1 — the serving tier keys cache invalidation and
// SSE event identity off it, so two equal Gens must always be the same
// snapshot.
func TestProgressGenMonotonic(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 5})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	s.SetProgress(func(p Progress) { gens = append(gens, p.Gen) })
	s.Arm()
	mallocStorm(m, 200)
	m.K.Run(1 * sim.Second)
	s.Disarm()
	if len(gens) < 3 {
		t.Fatalf("only %d progress deliveries; the run should drain repeatedly", len(gens))
	}
	for i, g := range gens {
		if g != uint64(i+1) {
			t.Fatalf("delivery %d carried gen %d, want %d (dense, monotonic, starting at 1)", i, g, i+1)
		}
	}
}
