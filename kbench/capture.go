package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
	"unsafe"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/workload"
)

// summaryTop is cmd/kprof's default -top.
const summaryTop = 20

// recordBytes is the host size of one drained card record.
const recordBytes = int(unsafe.Sizeof(hw.Record{}))

// captureRunner runs one drained single-machine capture per repeat: the
// calls `kprof -scenario S -drain -duration D` makes, plus -pprof F when
// pprofPath is set and the -http wiring when live is set.
type captureRunner struct {
	sc        workload.Scenario
	params    workload.Params
	seed      uint64
	pprofPath string
	live      *liveServer
}

// rep runs the workload once on a fresh machine. The untraced repeat
// times only setup and Arm to last output byte; a traced repeat also
// records the span of each layer call and, after the end-to-end window
// closes, the off-path figures (uninstrumented kernel, lean decode, card
// readout).
func (c *captureRunner) rep(traced bool) (*rep, error) {
	r := &rep{Traced: traced, Layers: make(map[string]float64)}
	t0 := time.Now()
	if c.live != nil {
		c.live.srv.SetState("running")
	}
	m := core.NewMachine(kernel.Config{Seed: c.seed})
	if c.sc.Setup != nil {
		if err := c.sc.Setup(m, c.params); err != nil {
			return nil, fmt.Errorf("%s setup: %w", c.sc.Name, err)
		}
	}
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	var hooks hookTimer
	var hub0 export.HubStats
	if c.live != nil {
		if traced {
			s.SetProgress(hooks.wrap(c.live.srv.OnSessionProgress))
			hub0 = c.live.srv.HubStats()
		} else {
			s.SetProgress(c.live.srv.OnSessionProgress)
		}
	}
	r.Setup = time.Since(t0)

	if c.live != nil {
		c.live.startClient()
	}
	var stdout bytes.Buffer
	tArm := time.Now()
	s.Arm()
	line, runErr := c.sc.Run(m, c.params)
	fmt.Fprintf(&stdout, "%s\n\n", line)
	s.Disarm()
	tDisarm := time.Now()
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	tA0 := time.Now()
	a := s.Analyze()
	tA1 := time.Now()
	if traced {
		runtime.ReadMemStats(&ms1)
	}
	tS0 := time.Now()
	sumErr := a.WriteSummary(&stdout, summaryTop)
	tS1 := time.Now()
	var pprofErr error
	if c.pprofPath != "" {
		pprofErr = writePprof(c.pprofPath, a)
	}
	tP1 := time.Now()
	if c.live != nil {
		c.live.srv.PublishAnalysis(a)
		c.live.srv.SetState("done")
	}
	tEnd := time.Now()
	r.E2E = tEnd.Sub(tArm)
	if c.live != nil {
		lat, late, failed, problems := c.live.stopClient()
		r.Latencies, r.Late = lat, late
		r.Ops += len(lat) + failed
		r.Failed += failed
		r.Problems = append(r.Problems, problems...)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", c.sc.Name, runErr)
	}
	if sumErr != nil {
		return nil, fmt.Errorf("summary: %w", sumErr)
	}
	if pprofErr != nil {
		return nil, fmt.Errorf("pprof: %w", pprofErr)
	}

	segs := s.Segments()
	r.Records = a.Stats.Records
	r.outputs = map[string][]byte{"summary": stdout.Bytes()}
	if c.pprofPath != "" {
		b, err := os.ReadFile(c.pprofPath)
		if err != nil {
			return nil, err
		}
		r.outputs["pprof"] = b
	}
	c.checkCapture(r, s, a)

	if !traced {
		return r, nil
	}
	capture := tDisarm.Sub(tArm)
	full := tA1.Sub(tA0)
	summary := tS1.Sub(tS0)
	pprof := tP1.Sub(tS1)
	r.OnPath = capture + full + summary + pprof
	n := r.Records
	retained := 0
	for _, seg := range segs {
		retained += len(seg.Capture.Records)
	}
	r.Layers["core.capture_ns_per_record"] = perRecord(capture, n)
	r.Layers["core.retained_mb"] = float64(retained*recordBytes) / (1 << 20)
	r.Layers["core.segments"] = float64(len(segs))
	r.Layers["core.drain_errs"] = float64(s.DrainErrs())
	r.Layers["analyze.full_ns_per_record"] = perRecord(full, n)
	if n > 0 {
		r.Layers["analyze.full_allocs_per_record"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		r.Layers["analyze.full_alloc_bytes_per_record"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	}
	r.Layers["export.summary_ms"] = ms(summary)
	if c.pprofPath != "" {
		r.Layers["export.pprof_ms"] = ms(pprof)
	}
	if c.live != nil {
		hub1 := c.live.srv.HubStats()
		r.Layers["export.progress_hooks"] = float64(hooks.n)
		if hooks.n > 0 {
			r.Layers["export.publish_ns"] = float64(hooks.total.Nanoseconds()) / float64(hooks.n)
		}
		r.Layers["export.sse_published"] = float64(hub1.Published - hub0.Published)
		r.Layers["export.sse_slow_dropped"] = float64(hub1.SlowDropped - hub0.SlowDropped)
		c.live.last = hooks.last
	}

	// Off the end-to-end path: the lean decode over the same segments,
	// then the same scenario on an uninstrumented machine.
	lean, leanRecords := leanDecode(s, segs)
	if leanRecords != n {
		r.fail(r.Ops, fmt.Sprintf("lean decode saw %d records, full Analyze %d", leanRecords, n))
	}
	r.Layers["analyze.lean_ns_per_record"] = perRecord(lean, n)
	kern, err := kernelRun(c.sc, c.params, c.seed)
	if err != nil {
		return nil, err
	}
	ro, err := readoutNs(s.Card.Config())
	if err != nil {
		return nil, err
	}
	readout := time.Duration(ro * float64(r.Layers["core.segments"]))
	r.Layers["kernel.ns_per_record"] = perRecord(kern, n)
	r.Layers["hw.readout_ns_per_record"] = perRecord(readout, n)
	r.Layers["hw.trigger_ns_per_record"] = perRecord(capture-kern-readout, n)
	return r, nil
}

// checkCapture applies the capture output check: the analysis holds
// exactly the drained records, and no segment lost a strobe or failed its
// drain. Failures count against the repeat's segments.
func (c *captureRunner) checkCapture(r *rep, s *core.Session, a *analyze.Analysis) {
	segs := s.Segments()
	r.Ops += len(segs)
	drained, lossy := 0, 0
	for _, seg := range segs {
		drained += seg.Records
		if seg.Capture.Dropped > 0 {
			lossy++
		}
	}
	if lossy < s.DrainErrs() {
		lossy = s.DrainErrs()
	}
	if lossy > 0 {
		r.fail(lossy, fmt.Sprintf("%d segment(s) dropped strobes or failed their drain (%d drain errors)", lossy, s.DrainErrs()))
	}
	if a.Stats.Records != drained || a.Stats.Dropped != 0 {
		r.fail(len(segs), fmt.Sprintf("analysed %d records (%d dropped), drained %d", a.Stats.Records, a.Stats.Dropped, drained))
	}
	if len(segs) == 0 || drained == 0 {
		r.fail(1, "capture drained no records")
		r.Ops++
	}
}

func (c *captureRunner) close(layers map[string]float64) error {
	if c.live == nil {
		return nil
	}
	return c.live.close(layers)
}

// writePprof is cmd/kprof's -pprof export: create, write gzipped, close.
func writePprof(path string, a *analyze.Analysis) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export.WritePprof(f, a, export.PprofOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hookTimer wraps a session progress hook, timing every call. The hook
// runs on the simulation goroutine only, so the counters need no lock.
type hookTimer struct {
	n     int
	total time.Duration
	last  core.Progress
}

func (h *hookTimer) wrap(fn func(core.Progress)) func(core.Progress) {
	return func(p core.Progress) {
		t := time.Now()
		fn(p)
		h.total += time.Since(t)
		h.n++
		h.last = p
	}
}

// leanDecode times a lean streaming reconstruction (no events, no trace)
// over the session's drained segments, the decode floor a summary-only
// report could reach, and returns the records it decoded.
func leanDecode(s *core.Session, segs []core.Segment) (time.Duration, int) {
	t := time.Now()
	rc := analyze.NewReconstructor(s.Card.Config(), s.Tags, analyze.ReconstructOptions{
		DiscardEvents: true,
		DiscardTrace:  true,
		Repair:        analyze.DefaultRepair(),
	})
	for _, seg := range segs {
		rc.PushBatch(seg.Capture.Records)
		rc.EndSegment(seg.Capture.Dropped, seg.Capture.Overflowed)
	}
	la := rc.Finish(false, 0)
	return time.Since(t), la.Stats.Records
}

// kernelRun times the scenario on an uninstrumented machine with the same
// seed and parameters: the simulated kernel's own host cost, with no
// trigger hook and no card.
func kernelRun(sc workload.Scenario, params workload.Params, seed uint64) (time.Duration, error) {
	m := core.NewMachine(kernel.Config{Seed: seed})
	if sc.Setup != nil {
		if err := sc.Setup(m, params); err != nil {
			return 0, fmt.Errorf("%s setup: %w", sc.Name, err)
		}
	}
	t := time.Now()
	if _, err := sc.Run(m, params); err != nil {
		return 0, fmt.Errorf("uninstrumented %s: %w", sc.Name, err)
	}
	return time.Since(t), nil
}
