package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"kprof/internal/fleet"
	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

// fleetRunner runs `kprof -fleet N -fleetmix MIX -duration D -fleetjson F`
// once per repeat.
type fleetRunner struct {
	machines int
	mix      string
	seed     uint64
	params   workload.Params
	window   sim.Time
	jsonPath string
}

// timedSource wraps a fleet.LiveSource. Its machine is booted before the
// run (Open is part of set-up, not of the measured window), and Run
// counts what it emits for the output check. Traced, it also splits the
// machine goroutine's Run time into the part inside emit (ingest: the
// second lean decode, the snapshot diff and staging) and the rest (the
// machine: simulation, triggers, drains).
type timedSource struct {
	ls     *fleet.LiveSource
	cfg    hw.Config
	tags   *tagfile.File
	traced bool

	segments, records, lossy int
	run, emit                time.Duration
	lastEmit                 time.Time
}

func (t *timedSource) ID() int { return t.ls.ID() }

func (t *timedSource) Open() (hw.Config, *tagfile.File, error) { return t.cfg, t.tags, nil }

func (t *timedSource) Run(emit func(fleet.RawSegment) error) error {
	start := time.Now()
	err := t.ls.Run(func(seg fleet.RawSegment) error {
		t.segments++
		t.records += len(seg.Records)
		if seg.Dropped > 0 {
			t.lossy++
		}
		if !t.traced {
			return emit(seg)
		}
		e := time.Now()
		err := emit(seg)
		t.lastEmit = time.Now()
		t.emit += t.lastEmit.Sub(e)
		return err
	})
	t.run = time.Since(start)
	return err
}

// progressLog records the host time at which the staging store's staged
// and committed counts move. OnProgress calls are serialised under the
// store's lock; the mutex orders them with the final read.
type progressLog struct {
	mu                sync.Mutex
	staged, committed []time.Time
	backlogMax        int
}

func (p *progressLog) observe(pr fleet.Progress) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.staged) < pr.SegmentsStaged {
		p.staged = append(p.staged, now)
	}
	for len(p.committed) < pr.SegmentsCommitted {
		p.committed = append(p.committed, now)
	}
	if pr.Backlog > p.backlogMax {
		p.backlogMax = pr.Backlog
	}
}

// commitLag returns the median host time from the k-th staged segment to
// the k-th committed one.
func (p *progressLog) commitLag() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := min(len(p.staged), len(p.committed))
	lags := make([]float64, n)
	for k := 0; k < n; k++ {
		lags[k] = float64(p.committed[k].Sub(p.staged[k]))
	}
	return time.Duration(median(lags))
}

func (f *fleetRunner) rep(traced bool) (*rep, error) {
	r := &rep{Traced: traced, Layers: make(map[string]float64)}
	t0 := time.Now()
	mcs, err := fleet.MachinesFromMix(f.machines, f.mix, f.seed, f.params)
	if err != nil {
		return nil, err
	}
	srcs := make([]*timedSource, len(mcs))
	sources := make([]fleet.Source, len(mcs))
	for i, mc := range mcs {
		ls, err := fleet.NewLiveSource(mc)
		if err != nil {
			return nil, err
		}
		cfg, tags, err := ls.Open()
		if err != nil {
			return nil, err
		}
		srcs[i] = &timedSource{ls: ls, cfg: cfg, tags: tags, traced: traced}
		sources[i] = srcs[i]
	}
	cfg := fleet.Config{Machines: mcs, Window: f.window}
	var prog progressLog
	if traced {
		cfg.OnProgress = prog.observe
	}
	r.Setup = time.Since(t0)

	var stdout bytes.Buffer
	tStart := time.Now()
	res, err := fleet.RunSources(cfg, sources)
	if err != nil {
		return nil, err
	}
	tRun := time.Now()
	if err := res.Write(&stdout, summaryTop); err != nil {
		return nil, err
	}
	if err := writeFleetJSON(f.jsonPath, res); err != nil {
		return nil, err
	}
	tEnd := time.Now()
	r.E2E = tEnd.Sub(tStart)

	js, err := os.ReadFile(f.jsonPath)
	if err != nil {
		return nil, err
	}
	r.outputs = map[string][]byte{"fleet.report": stdout.Bytes(), "fleet.json": js}
	r.Records = res.Records
	var segments, emitted, lossy int
	for _, s := range srcs {
		segments += s.segments
		emitted += s.records
		lossy += s.lossy
	}
	r.Ops = segments
	if lossy > 0 {
		r.fail(lossy, fmt.Sprintf("%d emitted segment(s) dropped strobes", lossy))
	}
	if res.Records != emitted || res.Segments != segments || res.Dropped != 0 {
		r.fail(segments, fmt.Sprintf("fleet committed %d records in %d segments (%d dropped); machines emitted %d in %d",
			res.Records, res.Segments, res.Dropped, emitted, segments))
	}
	if emitted == 0 {
		r.fail(1, "fleet emitted no records")
		r.Ops++
	}
	if !traced {
		return r, nil
	}

	n := r.Records
	var machine, ingest, kern, readout time.Duration
	var critical *timedSource
	for i, s := range srcs {
		machine += s.run - s.emit
		ingest += s.emit
		if critical == nil || s.lastEmit.After(critical.lastEmit) {
			critical = s
		}
		k, err := kernelRun(mustScenario(mcs[i].Scenario), mcs[i].Params, mcs[i].Seed)
		if err != nil {
			return nil, err
		}
		kern += k
		ro, err := readoutNs(s.cfg)
		if err != nil {
			return nil, err
		}
		readout += time.Duration(ro * float64(s.segments))
	}
	tail := tRun.Sub(critical.lastEmit)
	// The machines run in parallel, so the wall-clock path is the machine
	// whose last emit came last, then the tail to RunSources' return.
	r.OnPath = critical.run + tail
	r.Layers["kernel.ns_per_record"] = perRecord(kern, n)
	r.Layers["core.capture_ns_per_record"] = perRecord(machine, n)
	r.Layers["hw.readout_ns_per_record"] = perRecord(readout, n)
	r.Layers["hw.trigger_ns_per_record"] = perRecord(machine-kern-readout, n)
	r.Layers["core.retained_mb"] = float64(emitted*recordBytes) / (1 << 20)
	r.Layers["core.segments"] = float64(segments)
	// A failed drain surfaces as a lossy segment; LiveSource keeps its
	// session private, so that is the count visible from outside.
	r.Layers["core.drain_errs"] = float64(lossy)
	r.Layers["fleet.machine_ns_per_record"] = perRecord(machine, n)
	r.Layers["fleet.ingest_ns_per_record"] = perRecord(ingest, n)
	r.Layers["fleet.backlog_max"] = float64(prog.backlogMax)
	r.Layers["fleet.commit_lag_ms"] = ms(prog.commitLag())
	r.Layers["fleet.tail_ms"] = ms(tail)
	r.Layers["fleet.windows"] = float64(len(res.Windows))
	return r, nil
}

func (f *fleetRunner) close(map[string]float64) error { return nil }

// writeFleetJSON is cmd/kprof's -fleetjson export.
func writeFleetJSON(path string, res *fleet.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mustScenario resolves a scenario name MachinesFromMix has already
// validated.
func mustScenario(name string) workload.Scenario {
	sc, ok := workload.FindScenario(name)
	if !ok {
		panic("kbench: unknown scenario " + name)
	}
	return sc
}
