package fleet

import (
	"errors"
	"fmt"
	"sync"

	"kprof/internal/sim"
	"kprof/internal/sweep"
)

// Progress is a point-in-time view of the ingest pipeline, delivered to
// Config.OnProgress under the store's lock. Its JSON form is the "fleet"
// section of export.StatusServer's /status.json.
type Progress struct {
	// Machines is the fleet size; MachinesDone counts machines whose
	// streams have ended.
	Machines     int `json:"machines"`
	MachinesDone int `json:"machines_done"`
	// SegmentsStaged and SegmentsCommitted are lifetime totals; Backlog
	// is the staged-but-uncommitted count (bounded by Config.Staging).
	SegmentsStaged    int `json:"segments_staged"`
	SegmentsCommitted int `json:"segments_committed"`
	Backlog           int `json:"backlog"`
	// RecordsCommitted and Dropped total the committed samples.
	RecordsCommitted int    `json:"records_committed"`
	Dropped          uint64 `json:"dropped_strobes"`
	// WatermarkUS is the fleet watermark in virtual microseconds: every
	// machine's stream is committed at least this far.
	WatermarkUS int64 `json:"watermark_us"`
	// WindowsClosed counts closed aggregation windows.
	WindowsClosed int `json:"windows_closed"`
}

// machineState is one machine's staging queue and checkpoint.
type machineState struct {
	id int
	// queue holds staged, uncommitted samples in sequence order.
	queue []*Sample
	// stagedThrough is the next Seq the ingest worker will append.
	stagedThrough int
	// next and pos are the checkpoint: the next Seq to commit and the
	// drain time of the last committed sample. They advance together,
	// atomically with the sample's window fold, under the store lock.
	next int
	pos  sim.Time
	// done marks the stream ended; complete marks done AND fully
	// committed (the machine no longer holds the watermark back).
	done     bool
	complete bool
}

// machineWindow is one machine's integer sums within one open window.
type machineWindow struct {
	segments int
	records  int
	dropped  uint64
	elapsed  sim.Time
	idle     sim.Time
	switches int
	fns      map[string]FnDelta
}

// windowState is one open window: per-machine integer sums, folded into
// float statistics only when the window closes.
type windowState struct {
	perMachine map[int]*machineWindow
}

// Store is the staging store and the whole durable state of a fleet run:
// staged samples, per-machine checkpoints, open-window sums, the closed-
// window list and the cumulative aggregate. The projection loop (project)
// holds no state of its own, so a loop stopped mid-run and started again
// over the same Store resumes exactly at the checkpoints.
//
// Commit order per machine is sequence order, enforced by panic — a
// projection that would reprocess a committed sample or regress a
// checkpoint is a bug, not a recoverable condition. Windows close in
// ascending index order and machines fold within a window in ascending ID
// order, both under the store lock, which is what makes the report bytes
// independent of the staging bound and ingest interleaving.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond

	window  sim.Time
	staging int

	machines map[int]*machineState
	order    []int // machine IDs, ascending

	backlog int // staged, uncommitted samples across all machines

	windows   map[int64]*windowState
	cum       *sweep.Aggregate
	closed    []WindowSummary
	watermark sim.Time

	totalStaged      int
	totalCommitted   int
	recordsCommitted int
	dropped          uint64

	failed     error
	onProgress func(Progress)
	onWindow   func(WindowSummary)
}

// NewStore builds an empty staging store for the given machine IDs.
// window and staging of 0 select DefaultWindow and DefaultStaging.
// onProgress and onWindow mirror Config.OnProgress and Config.OnWindow;
// either may be nil.
func NewStore(window sim.Time, staging int, machineIDs []int, onProgress func(Progress), onWindow func(WindowSummary)) (*Store, error) {
	if window <= 0 {
		window = DefaultWindow
	}
	if staging <= 0 {
		staging = DefaultStaging
	}
	if len(machineIDs) == 0 {
		return nil, fmt.Errorf("fleet: store needs at least one machine")
	}
	st := &Store{
		window:     window,
		staging:    staging,
		machines:   make(map[int]*machineState, len(machineIDs)),
		windows:    make(map[int64]*windowState),
		cum:        sweep.NewAggregator("fleet").Finish(),
		onProgress: onProgress,
		onWindow:   onWindow,
	}
	st.cond = sync.NewCond(&st.mu)
	for _, id := range machineIDs {
		if _, dup := st.machines[id]; dup {
			return nil, fmt.Errorf("fleet: duplicate machine ID %d", id)
		}
		st.machines[id] = &machineState{id: id}
	}
	st.order = sortedMachineIDs(st.machines)
	return st, nil
}

// Append stages one sample, blocking while the store is at its staging
// bound — the backpressure path back into the machine's drain loop. It
// returns the store's failure error if the run has failed, so blocked
// ingest workers unwind instead of deadlocking.
func (st *Store) Append(s *Sample) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.failed == nil && st.backlog >= st.staging {
		st.cond.Wait()
	}
	if st.failed != nil {
		return st.failed
	}
	ms := st.machines[s.Machine]
	if ms == nil {
		panic(fmt.Sprintf("fleet: append for unknown machine %d", s.Machine))
	}
	if ms.done {
		panic(fmt.Sprintf("fleet: machine %d: append after MachineDone", s.Machine))
	}
	if s.Seq != ms.stagedThrough {
		panic(fmt.Sprintf("fleet: machine %d: staged seq %d, want %d", s.Machine, s.Seq, ms.stagedThrough))
	}
	ms.stagedThrough++
	ms.queue = append(ms.queue, s)
	st.backlog++
	st.totalStaged++
	st.cond.Broadcast()
	st.notifyLocked()
	return nil
}

// MachineDone marks one machine's stream ended. Once its queue drains the
// machine is complete and stops holding the watermark back.
func (st *Store) MachineDone(id int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ms := st.machines[id]
	if ms == nil {
		panic(fmt.Sprintf("fleet: MachineDone for unknown machine %d", id))
	}
	ms.done = true
	ms.complete = ms.done && len(ms.queue) == 0
	st.advanceLocked()
	st.cond.Broadcast()
	st.notifyLocked()
}

// Fail marks the run failed and wakes every waiter (blocked appends and
// the idle projection loop).
func (st *Store) Fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed == nil {
		st.failed = err
	}
	st.cond.Broadcast()
}

// ErrKilled reports a projection loop that stopped at its commit limit
// before the store drained — the simulated crash of the restart test.
var ErrKilled = errors.New("fleet: projection stopped before the store drained")

// project is the fleet's one projection loop. It waits for a staged
// sample, picks the machine with the smallest checkpoint position (ties
// by ID) — the machine most likely to be holding the watermark back — and
// commits that machine's queue head. The pick affects only scheduling:
// report bytes are fixed by the commit fold orders. project returns nil
// once every machine is complete, the store's failure error if the run
// fails, and ErrKilled after limit commits (limit < 0: no limit), leaving
// the store exactly as those commits left it.
func (st *Store) project(limit int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for commits := 0; ; {
		switch {
		case st.failed != nil:
			return st.failed
		case st.allCompleteLocked():
			return nil
		case commits == limit:
			return ErrKilled
		}
		var best *machineState
		for _, id := range st.order {
			ms := st.machines[id]
			if len(ms.queue) > 0 && (best == nil || ms.pos < best.pos) {
				best = ms
			}
		}
		if best == nil {
			st.cond.Wait()
			continue
		}
		st.commitLocked(best)
		commits++
	}
}

// commitLocked applies the head of ms's queue atomically: pop it, advance
// the machine's checkpoint, fold the integer sums into the sample's
// window, recompute the fleet watermark, and close every window the
// watermark has passed — all under one critical section, so no observer
// ever sees a sample half-applied. The sequence and position asserts are
// the never-reprocess / never-regress invariants.
func (st *Store) commitLocked(ms *machineState) {
	s := ms.queue[0]
	if s.Seq != ms.next {
		panic(fmt.Sprintf("fleet: machine %d: commit seq %d, checkpoint expects %d (reprocess or skip)", s.Machine, s.Seq, ms.next))
	}
	if s.DrainedAt < ms.pos {
		panic(fmt.Sprintf("fleet: machine %d: checkpoint regression %d -> %d", s.Machine, ms.pos, s.DrainedAt))
	}
	ms.queue = ms.queue[1:]
	st.backlog--
	ms.next++
	ms.pos = s.DrainedAt
	ms.complete = ms.done && len(ms.queue) == 0
	st.totalCommitted++
	st.recordsCommitted += s.Records
	st.dropped += s.Dropped

	idx := int64(s.DrainedAt / st.window)
	ws := st.windows[idx]
	if ws == nil {
		ws = &windowState{perMachine: make(map[int]*machineWindow)}
		st.windows[idx] = ws
	}
	mw := ws.perMachine[s.Machine]
	if mw == nil {
		mw = &machineWindow{fns: make(map[string]FnDelta, len(s.Fns))}
		ws.perMachine[s.Machine] = mw
	}
	mw.segments++
	mw.records += s.Records
	mw.dropped += s.Dropped
	mw.elapsed += s.Elapsed
	mw.idle += s.Idle
	mw.switches += s.Switches
	for name, d := range s.Fns {
		e := mw.fns[name]
		e.Calls += d.Calls
		e.Net += d.Net
		mw.fns[name] = e
	}

	st.advanceLocked()
	st.cond.Broadcast()
	st.notifyLocked()
}

// advanceLocked recomputes the watermark and closes every window it has
// passed, in ascending index order. The watermark is the minimum
// checkpoint position over incomplete machines; once every machine is
// complete it jumps to the maximum committed position and all remaining
// windows close.
func (st *Store) advanceLocked() {
	allComplete := true
	var wm sim.Time
	first := true
	for _, id := range st.order {
		ms := st.machines[id]
		if ms.complete {
			continue
		}
		allComplete = false
		if first || ms.pos < wm {
			wm = ms.pos
			first = false
		}
	}
	if allComplete {
		for _, id := range st.order {
			if p := st.machines[id].pos; p > wm {
				wm = p
			}
		}
	}
	if wm < st.watermark {
		panic(fmt.Sprintf("fleet: watermark regression %d -> %d", st.watermark, wm))
	}
	st.watermark = wm
	for {
		idx, ok := st.minOpenWindowLocked()
		if !ok {
			break
		}
		if !allComplete && st.watermark < sim.Time(idx+1)*st.window {
			break
		}
		st.closeWindowLocked(idx)
	}
}

func (st *Store) minOpenWindowLocked() (int64, bool) {
	var min int64
	found := false
	for idx := range st.windows {
		if !found || idx < min {
			min = idx
			found = true
		}
	}
	return min, found
}

// closeWindowLocked folds one window's per-machine integer sums into
// float statistics — machines in ascending ID order — merges the window
// aggregate into the cumulative, records the summary, and drops the
// window state (retention: closed windows keep only their summary, so
// open-window memory stays bounded by the fleet's drain spread).
func (st *Store) closeWindowLocked(idx int64) {
	ws := st.windows[idx]
	delete(st.windows, idx)

	ag := sweep.NewAggregator("fleet")
	sum := WindowSummary{
		Index:   idx,
		StartUS: (sim.Time(idx) * st.window).Micros(),
		EndUS:   (sim.Time(idx+1) * st.window).Micros(),
	}
	for _, id := range sortedMachineIDs(ws.perMachine) {
		mw := ws.perMachine[id]
		sum.Machines++
		sum.Segments += mw.segments
		sum.Records += mw.records
		sum.Dropped += mw.dropped
		run := mw.elapsed - mw.idle
		r := sweep.SeedResult{
			Seed:      uint64(id),
			ElapsedUS: us(mw.elapsed),
			RunUS:     us(run),
			IdleUS:    us(mw.idle),
			Records:   mw.records,
			Switches:  mw.switches,
			Segments:  mw.segments,
			Dropped:   mw.dropped,
			Fns:       make(map[string]sweep.FnSample, len(mw.fns)),
		}
		if mw.elapsed > 0 {
			r.IdlePct = 100 * float64(mw.idle) / float64(mw.elapsed)
		}
		for name, d := range mw.fns {
			fs := sweep.FnSample{Calls: d.Calls, NetUS: us(d.Net)}
			if d.Calls > 0 {
				fs.AvgUS = fs.NetUS / float64(d.Calls)
			}
			if mw.elapsed > 0 {
				fs.PctReal = 100 * float64(d.Net) / float64(mw.elapsed)
			}
			if run > 0 {
				fs.PctNet = 100 * float64(d.Net) / float64(run)
			}
			r.Fns[name] = fs
		}
		ag.Add(r)
	}
	wagg := ag.Finish()
	for i, f := range wagg.Fns {
		if i >= windowTopFns {
			break
		}
		sum.Top = append(sum.Top, WindowFn{
			Name:       f.Name,
			Machines:   f.Seeds,
			CallsMean:  f.Calls.Mean,
			NetUSMean:  f.NetUS.Mean,
			PctNetMean: f.PctNet.Mean,
		})
	}
	st.cum.Merge(wagg)
	st.closed = append(st.closed, sum)
	if st.onWindow != nil {
		st.onWindow(sum)
	}
}

func (st *Store) allCompleteLocked() bool {
	for _, id := range st.order {
		if !st.machines[id].complete {
			return false
		}
	}
	return true
}

func (st *Store) progressLocked() Progress {
	done := 0
	for _, id := range st.order {
		if st.machines[id].done {
			done++
		}
	}
	return Progress{
		Machines:          len(st.order),
		MachinesDone:      done,
		SegmentsStaged:    st.totalStaged,
		SegmentsCommitted: st.totalCommitted,
		Backlog:           st.backlog,
		RecordsCommitted:  st.recordsCommitted,
		Dropped:           st.dropped,
		WatermarkUS:       st.watermark.Micros(),
		WindowsClosed:     len(st.closed),
	}
}

func (st *Store) notifyLocked() {
	if st.onProgress != nil {
		st.onProgress(st.progressLocked())
	}
}

// Result assembles the finished report. Call it only after ingest and
// projection have drained the store (project returned nil).
func (st *Store) Result() *Result {
	st.mu.Lock()
	defer st.mu.Unlock()
	return &Result{
		Machines:    len(st.order),
		WindowUS:    st.window.Micros(),
		Segments:    st.totalCommitted,
		Records:     st.recordsCommitted,
		Dropped:     st.dropped,
		WatermarkUS: st.watermark.Micros(),
		Windows:     append([]WindowSummary(nil), st.closed...),
		Agg:         st.cum,
	}
}
