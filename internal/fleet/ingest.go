package fleet

import (
	"fmt"
	"sync"

	"kprof/internal/analyze"
	"kprof/internal/sim"
)

// FnDelta is one function's contribution within one sample: exact integer
// call and net-tick deltas between two reconstruction snapshots.
type FnDelta struct {
	Calls int
	Net   sim.Time
}

// Sample is one drained segment condensed into integer deltas — the unit
// the staging store holds and the projection loop commits. Because
// every field is an exact difference of cumulative integer counters, the
// samples of one machine sum to its full-stream reconstruction totals bit
// for bit, in any grouping: windowing never changes the fleet's sums.
type Sample struct {
	// Machine and Seq identify the sample: Seq is the machine's segment
	// index, dense from 0 — the checkpoint coordinate.
	Machine int
	Seq     int
	// DrainedAt positions the sample on the fleet timeline (window
	// assignment and watermark accounting).
	DrainedAt sim.Time
	// Records counts decoded records; Dropped the strobes lost at the
	// segment's end boundary.
	Records int
	Dropped uint64
	// Elapsed, Idle and Switches are this segment's share of the
	// machine's timeline.
	Elapsed  sim.Time
	Idle     sim.Time
	Switches int
	// Fns holds per-function deltas; functions with no activity in the
	// segment are absent.
	Fns map[string]FnDelta
}

// fnCum is one function's cumulative counters at the previous snapshot.
type fnCum struct {
	calls int
	net   sim.Time
}

// deltaTracker diffs successive reconstruction snapshots into Samples.
type deltaTracker struct {
	prev         map[string]fnCum
	prevRecords  int
	prevSwitches int
	prevEnd      sim.Time
	prevIdle     sim.Time
	started      bool
}

func newDeltaTracker() *deltaTracker {
	return &deltaTracker{prev: make(map[string]fnCum, 64)}
}

// cut snapshots the reconstruction at a segment boundary and returns the
// delta since the previous cut. Context-switcher pseudo-functions are
// excluded from Fns — their time is the Idle counter.
func (t *deltaTracker) cut(rc *analyze.Reconstructor, machine, seq int, seg RawSegment) *Sample {
	s := &Sample{
		Machine:   machine,
		Seq:       seq,
		DrainedAt: seg.DrainedAt,
		Dropped:   seg.Dropped,
		Fns:       make(map[string]FnDelta, 16),
	}
	c := rc.Snapshot(func(f *analyze.FnStat) {
		if f.CtxSwitch {
			return
		}
		old := t.prev[f.Name]
		if f.Calls != old.calls || f.Net != old.net {
			s.Fns[f.Name] = FnDelta{Calls: f.Calls - old.calls, Net: f.Net - old.net}
			t.prev[f.Name] = fnCum{calls: f.Calls, net: f.Net}
		}
	})
	t.applyCounters(s, c.Records, c.Switches, c.Start, c.End, c.Idle)
	return s
}

func (t *deltaTracker) applyCounters(s *Sample, records, switches int, start, end, idle sim.Time) {
	if !t.started {
		// The machine's timeline starts at its first record, not at 0.
		t.prevEnd = start
		t.started = true
	}
	s.Records = records - t.prevRecords
	s.Switches = switches - t.prevSwitches
	s.Elapsed = end - t.prevEnd
	s.Idle = idle - t.prevIdle
	t.prevRecords, t.prevSwitches, t.prevEnd, t.prevIdle = records, switches, end, idle
}

// foldResidual folds the post-Finish residual — frames the reconstruction
// force-closed at end of stream, plus any repair-arbitration record the
// decoder was still holding — into the held-back final sample, so the
// stream's samples account for the full reconstruction exactly.
func (t *deltaTracker) foldResidual(held *Sample, a *analyze.Analysis) {
	for _, f := range a.Functions() {
		if f.CtxSwitch {
			continue
		}
		old := t.prev[f.Name]
		if f.Calls != old.calls || f.Net != old.net {
			d := held.Fns[f.Name]
			d.Calls += f.Calls - old.calls
			d.Net += f.Net - old.net
			held.Fns[f.Name] = d
			t.prev[f.Name] = fnCum{calls: f.Calls, net: f.Net}
		}
	}
	if !t.started {
		return
	}
	held.Records += a.Stats.Records - t.prevRecords
	held.Switches += a.Switches - t.prevSwitches
	held.Elapsed += a.End - t.prevEnd
	held.Idle += a.Idle - t.prevIdle
}

// Ingest is a running set of per-machine ingest workers feeding one
// staging store.
type Ingest struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
}

// StartIngest launches one ingest worker per source. Each worker decodes
// its machine's stream through a dedicated streaming Reconstructor,
// condenses every segment into a Sample, and appends it to the store —
// blocking when the store is full, which is the backpressure path back
// into the machine's drain loop for live sources. A worker that fails
// marks the store failed so the projection loop and sibling appends do
// not wait forever.
func StartIngest(st *Store, sources []Source) *Ingest {
	ing := &Ingest{}
	for _, src := range sources {
		src := src
		ing.wg.Add(1)
		go func() {
			defer ing.wg.Done()
			if err := ingestOne(st, src); err != nil {
				ing.mu.Lock()
				if ing.firstErr == nil {
					ing.firstErr = err
				}
				ing.mu.Unlock()
				st.Fail(err)
			}
		}()
	}
	return ing
}

// Wait blocks until every ingest worker has finished and returns the
// first worker error, if any.
func (ing *Ingest) Wait() error {
	ing.wg.Wait()
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.firstErr
}

// ingestOne runs one machine's ingest worker. Samples are appended with a
// one-segment lag (the previous sample goes to the store when the next
// segment arrives) so the stream's final sample can absorb the
// reconstruction's end-of-stream residual before it is staged — once
// staged, a sample is immutable.
func ingestOne(st *Store, src Source) error {
	cfg, tags, err := src.Open()
	if err != nil {
		return err
	}
	rc := analyze.NewReconstructor(cfg, tags, analyze.ReconstructOptions{
		DiscardTrace: true,
		Repair:       analyze.DefaultRepair(),
	})
	t := newDeltaTracker()
	var held *Sample
	seq := 0
	runErr := src.Run(func(seg RawSegment) error {
		rc.PushBatch(seg.Records)
		rc.EndSegment(seg.Dropped, seg.Overflowed)
		s := t.cut(rc, src.ID(), seq, seg)
		seq++
		if held != nil {
			if err := st.Append(held); err != nil {
				return err
			}
		}
		held = s
		return nil
	})
	if runErr != nil {
		return fmt.Errorf("fleet: machine %d: ingest: %w", src.ID(), runErr)
	}
	a := rc.Finish(false, 0)
	if held != nil {
		t.foldResidual(held, a)
		if err := st.Append(held); err != nil {
			return err
		}
	}
	st.MachineDone(src.ID())
	return nil
}
