package analyze

import (
	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
)

// ReconstructOptions trims what a streaming reconstruction retains and
// selects the decode hardening. The per-function statistics, idle
// accounting and capture-quality counters are always kept; the call-path
// profile and the trace timeline are optional.
type ReconstructOptions struct {
	// DiscardEvents has no effect: no reconstruction keeps a decoded event
	// list. It remains only because existing callers still set it.
	DiscardEvents bool
	// DiscardTrace drops the call-path profile and the trace timeline
	// (Analysis.Items returns nil; WriteTrace renders nothing).
	DiscardTrace bool
	// Repair configures timestamp-monotonicity repair. The zero value is
	// off (the historical decoder); the production pipeline
	// (core.Session, the kprof facade) passes DefaultRepair().
	Repair RepairConfig
}

// Reconstructor couples the streaming Decoder to the reconstruction state
// machine, so raw card records can be fed one at a time — from the card's
// RAM in place, or from a capture file as it is read — without ever
// materializing the event list. A sweep worker pushes the 16384 records,
// drops the card, and keeps only the finished per-function statistics.
type Reconstructor struct {
	// cfg is the clock configuration the records were captured under,
	// kept so FinishStitch can rerun them exactly as they were decoded.
	cfg      hw.Config
	dec      *Decoder
	rec      *reconstructor
	finished bool
	// emitFn is the emit callback bound once at construction, so the
	// per-record Push never materializes a method value.
	emitFn func(Event)
	// ev is the event PushBatch decodes each record into and hands down
	// the reconstruction by address: one per reconstructor, refilled for
	// every record, so no record's event is copied from call to call.
	// Nothing in the reconstruction keeps the address past the record.
	ev Event
	// segStart/segCorrupt are the decoder's record and corrupt counts at
	// the current segment's first record, so EndSegment can size the
	// segment and attribute its corruption.
	segStart   int
	segCorrupt int
}

// NewReconstructor returns a streaming reconstructor for records captured
// under the given clock configuration (zero values select the prototype
// card's 1 MHz, 24 bits). Without DiscardTrace it folds the call-path
// profile as it streams. It keeps no trace timeline either way: Finish
// leaves the analysis without one, and FinishStitch attaches a rebuild
// from the records the caller kept.
func NewReconstructor(cfg hw.Config, tags *tagfile.File, opts ReconstructOptions) *Reconstructor {
	m := foldMode
	if opts.DiscardTrace {
		m = leanMode
	}
	return newReconstructor(cfg, tags, opts.Repair, m)
}

func newReconstructor(cfg hw.Config, tags *tagfile.File, repair RepairConfig, m mode) *Reconstructor {
	a := &Analysis{fns: make(map[string]*FnStat, fnStatArenaCap)}
	rc := &Reconstructor{
		cfg: cfg,
		dec: NewRepairingDecoder(cfg, tags, repair),
		rec: &reconstructor{a: a, idleStack: &stack{}, mode: m},
	}
	rc.emitFn = rc.emit
	return rc
}

// Push decodes one raw record and advances the reconstruction. Under repair
// a suspect record is buffered inside the decoder until its successor
// arbitrates, so a Push may advance the reconstruction by zero, one or two
// events.
func (rc *Reconstructor) Push(r hw.Record) {
	if rc.finished {
		panic("analyze: Push after Finish")
	}
	rc.dec.Push(r, rc.emitFn)
}

func (rc *Reconstructor) emit(ev Event) { rc.rec.feed(&ev) }

// PushBatch decodes a whole drained bank at once. The drain loop hands a
// bank's records in a single call, so the timestamp unwrap runs as one
// batch scan instead of a per-record call chain; the emitted event stream
// is identical to pushing the records one at a time.
//
// The common case — no suspect pending and every interval below the
// suspect threshold — runs as a tight unwrap loop that hands each decoded
// event straight to the reconstruction step with one direct call, not
// through the per-record emit closure. Repair arbitration (a pending
// suspect stamp) drops to the record-at-a-time Decoder.Push until the
// decoder is back in steady state.
func (rc *Reconstructor) PushBatch(rs []hw.Record) {
	if rc.finished {
		panic("analyze: PushBatch after Finish")
	}
	d, rec, ev := rc.dec, rc.rec, &rc.ev
	i := 0
	if d.first && len(rs) > 0 {
		d.records++
		d.first = false
		d.last = rs[0].Stamp
		d.fill(ev, rs[0], d.now, false)
		rec.feed(ev)
		i = 1
	}
	for i < len(rs) {
		if !d.hasPending {
			for ; i < len(rs); i++ {
				r := rs[i]
				delta := (r.Stamp - d.last) & d.mask
				if d.repair.Enabled && delta >= d.suspect {
					break
				}
				d.records++
				d.now += sim.Time(delta) * d.tick
				d.last = r.Stamp
				d.fill(ev, r, d.now, false)
				rec.feed(ev)
			}
			if i >= len(rs) {
				return
			}
		}
		d.Push(rs[i], rc.emitFn)
		i++
	}
}

// SnapshotCounters is the whole-capture running state of a streaming
// reconstruction, observable mid-stream (between pushes or at segment
// boundaries). All values are cumulative since the first record, so a
// consumer slicing a continuous capture into per-segment contributions
// takes exact integer differences between successive snapshots — the
// deltas sum to the final Analysis totals bit for bit, because they are
// the same counters Finish publishes.
type SnapshotCounters struct {
	// Records is the decoded record count so far.
	Records int
	// Start and End bound the reconstructed timeline so far; Elapsed so
	// far is End - Start.
	Start, End sim.Time
	// Idle is accumulated time inside the context switcher; Switches
	// counts entries to it.
	Idle     sim.Time
	Switches int
}

// Snapshot reports the reconstruction's running counters and, when visit
// is non-nil, visits every function's live statistics. The *FnStat values
// are the reconstruction's own working state: visitors must not mutate or
// retain them, and mid-stream a function with open frames shows only the
// net time of its completed calls so far. Visit order is unspecified
// (consumers needing determinism must key on FnStat.Name); the counters
// themselves are exact at any boundary. The fleet ingest pipeline is the
// intended consumer: it diffs snapshots taken at segment boundaries into
// integer per-segment samples.
func (rc *Reconstructor) Snapshot(visit func(*FnStat)) SnapshotCounters {
	if visit != nil {
		for _, f := range rc.rec.a.fns {
			visit(f)
		}
	}
	a := rc.rec.a
	return SnapshotCounters{
		Records:  rc.dec.records,
		Start:    a.Start,
		End:      a.End,
		Idle:     a.Idle,
		Switches: a.Switches,
	}
}

// EndSegment marks a drain boundary: the records pushed since the previous
// boundary (or the start) form one segment that lost dropped strobes before
// its drain completed. The timestamp-unwrap state always carries across the
// boundary — the card's counter free-runs through a drain — so a clean
// boundary (dropped == 0) is a pure continuation of the timeline. A lossy
// boundary additionally force-closes every open frame (counted in
// Recovered and the segment's ForceClosed) so that frames spanning the
// loss are never mis-nested against post-loss events.
func (rc *Reconstructor) EndSegment(dropped uint64, overflowed bool) {
	if rc.finished {
		panic("analyze: EndSegment after Finish")
	}
	seg := SegmentInfo{
		Index:      len(rc.rec.a.Segments),
		Records:    rc.dec.records - rc.segStart,
		Dropped:    dropped,
		Overflowed: overflowed,
		Corrupt:    rc.dec.corrupt - rc.segCorrupt,
		End:        rc.rec.a.End,
	}
	if dropped > 0 {
		seg.ForceClosed = rc.rec.lossBoundary()
	}
	rc.rec.a.Segments = append(rc.rec.a.Segments, seg)
	rc.segStart = rc.dec.records
	rc.segCorrupt = rc.dec.corrupt
}

// Finish closes the books and returns the Analysis. Overflowed and dropped
// describe any trailing records not covered by an EndSegment call; for a
// fully segmented capture pass (false, 0). Per-segment losses recorded by
// EndSegment are folded into the capture-quality stats.
func (rc *Reconstructor) Finish(overflowed bool, dropped uint64) *Analysis {
	if rc.finished {
		panic("analyze: Finish called twice")
	}
	rc.finished = true
	rc.dec.Flush(rc.emitFn)
	rc.rec.finish()
	stats := rc.dec.Stats()
	stats.Overflowed = overflowed
	stats.Dropped = dropped
	for _, seg := range rc.rec.a.Segments {
		stats.Dropped += seg.Dropped
		if seg.Overflowed {
			stats.Overflowed = true
		}
	}
	rc.rec.a.Stats = stats
	return rc.rec.a
}

// Stitch reconstructs a segmented capture produced by the drain-and-stitch
// pipeline: each hw.Capture is one drained slice of a single continuous
// run, in drain order, with its Dropped/Overflowed fields describing the
// loss (if any) at its end boundary. The segments decode as one continuous
// timeline; lossy boundaries are force-closed and reported per segment.
// Without DiscardTrace the analysis keeps a reference to the segments'
// records, to build its trace on first use (see Analysis.Items).
func Stitch(segs []hw.Capture, tags *tagfile.File, opts ReconstructOptions) *Analysis {
	// The trace pass reruns over segs later: copy the list, which a
	// caller may reuse, though not the records.
	segs = append([]hw.Capture(nil), segs...)
	cfg := hw.Config{}
	if len(segs) > 0 {
		cfg = segs[0].ClockConfig()
	}
	return reconstruct(opts, func(m mode) *Analysis {
		return stitch(newReconstructor(cfg, tags, opts.Repair, m), segs)
	})
}

// FinishStitch closes the books of a folding reconstruction (one built
// without DiscardTrace) that was fed segs in order, one PushBatch and one
// EndSegment per capture, as a drain loop feeds a background decoder. It
// gives the result Stitch's lazy trace: the first Items call runs Stitch's
// loop over segs again, with the trace kept, under this reconstructor's
// clock configuration, tag file and repair setting. The analysis is then
// the one Stitch returns for segs under those settings, and it keeps a
// reference to the segments' records, not a copy.
func (rc *Reconstructor) FinishStitch(segs []hw.Capture) *Analysis {
	if rc.rec.mode != foldMode {
		panic("analyze: FinishStitch on a lean reconstructor")
	}
	a := rc.Finish(false, 0)
	cfg, tags, repair := rc.cfg, rc.dec.tags, rc.dec.repair
	segs = append([]hw.Capture(nil), segs...)
	a.trace.build = func() []TraceItem {
		return stitch(newReconstructor(cfg, tags, repair, traceMode), segs).trace.items
	}
	return a
}

// stitch is Stitch's loop: it feeds segs to the fresh reconstructor rc in
// order, each capture closed as one segment, and finishes the books.
func stitch(rc *Reconstructor, segs []hw.Capture) *Analysis {
	n := 0
	for _, seg := range segs {
		n += len(seg.Records)
	}
	rc.reserveTrace(n)
	for _, seg := range segs {
		rc.PushBatch(seg.Records)
		rc.EndSegment(seg.Dropped, seg.Overflowed)
	}
	return rc.Finish(false, 0)
}

// ReconstructCapture runs the streaming reconstruction over one single-
// readout capture. Pass opts.Repair = DefaultRepair() to survive corrupted
// stamps, or the zero options to unwrap every stamp with no repair.
// Without DiscardTrace the analysis keeps a reference to c's
// records, to build its trace on first use (see Analysis.Items).
func ReconstructCapture(c hw.Capture, tags *tagfile.File, opts ReconstructOptions) *Analysis {
	return reconstruct(opts, func(m mode) *Analysis {
		rc := newReconstructor(c.ClockConfig(), tags, opts.Repair, m)
		rc.reserveTrace(len(c.Records))
		rc.PushBatch(c.Records)
		return rc.Finish(c.Overflowed, c.Dropped)
	})
}

// reconstruct runs a batch reconstruction: lean under DiscardTrace, else
// the fold, with a trace-keeping rerun of the same records deferred to the
// analysis's first Items call.
func reconstruct(opts ReconstructOptions, run func(mode) *Analysis) *Analysis {
	if opts.DiscardTrace {
		return run(leanMode)
	}
	a := run(foldMode)
	a.trace.build = func() []TraceItem { return run(traceMode).trace.items }
	return a
}

// reserveTrace sizes a trace-keeping reconstruction's timeline once, for
// the n records about to be pushed: each record decodes to one event and
// each event adds at most one trace item, so the trace never regrows.
func (rc *Reconstructor) reserveTrace(n int) {
	if rc.rec.mode == traceMode {
		rc.rec.a.trace.items = make([]TraceItem, 0, n)
	}
}
