// Package analyze is the host-side analysis software: it decodes the raw
// (tag, timestamp) list retrieved from the Profiler's RAM, reconstructs
// nested code paths — splitting per-process paths at the context-switch
// function marked '!' in the name/tag file and treating in-swtch time as
// idle except for interrupts — and produces the paper's two reports: the
// per-function summary (Figure 3) and the real-time code-path trace
// (Figure 4), plus histograms, subsystem grouping and the what-if
// estimators used in the network study.
package analyze

import (
	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
)

// EventKind classifies a decoded event.
type EventKind int

// Event kinds: even tags are function entries, odd tags exits, '='-marked
// tags inline marks; tags absent from the name/tag file decode as Unknown.
const (
	Entry EventKind = iota
	Exit
	Inline
	Unknown
)

// String names the kind for reports and errors.
func (k EventKind) String() string {
	switch k {
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case Inline:
		return "inline"
	}
	return "unknown"
}

// Event is one decoded capture record on the reconstructed timeline.
type Event struct {
	Time sim.Time // unwrapped, relative to the first record
	Kind EventKind
	Name string
	Tag  uint16
	// CtxSwitch marks events of the '!' function (swtch).
	CtxSwitch bool
	// fnIdx is the name/tag-file entry index plus one, or zero when the
	// event was not decoded against a tag file (unknown tags, hand-built
	// events). The reconstructor uses it to reach per-function state by
	// dense index instead of hashing the name on every record.
	fnIdx int32
}

// DecodeStats reports capture-quality information alongside the events.
type DecodeStats struct {
	Records     int
	UnknownTags int
	// Overflowed propagates the card's overflow LED: the capture is the
	// head of the run, and the tail was lost.
	Overflowed bool
	Dropped    uint64

	// CorruptRecords counts records the decoder judged corrupted: a tag
	// that resolves against nothing in the name/tag file, or a timestamp
	// the monotonicity-repair heuristics had to replace. Each record
	// counts once however many ways it was damaged.
	CorruptRecords int
	// RepairedTimestamps counts stamps replaced by interpolation (or
	// zero-advance) because they disagreed with both neighbours.
	RepairedTimestamps int
	// Resyncs counts the times repair gave up interpolating and rebased
	// the timeline on a new stamp (bounded-resync: too many consecutive
	// implausible stamps to call them all glitches).
	Resyncs int
}

// Decoder incrementally unwraps the truncated counter stamps into a
// monotonic timeline and resolves tags against the name/tag file. The
// card's counter is only meaningful as intervals; the timeline starts at
// zero on the first record. Events further apart than the counter's wrap
// interval (≈16.7 s on the prototype's 24-bit 1 MHz counter) alias,
// exactly as on the real hardware. The clock configuration selects the
// tick period and mask, so upgraded cards (the paper's future-work
// higher-precision clock and wider RAM) decode transparently.
//
// Feeding records one at a time keeps the decode O(1) in memory: the
// sweep engine streams a card's RAM straight into the reconstructor
// without ever materializing the event list.
type Decoder struct {
	tags *tagfile.File
	mask uint32
	tick sim.Time

	now   sim.Time
	last  uint32
	first bool

	// Monotonicity-repair state (see RepairConfig). A record whose delta
	// from the trusted timebase is implausibly large is held pending until
	// its successor arrives to arbitrate.
	repair     RepairConfig
	suspect    uint32 // deltas at or above this are implausible, in ticks
	pending    hw.Record
	hasPending bool
	suspectRun int

	records     int
	unknownTags int
	corrupt     int
	repaired    int
	resyncs     int
}

// RepairConfig tunes the decoder's timestamp-monotonicity repair: the
// hardened pipeline's defense against bit flips and jitter in the stored
// 24-bit stamps. A flipped high bit reads back as a huge modular interval;
// left alone it would teleport the timeline forward (and, via the unwrap
// guard, silently alias everything after it). Repair holds any record whose
// interval from the trusted timebase is implausibly large — at least
// DefaultSuspectTicks — until the next record arbitrates:
//
//   - successor agrees with the old timebase: the suspect stamp was a
//     glitch; the record keeps its place with an interpolated midpoint
//     time (counted in RepairedTimestamps).
//   - successor agrees with the suspect, and the suspect sits well ahead
//     of the timebase: the jump was real (a genuine long gap); both
//     decode exactly as without repair.
//   - successor agrees with the suspect, but the suspect sits only
//     slightly *behind* the timebase (a small backward modular distance):
//     the timebase itself overshot — an earlier corrupted stamp read as a
//     plausible forward jump and was accepted. The decoder rebases on the
//     suspect without advancing, so the overshoot is not compounded into
//     a full extra timer wrap.
//   - successor agrees with neither: the suspect is zero-advanced as
//     corrupt; after three consecutive unresolvable stamps the decoder
//     rebases its timeline on the newest one (counted in Resyncs).
//
// The heuristic is conservative by construction: captures whose inter-event
// gaps stay below the threshold decode byte-identically with repair on or
// off, and larger genuine gaps still decode identically as long as two
// consecutive records agree (the chain-accept case) — which is why the
// default threshold can sit at ≈4 ms, far below half the wrap yet far
// above any real inter-strobe gap, catching single-bit stamp flips down
// to bit 12. A genuine gap landing within the threshold of a full wrap is
// indistinguishable from a small backward glitch on this counter — the
// information is already gone — so repair prefers the glitch reading and
// trades that corner for surviving corruption.
type RepairConfig struct {
	// Enabled turns repair on. Off (the zero value) reproduces the
	// historical decoder exactly, record for record.
	Enabled bool
}

// DefaultSuspectTicks is the implausibility threshold: the smallest
// interval repair holds for arbitration, 4096 ticks (≈4 ms at the
// prototype card's 1 MHz), capped at half the wrap for narrow timers.
// Clean kernels strobe every few microseconds and even idle gaps stay well
// under a millisecond, while a corrupted stamp is usually wrong by a high
// timer bit — so the threshold sits orders of magnitude above real gaps
// and below real damage.
const DefaultSuspectTicks = 4096

// resyncAfter is how many consecutive unresolvable stamps force a rebase.
const resyncAfter = 3

// DefaultRepair is the hardened pipeline's repair configuration: enabled.
func DefaultRepair() RepairConfig { return RepairConfig{Enabled: true} }

// NewRepairingDecoder returns a decoder with the given monotonicity-repair
// configuration.
func NewRepairingDecoder(cfg hw.Config, tags *tagfile.File, repair RepairConfig) *Decoder {
	cfg = cfg.WithDefaults()
	d := &Decoder{tags: tags, mask: cfg.Mask(), tick: cfg.TickPeriod(), first: true, repair: repair,
		suspect: DefaultSuspectTicks}
	if half := d.mask/2 + 1; d.suspect > half {
		d.suspect = half // a very narrow test timer
	}
	// The tag file builds its resolution table on the first resolve.
	// Resolving here builds it on the goroutine that makes the decoder, so
	// a decoder run on another goroutine, and an analysis reading the same
	// file beside it, only ever read the table.
	tags.ResolveIndex(0)
	return d
}

// event builds the decoded event at the given time (see fill).
func (d *Decoder) event(r hw.Record, at sim.Time, repairedStamp bool) Event {
	var e Event
	d.fill(&e, r, at, repairedStamp)
	return e
}

// fill decodes r into e at the given time, resolving the tag and
// maintaining the corruption accounting. repairedStamp marks a record whose
// time was synthesized by the repair heuristics. It writes every field of
// e, so an event reused from record to record never carries a field of
// the record before.
func (d *Decoder) fill(e *Event, r hw.Record, at sim.Time, repairedStamp bool) {
	// An unknown tag resolves to index -1, no name and no switch flag.
	i, kind, name, ctx := d.tags.ResolveRecord(r.Tag)
	e.Time, e.Name, e.Tag, e.CtxSwitch, e.fnIdx = at, name, r.Tag, ctx, i+1
	isCorrupt := repairedStamp
	switch kind {
	case tagfile.FunctionEntry:
		e.Kind = Entry
	case tagfile.FunctionExit:
		e.Kind = Exit
	case tagfile.InlineTag:
		e.Kind = Inline
	default:
		e.Kind = Unknown
		d.unknownTags++
		isCorrupt = true
	}
	if isCorrupt {
		d.corrupt++
	}
}

// Push decodes one record through the repair pipeline, invoking emit for
// each event whose time is final. The unwrap is a modular difference
// against the previous stamp, so decoded time never moves backwards
// regardless of the raw stamp values (the out-of-order guard: a stamp that
// appears to regress reads as a near-wrap forward interval, as on the real
// counter). With repair disabled every record emits immediately at its
// unwrapped time; with repair enabled a suspect
// record is buffered until its successor arrives (or Flush is called), so
// one Push can emit zero, one, or two events.
func (d *Decoder) Push(r hw.Record, emit func(Event)) {
	d.records++
	if d.first {
		d.first = false
		d.last = r.Stamp
		emit(d.event(r, d.now, false))
		return
	}
	if !d.hasPending {
		delta := (r.Stamp - d.last) & d.mask
		if !d.repair.Enabled || delta < d.suspect {
			d.now += sim.Time(delta) * d.tick
			d.last = r.Stamp
			emit(d.event(r, d.now, false))
			return
		}
		d.pending, d.hasPending = r, true
		return
	}
	// A suspect is pending; r arbitrates.
	deltaSkip := (r.Stamp - d.last) & d.mask
	deltaChain := (r.Stamp - d.pending.Stamp) & d.mask
	switch {
	case deltaSkip < d.suspect:
		// r agrees with the trusted timebase: the pending stamp was a
		// glitch between two mutually consistent neighbours. Keep the
		// record, interpolate its time at the midpoint.
		d.repaired++
		emit(d.event(d.pending, d.now+sim.Time(deltaSkip/2)*d.tick, true))
		d.now += sim.Time(deltaSkip) * d.tick
		d.last = r.Stamp
		emit(d.event(r, d.now, false))
		d.hasPending, d.suspectRun = false, 0
	case deltaChain < d.suspect:
		if back := (d.last - d.pending.Stamp) & d.mask; back < d.suspect {
			// The suspect (and r, chained on it) sits only slightly
			// BEHIND the timebase: the timebase overshot — an earlier
			// corrupted stamp read as a plausible forward jump and was
			// accepted. Rebase on the suspect without advancing, so the
			// overshoot is not compounded into a near-full wrap.
			d.repaired++
			emit(d.event(d.pending, d.now, true))
			d.now += sim.Time(deltaChain) * d.tick
			d.last = r.Stamp
			emit(d.event(r, d.now, false))
			d.hasPending, d.suspectRun = false, 0
			return
		}
		// r agrees with the suspect, which sits well ahead of the
		// timebase: the jump was genuine (a long gap or a wholesale
		// timebase move). Accept both, exactly as the unrepaired
		// decoder would have.
		dp := (d.pending.Stamp - d.last) & d.mask
		d.now += sim.Time(dp) * d.tick
		emit(d.event(d.pending, d.now, false))
		d.now += sim.Time(deltaChain) * d.tick
		d.last = r.Stamp
		emit(d.event(r, d.now, false))
		d.hasPending, d.suspectRun = false, 0
	default:
		// r is far from both the timebase and the suspect: the suspect
		// is unresolvable. Zero-advance it as corrupt; r becomes the new
		// suspect, unless this has happened resyncAfter times in a row —
		// then the timebase has truly moved, and we rebase on r.
		d.repaired++
		emit(d.event(d.pending, d.now, true))
		d.suspectRun++
		if d.suspectRun >= resyncAfter {
			d.resyncs++
			d.last = r.Stamp
			emit(d.event(r, d.now, false))
			d.hasPending, d.suspectRun = false, 0
			return
		}
		d.pending = r
	}
}

// Flush emits any record still held by the repair buffer. An end-of-stream
// suspect has no successor to arbitrate, so it is zero-advanced as corrupt
// rather than allowed to yank the capture's end far forward.
func (d *Decoder) Flush(emit func(Event)) {
	if !d.hasPending {
		return
	}
	d.hasPending = false
	d.repaired++
	emit(d.event(d.pending, d.now, true))
}

// Stats reports what the decoder has seen so far. Overflowed and Dropped
// describe the card, not the decode, so the caller fills them in.
func (d *Decoder) Stats() DecodeStats {
	return DecodeStats{
		Records:            d.records,
		UnknownTags:        d.unknownTags,
		CorruptRecords:     d.corrupt,
		RepairedTimestamps: d.repaired,
		Resyncs:            d.resyncs,
	}
}
