package export

import (
	"bufio"
	"io"
	"strconv"

	"kprof/internal/analyze"
	"kprof/internal/sim"
)

// Chrome trace_event export: the reconstructed nested frames become
// complete ("X") duration events in the JSON Object Format that Perfetto
// and chrome://tracing load directly. The context-switch splitting the
// analyzer already performs maps onto trace threads: every process context
// the reconstruction identifies gets its own tid (contexts reunified by
// stack adoption share one), and interrupt activity inside the idle loop
// lands on a dedicated tid 0 track. Drain-segment boundaries from
// continuous capture appear as global instant events — one per boundary,
// with lossy boundaries (dropped strobes, force-closed frames) named
// "drain loss" so capture gaps are visible on the timeline.

// Trace event names used for drain-segment boundary instants.
const (
	// TraceEventDrain marks a clean drain boundary.
	TraceEventDrain = "drain"
	// TraceEventDrainLoss marks a lossy drain boundary: strobes were
	// dropped between this segment's last record and the next one's
	// first, and every frame spanning the gap was force-closed.
	TraceEventDrainLoss = "drain loss"
	// TraceEventDecodeFaults marks a capture the hardened decoder had to
	// repair; its args carry the corruption accounting.
	TraceEventDecodeFaults = "decode faults"
)

// tracePID is the single simulated machine's process id in the trace.
const tracePID = 1

// idleTID is the track carrying interrupt frames that run in the idle
// loop (inside the context switcher).
const idleTID = 0

// blockSet is a union-find over context blocks: maximal runs of trace
// items between context-switch markers. A frame whose entry and exit fall
// in different blocks proves those blocks are the same process (the
// analyzer's stack adoption), so the blocks merge and share a tid.
type blockSet struct {
	parent []int
	idle   []bool
}

func (b *blockSet) add(idle bool) int {
	b.parent = append(b.parent, len(b.parent))
	b.idle = append(b.idle, idle)
	return len(b.parent) - 1
}

func (b *blockSet) find(x int) int {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}

func (b *blockSet) union(x, y int) {
	rx, ry := b.find(x), b.find(y)
	if rx == ry {
		return
	}
	// Keep the earlier block as root so tid numbering follows first
	// appearance order.
	if ry < rx {
		rx, ry = ry, rx
	}
	b.parent[ry] = rx
}

// traceUS renders a virtual time as trace_event microseconds: integral
// when the time is µs-aligned (the prototype card always is), three
// decimals otherwise (upgraded-clock captures). Deterministic, so trace
// output can be golden-tested byte for byte.
func traceUS(t sim.Time) string {
	if t%sim.Microsecond == 0 {
		return strconv.FormatInt(int64(t/sim.Microsecond), 10)
	}
	return strconv.FormatFloat(float64(t)/float64(sim.Microsecond), 'f', 3, 64)
}

// WriteChromeTrace writes the analysis as a Chrome trace_event JSON file
// (the JSON Object Format: {"traceEvents": [...]}) for Perfetto or
// chrome://tracing. It reads the trace timeline and invocation trees
// (Analysis.Items, built on first use), so an analysis without a trace —
// lean, or finished through a streaming Reconstructor — renders only
// metadata and segment boundaries.
//
// Read back with encoding/json, a trace with its timeline obeys one law
// per function: the "X" events not marked "complete":false number the
// function's FnStat.TimedCalls. The "drain" and "drain loss" instants
// number len(Analysis.Segments).
func WriteChromeTrace(w io.Writer, a *analyze.Analysis) error {
	bw := bufio.NewWriter(w)
	items := a.Items()

	// Pass 1: assign every item a context block and unify blocks joined
	// by a frame's entry/exit pair.
	blocks := &blockSet{}
	cur := blocks.add(false) // the initial context, before any switch
	itemBlock := make([]int, len(items))
	enterBlock := map[*analyze.Node]int{}
	for i, it := range items {
		switch it.Kind {
		case analyze.TraceSwitchOut:
			cur = blocks.add(true)
		case analyze.TraceSwitchIn:
			cur = blocks.add(false)
		case analyze.TraceEnter:
			enterBlock[it.Node] = cur
		case analyze.TraceExit:
			if eb, ok := enterBlock[it.Node]; ok && eb != cur {
				blocks.union(eb, cur)
			}
		}
		itemBlock[i] = cur
	}

	// Pass 2: number the process tracks in first-appearance order; all
	// idle blocks share the dedicated interrupt track.
	tids := map[int]int64{}
	next := int64(idleTID + 1)
	tidOf := func(block int) int64 {
		root := blocks.find(block)
		if blocks.idle[root] {
			return idleTID
		}
		tid, ok := tids[root]
		if !ok {
			tid = next
			next++
			tids[root] = tid
		}
		return tid
	}

	first := true
	emit := func(fields string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString("{")
		bw.WriteString(fields)
		bw.WriteString("}")
	}
	meta := func(name, value string, tid int64) {
		emit(`"name":` + strconv.Quote(name) +
			`,"ph":"M","pid":` + strconv.Itoa(tracePID) +
			`,"tid":` + strconv.FormatInt(tid, 10) +
			`,"args":{"name":` + strconv.Quote(value) + `}`)
	}

	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	meta("process_name", "kprof simulated kernel", 0)

	// Thread-name metadata: collect the tids actually used, in order.
	usedIdle := false
	for i, it := range items {
		if it.Kind == analyze.TraceEnter || it.Kind == analyze.TraceInline {
			if tidOf(itemBlock[i]) == idleTID {
				usedIdle = true
			}
		}
	}
	if usedIdle {
		meta("thread_name", "idle loop interrupts", idleTID)
	}
	// tids was populated by the scan above; re-emit names in tid order.
	for tid := int64(idleTID + 1); tid < next; tid++ {
		meta("thread_name", "context "+strconv.FormatInt(tid, 10), tid)
	}

	for i, it := range items {
		switch it.Kind {
		case analyze.TraceEnter:
			n := it.Node
			dur := n.End - n.Start
			if dur < 0 {
				dur = 0
			}
			f := `"name":` + strconv.Quote(n.Name) +
				`,"ph":"X","pid":` + strconv.Itoa(tracePID) +
				`,"tid":` + strconv.FormatInt(tidOf(itemBlock[i]), 10) +
				`,"ts":` + traceUS(n.Start) +
				`,"dur":` + traceUS(dur)
			if !n.Complete {
				f += `,"args":{"complete":false}`
			}
			emit(f)
		case analyze.TraceInline:
			emit(`"name":` + strconv.Quote(it.Node.Name) +
				`,"ph":"i","s":"t","pid":` + strconv.Itoa(tracePID) +
				`,"tid":` + strconv.FormatInt(tidOf(itemBlock[i]), 10) +
				`,"ts":` + traceUS(it.Time))
		}
	}

	// A capture the hardened decoder had to repair gets one global instant
	// at the capture start carrying the corruption accounting; clean
	// captures emit nothing, keeping golden traces byte-identical.
	if a.Stats.CorruptRecords > 0 {
		emit(`"name":` + strconv.Quote(TraceEventDecodeFaults) +
			`,"ph":"i","s":"g","pid":` + strconv.Itoa(tracePID) +
			`,"tid":` + strconv.Itoa(idleTID) +
			`,"ts":` + traceUS(a.Start) +
			`,"args":{"corrupt_records":` + strconv.Itoa(a.Stats.CorruptRecords) +
			`,"repaired_timestamps":` + strconv.Itoa(a.Stats.RepairedTimestamps) +
			`,"resyncs":` + strconv.Itoa(a.Stats.Resyncs) + `}`)
	}

	for _, seg := range a.Segments {
		name := TraceEventDrain
		if seg.Dropped > 0 {
			name = TraceEventDrainLoss
		}
		emit(`"name":` + strconv.Quote(name) +
			`,"ph":"i","s":"g","pid":` + strconv.Itoa(tracePID) +
			`,"tid":` + strconv.Itoa(idleTID) +
			`,"ts":` + traceUS(seg.End) +
			`,"args":{"segment":` + strconv.Itoa(seg.Index) +
			`,"records":` + strconv.Itoa(seg.Records) +
			`,"dropped_strobes":` + strconv.FormatUint(seg.Dropped, 10) +
			`,"force_closed_frames":` + strconv.Itoa(seg.ForceClosed) + `}`)
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}
