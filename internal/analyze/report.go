package analyze

import (
	"fmt"
	"io"
	"strings"

	"kprof/internal/sim"
)

// errWriter passes writes through to w until one fails, then swallows
// the rest and remembers the first error — so report renderers can stay
// straight-line sequences of Fprintfs and still report a full disk or a
// closed pipe instead of pretending success.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// WriteSummary renders the per-function summary in the paper's Figure 3
// format: an overall header (elapsed, accumulated run time, idle time),
// then one line per function sorted by net CPU usage — elapsed, net,
// number of calls, (max/avg/min), % real, % net, name.
func (a *Analysis) WriteSummary(w io.Writer, top int) error {
	ew := &errWriter{w: w}
	elapsed := a.Elapsed()
	run := a.RunTime()
	var runPct, idlePct float64
	if elapsed > 0 {
		runPct = 100 * float64(run) / float64(elapsed)
		idlePct = 100 * float64(a.Idle) / float64(elapsed)
	}
	fmt.Fprintf(ew, "Elapsed time = %d sec %d us (%d tags)\n",
		elapsed/sim.Second, (elapsed%sim.Second)/sim.Microsecond, a.Stats.Records)
	fmt.Fprintf(ew, "Accumulated run time = %d sec %d us (%5.2f%%)\n",
		run/sim.Second, (run%sim.Second)/sim.Microsecond, runPct)
	fmt.Fprintf(ew, "Idle time = %d sec %d us (%5.2f%%)\n",
		a.Idle/sim.Second, (a.Idle%sim.Second)/sim.Microsecond, idlePct)
	// The corruption line appears only when the decoder found damage, so
	// clean captures render byte-identically to the unhardened pipeline.
	if a.Stats.CorruptRecords > 0 {
		fmt.Fprintf(ew, "Corrupt records = %d (%d timestamps repaired, %d resyncs)\n",
			a.Stats.CorruptRecords, a.Stats.RepairedTimestamps, a.Stats.Resyncs)
	}
	fmt.Fprintln(ew, strings.Repeat("-", 72))
	fmt.Fprintf(ew, "%9s %9s %8s %18s %8s %8s   %s\n",
		"Elapsed", "Net", "# calls", "(max/avg/min)", "% real", "% net", "")
	stats := a.Functions()
	if top > 0 && len(stats) > top {
		stats = stats[:top]
	}
	for _, s := range stats {
		if s.CtxSwitch {
			continue // idle is reported in the header
		}
		var pctReal, pctNet float64
		if elapsed > 0 {
			pctReal = 100 * float64(s.Net) / float64(elapsed)
		}
		if run > 0 {
			pctNet = 100 * float64(s.Net) / float64(run)
		}
		fmt.Fprintf(ew, "%9d %9d %8d %18s %7.2f%% %7.2f%%   %s\n",
			s.Elapsed.Micros(), s.Net.Micros(), s.Calls,
			fmt.Sprintf("(%d/%d/%d)", s.Max.Micros(), s.Avg().Micros(), s.MinOrZero().Micros()),
			pctReal, pctNet, s.Name)
	}
	return ew.err
}

// SummaryString renders the summary to a string.
func (a *Analysis) SummaryString(top int) string {
	var b strings.Builder
	_ = a.WriteSummary(&b, top)
	return b.String()
}

// WriteSegments renders the drain-segment summary of a stitched capture:
// one line per readout with its record count, end-boundary time, and, for
// lossy boundaries, the strobes dropped and frames force-closed there.
// Every loss the card suffered is on this table — nothing is lost
// silently. The column vocabulary ("dropped" strobes, "force-closed"
// frames) matches the JSON report's dropped_strobes / force_closed_frames
// fields; see DESIGN.md's schema section.
func (a *Analysis) WriteSegments(w io.Writer) error {
	ew := &errWriter{w: w}
	if len(a.Segments) == 0 {
		fmt.Fprintln(ew, "single capture (no drain segments)")
		return ew.err
	}
	var records, forced, corrupt int
	var dropped uint64
	for _, s := range a.Segments {
		records += s.Records
		dropped += s.Dropped
		forced += s.ForceClosed
		corrupt += s.Corrupt
	}
	fmt.Fprintf(ew, "Drained %d segments: %d records, %d strobes dropped, %d frames force-closed\n",
		len(a.Segments), records, dropped, forced)
	// The corrupt column is appended only for damaged captures, so clean
	// segment tables stay byte-identical to the unhardened pipeline's.
	if corrupt > 0 {
		fmt.Fprintf(ew, "%5s %9s %10s %9s %13s %8s\n", "seg", "records", "end us", "dropped", "force-closed", "corrupt")
	} else {
		fmt.Fprintf(ew, "%5s %9s %10s %9s %13s\n", "seg", "records", "end us", "dropped", "force-closed")
	}
	for _, s := range a.Segments {
		mark := ""
		if s.Overflowed {
			mark = "  overflow LED"
		}
		if corrupt > 0 {
			fmt.Fprintf(ew, "%5d %9d %10d %9d %13d %8d%s\n",
				s.Index, s.Records, s.End.Micros(), s.Dropped, s.ForceClosed, s.Corrupt, mark)
		} else {
			fmt.Fprintf(ew, "%5d %9d %10d %9d %13d%s\n",
				s.Index, s.Records, s.End.Micros(), s.Dropped, s.ForceClosed, mark)
		}
	}
	return ew.err
}

// SegmentsString renders the segment summary to a string.
func (a *Analysis) SegmentsString() string {
	var b strings.Builder
	_ = a.WriteSegments(&b)
	return b.String()
}

// TraceOptions controls the code-path trace rendering.
type TraceOptions struct {
	// From starts the rendered window; it runs to the end of the capture.
	From sim.Time
	// MaxLines bounds output; 0 means unlimited.
	MaxLines int
}

// WriteTrace renders the real-time code-path trace in the paper's Figure 4
// format: a timestamp, nesting by call depth, "-> name (net us, total us)"
// on entries (total omitted for leaves), bare "<-" on exits (annotated for
// frames whose entry line was outside the window), '==' inline marks, and
// context-switch flags.
func (a *Analysis) WriteTrace(w io.Writer, opts TraceOptions) error {
	ew := &errWriter{w: w}
	lines := 0
	for _, it := range a.Items() {
		if it.Time < opts.From {
			continue
		}
		if opts.MaxLines > 0 && lines >= opts.MaxLines {
			fmt.Fprintf(ew, "... (truncated at %d lines)\n", opts.MaxLines)
			break
		}
		indent := strings.Repeat("    ", int(it.Depth))
		switch it.Kind {
		case TraceEnter:
			n := it.Node
			if n.first == nil && !n.marked {
				fmt.Fprintf(ew, "%s %s-> %s (%d us)\n", it.Time, indent, n.Name, n.Net().Micros())
			} else {
				fmt.Fprintf(ew, "%s %s-> %s (%d us, %d total)\n",
					it.Time, indent, n.Name, n.Net().Micros(), n.Elapsed().Micros())
			}
		case TraceExit:
			n := it.Node
			// Exits are annotated when the matching entry is far away
			// (after a context switch), as Figure 4's "<- tsleep".
			if n.Start < opts.From || n.outOfContext > 0 {
				fmt.Fprintf(ew, "%s %s<- %s (%d us, %d total)\n",
					it.Time, indent, n.Name, n.Net().Micros(), n.Elapsed().Micros())
			} else {
				fmt.Fprintf(ew, "%s %s<-\n", it.Time, indent)
			}
		case TraceInline:
			fmt.Fprintf(ew, "%s %s== %s\n", it.Time, indent, it.Node.Name)
		case TraceSwitchOut:
			fmt.Fprintf(ew, "%s -> swtch ---- Context switch out ----\n", it.Time)
		case TraceSwitchIn:
			fmt.Fprintf(ew, "%s <- ---- Context switch in ----\n", it.Time)
		}
		lines++
	}
	return ew.err
}

// TraceString renders the trace to a string.
func (a *Analysis) TraceString(opts TraceOptions) string {
	var b strings.Builder
	_ = a.WriteTrace(&b, opts)
	return b.String()
}
