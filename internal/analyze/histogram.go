package analyze

import (
	"fmt"
	"io"
	"strings"

	"kprof/internal/sim"
)

// Histogram of a function's per-call elapsed times — one of the "more
// useful ways" of processing the raw data the paper's future-work section
// anticipates.
type Histogram struct {
	Name    string
	Buckets []Bucket
	Total   int
}

// Bucket is one histogram bin: [Lo, Hi) microseconds.
type Bucket struct {
	Lo, Hi sim.Time
	Count  int
}

// HistogramOf builds a log-2-bucketed histogram of every completed
// invocation of name. Each complete invocation has exactly one exit item
// in the trace, wherever its root ended up (exited, force-closed, still
// open or suspended at capture end), so the histogram counts the same
// invocations as the function's FnStat.TimedCalls.
func (a *Analysis) HistogramOf(name string) *Histogram {
	h := &Histogram{Name: name}
	var durations []sim.Time
	for _, it := range a.Items() {
		if it.Kind == TraceExit && it.Node != nil && it.Node.Complete && it.Node.Name == name {
			durations = append(durations, it.Node.Elapsed())
		}
	}
	if len(durations) == 0 {
		return h
	}
	// Log-2 buckets from 1 µs.
	lo := sim.Microsecond
	for {
		hi := lo * 2
		b := Bucket{Lo: lo, Hi: hi}
		for _, d := range durations {
			if d >= lo && d < hi {
				b.Count++
			}
		}
		// Include a catch-all first bucket for sub-µs calls.
		if lo == sim.Microsecond {
			for _, d := range durations {
				if d < sim.Microsecond {
					b.Count++
					b.Lo = 0
				}
			}
		}
		h.Buckets = append(h.Buckets, b)
		h.Total += b.Count
		if h.Total >= len(durations) {
			break
		}
		lo = hi
		if lo > sim.Second*16 {
			break
		}
	}
	return h
}

// Write renders the histogram as an ASCII bar chart.
func (h *Histogram) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "%s: %d calls\n", h.Name, h.Total)
	max := 0
	for _, b := range h.Buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range h.Buckets {
		if b.Count == 0 {
			continue
		}
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", 1+b.Count*40/max)
		}
		fmt.Fprintf(ew, "%8d-%-8d us %6d %s\n", b.Lo.Micros(), b.Hi.Micros(), b.Count, bar)
	}
	return ew.err
}

// String renders the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	_ = h.Write(&b)
	return b.String()
}
