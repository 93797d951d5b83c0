package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"kprof/internal/sim"
)

// Timeline is a coarse graphical view of where CPU time went over the
// capture — per-subsystem activity intensity in fixed time buckets, the
// "graphically representing the code path" the paper's future-work section
// wants. Each cell holds the net time attributed to a group inside one
// bucket.
type Timeline struct {
	Start       sim.Time
	BucketWidth sim.Time
	Groups      []string // sorted by total, descending
	Cells       map[string][]sim.Time
	totals      map[string]sim.Time
}

// Timeline buckets net function time by groupOf over the capture span.
// Functions missing from groupOf fall into "other"; swtch/idle time is not
// attributed.
func (a *Analysis) Timeline(groupOf map[string]string, buckets int) *Timeline {
	if buckets <= 0 {
		buckets = 60
	}
	span := a.Elapsed()
	if span <= 0 {
		return &Timeline{BucketWidth: 1, Cells: map[string][]sim.Time{}}
	}
	width := (span + sim.Time(buckets) - 1) / sim.Time(buckets)
	tl := &Timeline{
		Start:       a.Start,
		BucketWidth: width,
		Cells:       make(map[string][]sim.Time),
		totals:      make(map[string]sim.Time),
	}
	add := func(group string, at sim.Time, amount sim.Time) {
		row, ok := tl.Cells[group]
		if !ok {
			row = make([]sim.Time, buckets)
			tl.Cells[group] = row
		}
		i := int((at - a.Start) / width)
		if i >= buckets {
			i = buckets - 1
		}
		if i < 0 {
			i = 0
		}
		row[i] += amount
		tl.totals[group] += amount
	}
	for _, it := range a.Items() {
		if it.Kind != TraceExit || it.Node == nil || !it.Node.Complete {
			continue
		}
		group := groupOf[it.Node.Name]
		if group == "" {
			group = "other"
		}
		// Attribute the whole net time at the midpoint of the frame —
		// coarse, but the buckets are coarse by design.
		mid := it.Node.Start + it.Node.Elapsed()/2
		add(group, mid, it.Node.Net())
	}
	for g := range tl.Cells {
		tl.Groups = append(tl.Groups, g)
	}
	sort.Slice(tl.Groups, func(i, j int) bool {
		if tl.totals[tl.Groups[i]] != tl.totals[tl.Groups[j]] {
			return tl.totals[tl.Groups[i]] > tl.totals[tl.Groups[j]]
		}
		return tl.Groups[i] < tl.Groups[j]
	})
	return tl
}

// intensity maps a fill fraction to a display character.
var intensity = []byte(" .:-=+*#%@")

// Write renders the timeline as rows of intensity characters, one per
// group, dark cells meaning the group dominated that interval.
func (tl *Timeline) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	if len(tl.Groups) == 0 {
		_, err := fmt.Fprintln(ew, "(empty capture)")
		return err
	}
	fmt.Fprintf(ew, "timeline: %v per cell, starting at %v\n", tl.BucketWidth, tl.Start)
	for _, g := range tl.Groups {
		row := tl.Cells[g]
		var b strings.Builder
		for _, v := range row {
			frac := float64(v) / float64(tl.BucketWidth)
			idx := int(frac * float64(len(intensity)))
			if idx >= len(intensity) {
				idx = len(intensity) - 1
			}
			if idx < 0 {
				idx = 0
			}
			b.WriteByte(intensity[idx])
		}
		fmt.Fprintf(ew, "%-10s |%s| %6d us\n", g, b.String(), tl.totals[g].Micros())
	}
	return ew.err
}

// String renders the timeline.
func (tl *Timeline) String() string {
	var b strings.Builder
	_ = tl.Write(&b)
	return b.String()
}
