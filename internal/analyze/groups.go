package analyze

import (
	"fmt"
	"io"
	"sort"

	"kprof/internal/sim"
)

// Subsystem grouping: fold the per-function statistics into kernel
// subsystems ("groupings of functions into separate subsystems", from the
// paper's future-work list). The grouping is a name→subsystem map, usually
// derived from the kernel's module table.
type GroupStat struct {
	Name   string
	Fns    int
	Calls  int
	Net    sim.Time
	PctNet float64
}

// Groups aggregates function stats by the given name→group mapping;
// functions absent from the map fall into "other".
func (a *Analysis) Groups(groupOf map[string]string) []*GroupStat {
	agg := make(map[string]*GroupStat)
	run := a.RunTime()
	for _, s := range a.Functions() {
		if s.CtxSwitch {
			continue // idle is accounted in the header, not a subsystem
		}
		g := groupOf[s.Name]
		if g == "" {
			g = "other"
		}
		gs, ok := agg[g]
		if !ok {
			gs = &GroupStat{Name: g}
			agg[g] = gs
		}
		gs.Fns++
		gs.Calls += s.Calls
		gs.Net += s.Net
	}
	out := make([]*GroupStat, 0, len(agg))
	for _, gs := range agg {
		if run > 0 {
			gs.PctNet = 100 * float64(gs.Net) / float64(run)
		}
		out = append(out, gs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Net != out[j].Net {
			return out[i].Net > out[j].Net
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteGroups renders the subsystem breakdown.
func WriteGroups(w io.Writer, groups []*GroupStat) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "%-16s %6s %8s %10s %7s\n", "subsystem", "fns", "calls", "net us", "% net")
	for _, g := range groups {
		fmt.Fprintf(ew, "%-16s %6d %8d %10d %6.2f%%\n", g.Name, g.Fns, g.Calls, g.Net.Micros(), g.PctNet)
	}
	return ew.err
}
