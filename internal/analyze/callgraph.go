package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"kprof/internal/sim"
)

// Call-graph extraction — "a lot of analysis can be applied to the raw
// data". The reconstructed invocation trees carry exact caller/callee
// relationships (something the paper's gprof-era comparisons could only
// estimate statistically), so the arcs here are measured, not inferred.

// Arc is one caller→callee edge.
type Arc struct {
	Caller string // "" for top-level invocations
	Callee string
	Count  int
	// Time is the callee's in-context elapsed time attributed to calls
	// from this caller.
	Time sim.Time
}

// CallGraph is the aggregated arc set of a capture.
type CallGraph struct {
	arcs     map[[2]string]*Arc
	byCallee map[string][]*Arc
	byCaller map[string][]*Arc
}

// CallGraph builds the measured call graph of the capture from the
// analysis's call-path profile: each arc sums the profile paths that end
// in the callee under a path ending in the caller, and root paths are
// called from "" (rendered <top>). It therefore counts the invocations the
// pprof export holds, so complete invocations under a root that never
// exits (still open at capture end, force-closed, or parked in a
// suspended stack) are missing from its arcs.
func (a *Analysis) CallGraph() *CallGraph {
	g := &CallGraph{
		arcs:     make(map[[2]string]*Arc),
		byCallee: make(map[string][]*Arc),
		byCaller: make(map[string][]*Arc),
	}
	funcs, paths := a.prof.funcs, a.prof.paths
	for _, p := range paths {
		if p.Calls == 0 {
			continue
		}
		caller := ""
		if p.Parent >= 0 {
			caller = funcs[paths[p.Parent].Fn-1]
		}
		g.add(caller, funcs[p.Fn-1], int(p.Calls), p.Elapsed)
	}
	return g
}

func (g *CallGraph) add(caller, callee string, calls int, t sim.Time) {
	key := [2]string{caller, callee}
	arc, ok := g.arcs[key]
	if !ok {
		arc = &Arc{Caller: caller, Callee: callee}
		g.arcs[key] = arc
		g.byCallee[callee] = append(g.byCallee[callee], arc)
		g.byCaller[caller] = append(g.byCaller[caller], arc)
	}
	arc.Count += calls
	arc.Time += t
}

// Callers reports the arcs into callee, heaviest first.
func (g *CallGraph) Callers(callee string) []*Arc {
	out := append([]*Arc(nil), g.byCallee[callee]...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Caller < out[j].Caller
	})
	return out
}

// Callees reports the arcs out of caller, heaviest first.
func (g *CallGraph) Callees(caller string) []*Arc {
	out := append([]*Arc(nil), g.byCaller[caller]...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// Arcs reports every edge, heaviest first.
func (g *CallGraph) Arcs() []*Arc {
	out := make([]*Arc, 0, len(g.arcs))
	for _, arc := range g.arcs {
		out = append(out, arc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// WriteFunction renders one function's call-graph block: callers above,
// callees below, gprof-style.
func (g *CallGraph) WriteFunction(w io.Writer, name string) error {
	ew := &errWriter{w: w}
	callers := g.Callers(name)
	callees := g.Callees(name)
	if len(callers) == 0 && len(callees) == 0 {
		_, err := fmt.Fprintf(ew, "%s: no arcs\n", name)
		return err
	}
	for _, arc := range callers {
		from := arc.Caller
		if from == "" {
			from = "<top>"
		}
		fmt.Fprintf(ew, "    %8d calls %10d us   from %s\n", arc.Count, arc.Time.Micros(), from)
	}
	fmt.Fprintf(ew, "[%s]\n", name)
	for _, arc := range callees {
		fmt.Fprintf(ew, "    %8d calls %10d us   to   %s\n", arc.Count, arc.Time.Micros(), arc.Callee)
	}
	return ew.err
}

// Write renders the top arcs of the whole graph.
func (g *CallGraph) Write(w io.Writer, top int) error {
	ew := &errWriter{w: w}
	arcs := g.Arcs()
	if top > 0 && len(arcs) > top {
		arcs = arcs[:top]
	}
	fmt.Fprintf(ew, "%-24s %-24s %8s %12s\n", "caller", "callee", "calls", "callee us")
	for _, arc := range arcs {
		from := arc.Caller
		if from == "" {
			from = "<top>"
		}
		fmt.Fprintf(ew, "%-24s %-24s %8d %12d\n", from, arc.Callee, arc.Count, arc.Time.Micros())
	}
	return ew.err
}

// String renders the top 30 arcs.
func (g *CallGraph) String() string {
	var b strings.Builder
	_ = g.Write(&b, 30)
	return b.String()
}
