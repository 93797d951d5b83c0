// Package pgo closes the paper's loop: it feeds a captured profile back
// into the next measurement and into the kernel itself.
//
// The paper's closing argument is that "accurate before and after
// measurements may be made to test the success of such changes". Two
// pieces make that automatic here:
//
//   - the instrumentation-budget optimizer (Optimize): given a prior
//     profile and a tag or trigger-overhead budget, choose which
//     functions to instrument so the next run attributes the most net
//     time per nanosecond of trigger overhead — the
//     Metz/Lencevicius-style "spend the instrumentation where it buys
//     attributed time" problem, solved exactly;
//   - the optimize-verify loop (RunLoop): a registry of proposed kernel
//     cost changes that the loop applies to the simulated kernel,
//     re-profiles under the same seed and scenario, and verifies against
//     the what-if estimate, emitting a differential report with a
//     roofline-style bottleneck classification.
package pgo

import (
	"fmt"
	"io"
	"sort"

	"kprof/internal/analyze"
	"kprof/internal/instrument"
	"kprof/internal/sim"
	"kprof/internal/sweep"
)

// DefaultTriggerNs is the cost of one EPROM-window trigger load on the
// prototype: ≈200 ns, two per instrumented call (entry + exit).
const DefaultTriggerNs = 200

// Candidate is one function the optimizer may choose to instrument, with
// its footprint in the prior profile.
type Candidate struct {
	Name   string
	Module string // object module; empty when unknown
	NetNs  int64  // attributed net time in the prior profile, ns
	Calls  int64  // call count in the prior profile
}

// Overhead is the trigger overhead instrumenting this function adds to a
// run shaped like the prior profile: two triggers per call.
func (c Candidate) Overhead(triggerNs int64) int64 { return 2 * c.Calls * triggerNs }

// Budget bounds an instrumentation plan. A zero field means that
// dimension is unconstrained.
type Budget struct {
	// Tags bounds the name/tag file space the plan may spend; every
	// instrumented function costs an entry/exit pair (2 tags).
	Tags int
	// OverheadNs bounds the total trigger overhead the plan may add to a
	// run shaped like the prior profile.
	OverheadNs int64
	// TriggerNs is the per-trigger cost; 0 means DefaultTriggerNs.
	TriggerNs int64
}

func (b Budget) triggerNs() int64 {
	if b.TriggerNs > 0 {
		return b.TriggerNs
	}
	return DefaultTriggerNs
}

// Plan is a concrete instrumentation choice.
type Plan struct {
	// Picks are the chosen functions in canonical order: attributed net
	// time per overhead ns descending, ties by net descending then name.
	Picks []Candidate
	// NetNs is the prior-profile net time the plan attributes.
	NetNs int64
	// OverheadNs is the trigger overhead the plan spends.
	OverheadNs int64
	// TagsUsed counts the tag pairs × 2 the plan consumes.
	TagsUsed int
	// Considered counts the candidates the optimizer weighed (those with
	// positive attributed time that fit the overhead budget alone).
	Considered int
}

// Functions lists the chosen function names sorted alphabetically — the
// form instrument.Options consumes.
func (p *Plan) Functions() []string {
	names := make([]string, len(p.Picks))
	for i, c := range p.Picks {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// Options converts the plan into instrumentation options for the next
// session: per-function selection, whole-kernel module scope.
func (p *Plan) Options() instrument.Options {
	return instrument.Options{Functions: p.Functions()}
}

// Write renders the plan, picks in canonical order.
func (p *Plan) Write(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "instrumentation plan: %d functions (%d tags), %d us attributed, %d us trigger overhead\n",
		len(p.Picks), p.TagsUsed, p.NetNs/1000, p.OverheadNs/1000)
	fmt.Fprintf(ew, "%-20s %-14s %10s %8s %8s\n", "function", "module", "net us", "calls", "ovh us")
	for _, c := range p.Picks {
		mod := c.Module
		if mod == "" {
			mod = "-"
		}
		fmt.Fprintf(ew, "%-20s %-14s %10d %8d %8d\n",
			c.Name, mod, c.NetNs/1000, c.Calls, c.Overhead(DefaultTriggerNs)/1000)
	}
	return ew.err
}

// CandidatesFromAnalysis extracts optimizer candidates from a prior
// profile. moduleOf (from core.Machine.ModuleOf) labels candidates with
// their object module; nil leaves modules empty. Context-switch
// pseudo-functions are excluded — their tags are structural, not
// discretionary.
func CandidatesFromAnalysis(a *analyze.Analysis, moduleOf map[string]string) []Candidate {
	var out []Candidate
	for _, s := range a.Functions() {
		if s.CtxSwitch {
			continue
		}
		out = append(out, Candidate{
			Name:   s.Name,
			Module: moduleOf[s.Name],
			NetNs:  int64(s.Net),
			Calls:  int64(s.Calls),
		})
	}
	return out
}

// CandidatesFromAggregate extracts candidates from a cross-seed sweep
// aggregate, using each function's mean net time and mean call count.
func CandidatesFromAggregate(agg *sweep.Aggregate) []Candidate {
	var out []Candidate
	for _, f := range agg.Fns {
		out = append(out, Candidate{
			Name:  f.Name,
			NetNs: int64(f.NetUS.Mean * 1000),
			Calls: int64(f.Calls.Mean + 0.5),
		})
	}
	return out
}

// Optimize chooses the candidate set that maximizes attributed net time
// subject to the budget, exactly: a branch-and-bound search over the
// candidates in density order whose bound is the tighter of the
// fractional-knapsack relaxation (overhead budget alone) and the
// top-k relaxation (tag budget alone), so no pruned branch can beat the
// incumbent. Candidates with no attributed time are never picked. The
// result is deterministic for a given candidate multiset regardless of
// input order; among equally-attributed optima the densest-first search
// order decides.
func Optimize(cands []Candidate, b Budget) *Plan {
	triggerNs := b.triggerNs()
	overCap := b.OverheadNs
	if overCap <= 0 {
		overCap = int64(1) << 62
	}
	maxPick := len(cands)
	if b.Tags > 0 && b.Tags/2 < maxPick {
		maxPick = b.Tags / 2
	}

	// Canonical order: density (net per overhead ns) descending via
	// cross-multiplication, zero-overhead candidates first; ties by net
	// descending, then name ascending — a total order, so the search (and
	// the plan) is input-order independent.
	cs := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.NetNs <= 0 || c.Overhead(triggerNs) > overCap {
			continue
		}
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool {
		oi, oj := cs[i].Overhead(triggerNs), cs[j].Overhead(triggerNs)
		// density_i > density_j  ⇔  net_i × ovh_j > net_j × ovh_i
		di, dj := cs[i].NetNs*oj, cs[j].NetNs*oi
		if di != dj {
			return di > dj
		}
		if cs[i].NetNs != cs[j].NetNs {
			return cs[i].NetNs > cs[j].NetNs
		}
		return cs[i].Name < cs[j].Name
	})

	plan := &Plan{Considered: len(cs)}
	if maxPick <= 0 || len(cs) == 0 {
		return plan
	}

	over := make([]int64, len(cs))
	for i, c := range cs {
		over[i] = c.Overhead(triggerNs)
	}
	// topNet[i] holds cs[i:]'s net values sorted descending, cumulated:
	// topNet[i][k] is the best possible net from any k+1 picks out of the
	// suffix, ignoring overhead — the tag-budget relaxation.
	topNet := make([][]int64, len(cs)+1)
	topNet[len(cs)] = nil
	suffix := []int64{}
	for i := len(cs) - 1; i >= 0; i-- {
		suffix = append(suffix, cs[i].NetNs)
		sorted := append([]int64(nil), suffix...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
		for k := 1; k < len(sorted); k++ {
			sorted[k] += sorted[k-1]
		}
		topNet[i] = sorted
	}

	bound := func(i, picked int, over64 int64) int64 {
		pl := maxPick - picked
		if pl <= 0 || i >= len(cs) {
			return 0
		}
		// Tag-budget relaxation: the pl biggest nets in the suffix.
		k := pl
		if k > len(topNet[i]) {
			k = len(topNet[i])
		}
		card := topNet[i][k-1]
		// Overhead relaxation: fractional knapsack in density order.
		var frac int64
		rc := overCap - over64
		for j := i; j < len(cs); j++ {
			if over[j] <= rc {
				frac += cs[j].NetNs
				rc -= over[j]
				continue
			}
			if over[j] > 0 && rc > 0 {
				frac += cs[j].NetNs * rc / over[j]
			}
			break
		}
		if frac < card {
			return frac
		}
		return card
	}

	var bestNet, bestOver int64 = 0, 0
	var bestPicks []int
	cur := make([]int, 0, maxPick)
	var dfs func(i, picked int, net, used int64)
	dfs = func(i, picked int, net, used int64) {
		if net > bestNet {
			bestNet, bestOver = net, used
			bestPicks = append(bestPicks[:0], cur...)
		}
		if i >= len(cs) || picked >= maxPick {
			return
		}
		if net+bound(i, picked, used) <= bestNet {
			return
		}
		if used+over[i] <= overCap {
			cur = append(cur, i)
			dfs(i+1, picked+1, net+cs[i].NetNs, used+over[i])
			cur = cur[:len(cur)-1]
		}
		dfs(i+1, picked, net, used)
	}
	dfs(0, 0, 0, 0)

	plan.NetNs, plan.OverheadNs = bestNet, bestOver
	plan.TagsUsed = 2 * len(bestPicks)
	plan.Picks = make([]Candidate, len(bestPicks))
	for i, idx := range bestPicks {
		plan.Picks[i] = cs[idx]
	}
	return plan
}

// errWriter folds the first write error, the report-writer idiom shared
// with internal/analyze.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, nil
}

// us renders a sim.Time in microseconds for reports.
func us(t sim.Time) int64 { return t.Micros() }
