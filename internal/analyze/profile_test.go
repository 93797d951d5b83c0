package analyze

import (
	"fmt"
	"slices"
	"testing"

	"kprof/internal/hw"
)

// walkProfile is the reference for the streaming fold: the walk the pprof
// export made over a finished trace before the reconstruction folded the
// profile itself. It visits every root that exited at depth 0, in trace
// order, and each tree in pre-order (a node, then its callees in entry
// order), numbering functions by name as it first meets them. It keys its
// trie in a map of its own rather than through Profile.path, so a fault in
// the fold's lookup shows as a difference.
func walkProfile(a *Analysis) *Profile {
	ref := &Profile{}
	ids := map[string]int32{}
	type edge struct{ parent, fn int32 }
	paths := map[edge]int32{}
	var walk func(parent int32, n *Node)
	walk = func(parent int32, n *Node) {
		id, ok := ids[n.Name]
		if !ok {
			ref.funcs = append(ref.funcs, n.Name)
			id = int32(len(ref.funcs))
			ids[n.Name] = id
		}
		ix, ok := paths[edge{parent, id}]
		if !ok {
			ix = int32(len(ref.paths))
			ref.paths = append(ref.paths, ProfilePath{Parent: parent, Fn: id})
			paths[edge{parent, id}] = ix
		}
		if n.Complete {
			p := &ref.paths[ix]
			if p.Calls == 0 {
				ref.samples = append(ref.samples, ix)
			}
			p.Calls++
			p.NS += max(int64(n.Net()), 0)
			p.Elapsed += n.Elapsed()
		}
		for c := n.FirstChild(); c != nil; c = c.NextSibling() {
			walk(ix, c)
		}
	}
	for _, it := range a.Items() {
		if it.Kind == TraceExit && it.Node != nil && it.Depth == 0 {
			walk(-1, it.Node)
		}
	}
	return ref
}

// CheckProfile compares a's folded profile with the reference walk of its
// trace: the same functions in the same order, the same paths with the
// same calls, net and elapsed time, and the same samples in the same
// order. It reports the profile's summed sample calls. Exported for the
// external test package's fuzz target.
func CheckProfile(a *Analysis) (int64, error) {
	got, want := a.Profile(), walkProfile(a)
	if !slices.Equal(got.funcs, want.funcs) {
		return 0, fmt.Errorf("fold numbers functions %q, the walk %q", got.funcs, want.funcs)
	}
	for i := range min(len(got.paths), len(want.paths)) {
		if got.paths[i] != want.paths[i] {
			return 0, fmt.Errorf("path %d: fold %+v, walk %+v", i, got.paths[i], want.paths[i])
		}
	}
	if len(got.paths) != len(want.paths) {
		return 0, fmt.Errorf("fold has %d paths, the walk %d", len(got.paths), len(want.paths))
	}
	if !slices.Equal(got.samples, want.samples) {
		return 0, fmt.Errorf("fold samples paths %v, the walk %v", got.samples, want.samples)
	}
	var calls int64
	for _, ix := range got.samples {
		calls += got.paths[ix].Calls
	}
	return calls, nil
}

// The fold matches the reference walk on busy synthetic captures — nested
// calls, context switches with adoption, inline marks, unknown tags — cut
// into segments with a lossy boundary in the middle, and never recycles a
// node twice.
func TestFoldMatchesWalk(t *testing.T) {
	tags := mustTags(t)
	for seed := uint64(1); seed <= 200; seed++ {
		c := pseudoCapture(seed, 600)
		n := len(c.Records)
		segs := []hw.Capture{
			{Records: c.Records[:n/3]},
			{Records: c.Records[n/3 : 2*n/3], Dropped: seed % 2},
			{Records: c.Records[2*n/3:]},
		}
		a := Stitch(segs, tags, ReconstructOptions{})
		calls, err := CheckProfile(a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if calls == 0 {
			t.Fatalf("seed %d: profile holds no sample", seed)
		}
		if _, err := CheckConservation(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		rc := NewReconstructor(hw.Config{}, tags, ReconstructOptions{})
		for _, seg := range segs {
			rc.PushBatch(seg.Records)
			rc.EndSegment(seg.Dropped, false)
		}
		seen := map[*Node]bool{}
		for _, nd := range rc.rec.freeNodes {
			if seen[nd] {
				t.Fatalf("seed %d: node %q recycled twice", seed, nd.Name)
			}
			seen[nd] = true
		}
	}
}
