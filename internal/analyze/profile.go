package analyze

import "kprof/internal/sim"

// Profile is a full analysis's call-path trie: one path per distinct
// root-first call stack, holding the complete invocations that ended it.
// The reconstruction folds a root's invocation tree into it when the root
// exits at depth 0, so the roots arrive in depth-0 exit order, and walks
// each tree in pre-order (a node, then its callees in entry order).
// Functions are numbered in that first-encounter order, and a path becomes
// a sample at its first complete invocation, which is what makes the pprof
// export byte-for-byte deterministic. An incomplete frame (force-closed,
// or open when the capture ended) adds its name to the stacks of its
// complete descendants but no sample of its own: its self time is
// unknowable.
//
// Invocations under a root that never exits — still open at capture end,
// force-closed, or parked in a suspended context — are not in the profile,
// although the summary times them. A root that completed while the
// resumed context was still unknown is folded at its own exit and again
// as part of the tree adoption splices it into.
type Profile struct {
	funcs   []string // function name per id (id = index+1)
	paths   []ProfilePath
	pathIx  map[uint64]int32 // pathKey -> index in paths
	samples []int32          // sampled paths, in first-encounter order
}

// ProfilePath is one trie node: a function called from its parent path.
type ProfilePath struct {
	// Parent is the caller's path index; -1 for a root frame.
	Parent int32
	// Fn is the function id: its index in Funcs plus one.
	Fn int32
	// Calls counts the complete invocations with this stack. NS sums their
	// net (self) time in nanoseconds, each clamped at zero; Elapsed sums
	// their in-context elapsed time.
	Calls   int64
	NS      int64
	Elapsed sim.Time
}

// Funcs reports the profile's function names in id order (id = index+1).
// Callers must not modify the slice.
func (p *Profile) Funcs() []string { return p.funcs }

// Paths reports every trie node; Parent and sample indices point into it.
// Callers must not modify the slice.
func (p *Profile) Paths() []ProfilePath { return p.paths }

// Samples reports the indices of the paths with at least one complete
// invocation, in first-encounter order. Callers must not modify the slice.
func (p *Profile) Samples() []int32 { return p.samples }

// pathKey packs a trie edge, a function under a parent path, into one map
// word: parent+1 in the high half (0 for a root frame), the function id in
// the low half.
func pathKey(parent, fn int32) uint64 {
	return uint64(parent+1)<<32 | uint64(uint32(fn))
}

// path returns the trie node for function fn called from parent, adding it
// on first sight.
func (p *Profile) path(parent, fn int32) int32 {
	k := pathKey(parent, fn)
	if ix, ok := p.pathIx[k]; ok {
		return ix
	}
	if p.pathIx == nil {
		p.pathIx = make(map[uint64]int32)
	}
	ix := int32(len(p.paths))
	p.paths = append(p.paths, ProfilePath{Parent: parent, Fn: fn})
	p.pathIx[k] = ix
	return ix
}

// fold adds the tree rooted at n, called from trie path parent, to the
// profile; with release set, every node of the tree returns to the free
// list once read. Nothing else may still reference a released tree.
func (r *reconstructor) fold(parent int32, n *Node, release bool) {
	p := &r.a.prof
	s := r.fnStatOf(n.Name, n.fn)
	if s.profID == 0 {
		p.funcs = append(p.funcs, s.Name)
		s.profID = int32(len(p.funcs))
	}
	ix := p.path(parent, s.profID)
	if n.Complete {
		ns := int64(n.Net())
		if ns < 0 {
			ns = 0
		}
		sp := &p.paths[ix]
		if sp.Calls == 0 {
			p.samples = append(p.samples, ix)
		}
		sp.Calls++
		sp.NS += ns
		sp.Elapsed += n.Elapsed()
	}
	for c := n.first; c != nil; {
		next := c.next
		r.fold(ix, c, release)
		c = next
	}
	if release {
		r.freeNode(n)
	}
}

// release returns n and every node linked under it to the free list
// without folding them.
func (r *reconstructor) release(n *Node) {
	for c := n.first; c != nil; {
		next := c.next
		r.release(c)
		c = next
	}
	r.freeNode(n)
}
