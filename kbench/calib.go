package main

import (
	"sort"
	"strconv"
	"time"
)

// On a shared 2-core virtual machine the host's speed drifts by 10-40 %
// from one minute to the next, far more than any bound a regression check
// could use. The driving process therefore times a fixed calibration
// workload that runs no kprof code just before it starts each repeat
// process, and the end-to-end times are reported at a reference speed:
// raw × calibReference / calibration. A change to kprof moves the repeat,
// not the calibration, so it still shows; a host that is slower for a
// minute moves both.

// calibReference is the calibration time that defines the reference host
// speed: about what the calibration takes on such a host when it is quiet,
// so reported figures stay close to raw wall time.
const calibReference = 14 * time.Millisecond

// calibRepeats is how many calibration passes the median is taken over.
const calibRepeats = 3

// calibNode is one frame of the calibration's synthetic call tree.
type calibNode struct {
	parent   *calibNode
	children []*calibNode
	name     string
	elapsed  int64
	calls    int
}

// calibSink keeps the calibration's result live.
var calibSink int64

// calibrate returns the median time of calibRepeats calibration passes.
func calibrate() time.Duration {
	ds := make([]float64, calibRepeats)
	for i := range ds {
		ds[i] = float64(calibratePass())
	}
	return time.Duration(median(ds))
}

// calibratePass builds and folds a call-tree-like structure, the kind of
// work reconstruction does: small pointerful allocations, slice appends,
// map lookups by function name, a sort, and the garbage collection they
// cause. The pseudo-random walk is fixed, so every pass does the same work.
func calibratePass() time.Duration {
	t := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	names := make([]string, 256)
	for i := range names {
		names[i] = "fn_" + strconv.Itoa(i)
	}
	stats := make(map[string]*calibNode, len(names))
	root := &calibNode{name: "root"}
	cur, depth := root, 0
	for i := 0; i < 150000; i++ {
		r := next()
		if r&3 != 0 && depth < 40 {
			n := &calibNode{parent: cur, name: names[r>>8&255], elapsed: int64(r >> 40 & 0xFF)}
			cur.children = append(cur.children, n)
			cur, depth = n, depth+1
		} else if cur.parent != nil {
			s := stats[cur.name]
			if s == nil {
				s = &calibNode{name: cur.name}
				stats[cur.name] = s
			}
			s.calls++
			s.elapsed += cur.elapsed
			cur.parent.elapsed += cur.elapsed
			cur, depth = cur.parent, depth-1
		}
	}
	all := make([]*calibNode, 0, len(stats))
	for _, s := range stats {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].elapsed > all[j].elapsed || all[i].elapsed == all[j].elapsed && all[i].name < all[j].name
	})
	calibSink += all[0].elapsed + int64(len(root.children))
	return time.Since(t)
}

// atReference scales a host duration measured while the calibration took
// calib to the reference host speed.
func atReference(d, calib time.Duration) time.Duration {
	if calib <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(calibReference) / float64(calib))
}
