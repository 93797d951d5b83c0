package analyze

import (
	"math"
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

// pseudoCapture builds a busy synthetic capture: nested calls, context
// switches, inline marks, unknown tags, and stamp gaps that wrap the
// 24-bit counter, driven by a deterministic PRNG.
func pseudoCapture(seed uint64, n int) hw.Capture {
	r := sim.NewRand(seed)
	var c hw.Capture
	stamp := uint32(r.Uint64())
	tags := []uint32{500, 501, 502, 503, 504, 505, 506, 507, 600, 601, 1002, 9999}
	for i := 0; i < n; i++ {
		stamp = (stamp + uint32(r.Intn(200_000))) & hw.TimerMask
		tag := tags[r.Intn(len(tags))]
		c.Records = append(c.Records, hw.Record{Tag: uint16(tag), Stamp: stamp})
	}
	c.Overflowed = true
	c.Dropped = 7
	return c
}

// PseudoCapture and MustTags hand pseudoCapture and the test tag file to
// the external test package.
var (
	PseudoCapture = pseudoCapture
	MustTags      = mustTags
)

// Discarding the trace must not change the statistics, and must actually
// discard the trace and the profile.
func TestStreamingLeanDropsBulk(t *testing.T) {
	tags := mustTags(t)
	c := pseudoCapture(42, 2000)
	batch := ReconstructCapture(c, tags, ReconstructOptions{})

	rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{DiscardTrace: true})
	for _, r := range c.Records {
		rc.Push(r)
	}
	lean := rc.Finish(c.Overflowed, c.Dropped)

	if len(lean.Items()) != 0 {
		t.Fatalf("lean analysis retained %d trace items", len(lean.Items()))
	}
	if p := lean.Profile(); len(p.Funcs()) != 0 || len(p.Paths()) != 0 || len(p.Samples()) != 0 {
		t.Fatalf("lean analysis folded %d functions and %d paths", len(p.Funcs()), len(p.Paths()))
	}
	if got, want := lean.SummaryString(0), batch.SummaryString(0); got != want {
		t.Fatalf("lean summary differs\n--- lean ---\n%s--- batch ---\n%s", got, want)
	}
	if lean.Idle != batch.Idle || lean.Start != batch.Start || lean.End != batch.End {
		t.Fatal("lean accounting differs")
	}
}

func TestAccAddAndMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var whole Acc
	for _, x := range xs {
		whole.Add(x)
	}
	var left, right Acc
	for _, x := range xs[:4] {
		left.Add(x)
	}
	for _, x := range xs[4:] {
		right.Add(x)
	}
	left.Merge(right)
	if left.N != whole.N || left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatalf("merge counts/extremes: %+v vs %+v", left, whole)
	}
	if math.Abs(left.Mean-whole.Mean) > 1e-12 || math.Abs(left.Std()-whole.Std()) > 1e-12 {
		t.Fatalf("merge moments: mean %v vs %v, std %v vs %v", left.Mean, whole.Mean, left.Std(), whole.Std())
	}
	// Sanity against the direct formulas.
	mean := 44.0 / 11
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	// Sample standard deviation: N−1 divisor (11 observations).
	if math.Abs(whole.Mean-mean) > 1e-12 || math.Abs(whole.Std()-math.Sqrt(ss/10)) > 1e-12 {
		t.Fatalf("wrong moments: %v, %v", whole.Mean, whole.Std())
	}
	// Merge into empty and merge of empty.
	var empty Acc
	empty.Merge(whole)
	if empty != whole {
		t.Fatal("merge into empty lost state")
	}
	whole.Merge(Acc{})
	if empty != whole {
		t.Fatal("merging an empty accumulator changed state")
	}
}

func TestAccCV(t *testing.T) {
	var a Acc
	for _, x := range []float64{10, 10, 10} {
		a.Add(x)
	}
	if a.CV() != 0 {
		t.Fatalf("constant series CV = %v", a.CV())
	}
	var z Acc
	z.Add(0)
	z.Add(0)
	if z.CV() != 0 {
		t.Fatalf("zero-mean CV = %v", z.CV())
	}
}
