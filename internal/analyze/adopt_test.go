package analyze

import (
	"strings"
	"testing"

	"kprof/internal/sim"
)

// The Figure 4 resume shape: between "Context switch in" and the orphan
// tsleep exit there are completed calls (splx in the paper's trace). Those
// tentative frames must be spliced in as children of the resumed frame.
//
// Tag file: a=500, b=502 (stands in for tsleep), c=504 (stands in for
// splx), swtch=600!.
func TestAdoptSplicesTentativeFrames(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0},   // a enter       (process A)
		[2]uint32{502, 10},  // b enter       (A blocks inside b)
		[2]uint32{600, 20},  // swtch enter   -> idle
		[2]uint32{601, 60},  // swtch exit    -> pending resume
		[2]uint32{504, 65},  // c enter       (balanced call before the orphan exit)
		[2]uint32{505, 75},  // c exit
		[2]uint32{503, 90},  // b exit        <- orphan: adopts A's stack
		[2]uint32{501, 100}, // a exit
	))
	sb, ok := a.Fn("b")
	if !ok {
		t.Fatal("b missing")
	}
	// b in-context: 10..90 minus 20..60 switched out = 40; minus child c
	// (10) = net 30.
	if sb.Elapsed != 40*sim.Microsecond {
		t.Fatalf("b elapsed = %v, want 40 µs", sb.Elapsed)
	}
	if sb.Net != 30*sim.Microsecond {
		t.Fatalf("b net = %v, want 30 µs (c spliced in as child)", sb.Net)
	}
	// And c must appear as a child of b in the tree.
	var bNode *Node
	for _, it := range a.Items() {
		if it.Kind == TraceExit && it.Node != nil && it.Node.Name == "b" {
			bNode = it.Node
		}
	}
	if bNode == nil {
		t.Fatal("no exit item for b")
	}
	if c := bNode.FirstChild(); c == nil || c.Name != "c" || c.NextSibling() != nil {
		t.Fatalf("b's children start at %+v, want c alone", c)
	}
	if a.OrphanExits != 0 {
		t.Fatalf("orphan exits = %d", a.OrphanExits)
	}
	if a.Idle != 40*sim.Microsecond {
		t.Fatalf("idle = %v", a.Idle)
	}
}

// Two suspended processes sleeping in the same function: adoption must pick
// the oldest (FIFO, matching the run queue) and keep the books straight.
func TestAdoptPicksOldestMatchingStack(t *testing.T) {
	a := analyzeCap(t, capOf(
		// Process 1: a { swtch
		[2]uint32{500, 0}, [2]uint32{600, 10},
		// Process 2 first dispatch: swtch exit; a { swtch (suspends too)
		[2]uint32{601, 20}, [2]uint32{500, 25}, [2]uint32{600, 35},
		// Resume: exit of a — ambiguous; FIFO picks process 1's stack.
		[2]uint32{601, 50}, [2]uint32{501, 60},
		// Resume again: the remaining stack's a exits.
		[2]uint32{600, 70}, [2]uint32{601, 80}, [2]uint32{501, 95},
	))
	sa, _ := a.Fn("a")
	if sa.Calls != 2 {
		t.Fatalf("a calls = %d", sa.Calls)
	}
	// Process 1's a: 0..60 minus 10..50 switched out = 20. Process 2's a:
	// 25..95 minus 35..80 switched out (idle, process 1's turn, idle
	// again) = 25. Total elapsed 45.
	if sa.Elapsed != 45*sim.Microsecond {
		t.Fatalf("a elapsed total = %v, want 45 µs", sa.Elapsed)
	}
	if a.OrphanExits != 0 {
		t.Fatalf("orphans = %d", a.OrphanExits)
	}
}

// An unclosed tentative frame at adoption time is malformed input (lost
// exit events); the analyzer must recover, not corrupt.
func TestAdoptWithUnclosedTentativeFrame(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{600, 10}, // a { swtch
		[2]uint32{601, 20},
		[2]uint32{504, 25},                     // c enters and never exits (lost event)
		[2]uint32{501, 40},                     // orphan exit of a -> adopt
		[2]uint32{502, 50}, [2]uint32{503, 60}, // life goes on
	))
	if a.Recovered == 0 {
		t.Fatal("unclosed tentative frame not recovered")
	}
	sb, _ := a.Fn("b")
	if sb.Calls != 1 || sb.Elapsed != 10*sim.Microsecond {
		t.Fatalf("post-recovery b = %+v", sb)
	}
}

// Adoption appends the tentative block's finished roots after the callees
// the resumed frame made before it switched out, in order, and its net
// time excludes all of them.
func TestAdoptAppendsAfterExistingCallees(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{502, 0},  // b enter       (process A)
		[2]uint32{500, 5},  // a enter       (b's own callee)
		[2]uint32{501, 8},  // a exit
		[2]uint32{600, 10}, // swtch enter   -> idle
		[2]uint32{601, 30}, // swtch exit    -> pending resume
		[2]uint32{504, 32}, // c enter       (tentative root 1)
		[2]uint32{505, 35}, // c exit
		[2]uint32{506, 36}, // isaintr enter (tentative root 2)
		[2]uint32{507, 40}, // isaintr exit
		[2]uint32{503, 50}, // b exit        <- orphan: adopts A's stack
	))
	var b *Node
	for _, it := range a.Items() {
		if it.Kind == TraceExit && it.Node.Name == "b" {
			b = it.Node
		}
	}
	if b == nil {
		t.Fatal("no exit item for b")
	}
	var got []string
	for c := b.FirstChild(); c != nil; c = c.NextSibling() {
		got = append(got, c.Name)
	}
	if want := "a c isaintr"; strings.Join(got, " ") != want {
		t.Fatalf("b's callees = %v, want %s", got, want)
	}
	// b in-context: 0..50 minus 10..30 switched out = 30; callees 3+3+4.
	if b.Elapsed() != 30*sim.Microsecond || b.Net() != 20*sim.Microsecond {
		t.Fatalf("b elapsed %v net %v, want 30 µs and 20 µs", b.Elapsed(), b.Net())
	}
	if _, err := CheckConservation(a); err != nil {
		t.Fatal(err)
	}
	// c and isaintr are folded at their own depth-0 exits and again under
	// b, as the walk of the trace visits them: 6 sample calls for the 4
	// complete invocations.
	calls, err := CheckProfile(a)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Fatalf("profile samples %d calls, want 6", calls)
	}
}
