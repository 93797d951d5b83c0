package analyze

import (
	"strings"
	"testing"

	"kprof/internal/sim"
)

func TestCallGraphArcs(t *testing.T) {
	// a { b { c } b } ; c (top-level)
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0},
		[2]uint32{502, 10}, [2]uint32{504, 20}, [2]uint32{505, 30}, [2]uint32{503, 40},
		[2]uint32{502, 50}, [2]uint32{503, 70},
		[2]uint32{501, 100},
		[2]uint32{504, 110}, [2]uint32{505, 130},
	))
	g := a.CallGraph()

	ab := g.Callees("a")
	if len(ab) != 1 || ab[0].Callee != "b" || ab[0].Count != 2 {
		t.Fatalf("a's callees = %+v", ab)
	}
	if ab[0].Time != 50*sim.Microsecond {
		t.Fatalf("a->b time = %v, want 30+20", ab[0].Time)
	}
	// c is called from b (once) and from the top (once).
	cCallers := g.Callers("c")
	if len(cCallers) != 2 {
		t.Fatalf("c's callers = %+v", cCallers)
	}
	names := []string{cCallers[0].Caller, cCallers[1].Caller}
	if names[0] != "b" && names[1] != "b" {
		t.Fatalf("c callers = %v, want b among them", names)
	}
	foundTop := false
	for _, arc := range cCallers {
		if arc.Caller == "" {
			foundTop = true
			if arc.Time != 20*sim.Microsecond {
				t.Fatalf("top->c time = %v", arc.Time)
			}
		}
	}
	if !foundTop {
		t.Fatal("top-level call to c missing")
	}
	// The graph comes from the profile folded while streaming: reading it
	// builds no trace.
	if a.trace.build == nil || a.trace.items != nil {
		t.Fatal("CallGraph built the trace")
	}
}

func TestCallGraphRender(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{503, 30}, [2]uint32{501, 100},
	))
	g := a.CallGraph()
	out := g.String()
	if !strings.Contains(out, "<top>") || !strings.Contains(out, "b") {
		t.Fatalf("render:\n%s", out)
	}
	var b strings.Builder
	if err := g.WriteFunction(&b, "b"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "[b]") || !strings.Contains(b.String(), "from a") {
		t.Fatalf("function block:\n%s", b.String())
	}
	var empty strings.Builder
	g.WriteFunction(&empty, "nosuch")
	if !strings.Contains(empty.String(), "no arcs") {
		t.Fatalf("missing-function block: %q", empty.String())
	}
}

func TestCallGraphArcOrdering(t *testing.T) {
	// Two callees with different weights: heavier first.
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0},
		[2]uint32{502, 10}, [2]uint32{503, 20}, // b: 10
		[2]uint32{504, 30}, [2]uint32{505, 90}, // c: 60
		[2]uint32{501, 100},
	))
	g := a.CallGraph()
	arcs := g.Callees("a")
	if len(arcs) != 2 || arcs[0].Callee != "c" {
		t.Fatalf("ordering: %+v", arcs)
	}
}
