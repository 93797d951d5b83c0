package analyze

import (
	"fmt"
	"testing"
	"unsafe"

	"kprof/internal/sim"
)

// CheckConservation verifies the invocation trees' conservation law: for
// every complete invocation (each exit item), Elapsed minus Net equals the
// summed Elapsed of its linked callees. It reports how many invocations it
// checked. Exported for the external test package's fuzz target.
func CheckConservation(a *Analysis) (int, error) {
	n := 0
	for _, it := range a.Items() {
		if it.Kind != TraceExit {
			continue
		}
		var sum sim.Time
		for c := it.Node.FirstChild(); c != nil; c = c.NextSibling() {
			sum += c.Elapsed()
		}
		if got := it.Node.Elapsed() - it.Node.Net(); got != sum {
			return n, fmt.Errorf("%s exiting at %v: elapsed - net = %v, callees' elapsed sums to %v",
				it.Node.Name, it.Time, got, sum)
		}
		n++
	}
	return n, nil
}

// The full path holds one trace item per record and one node per
// invocation; their sizes are what a full analysis costs per record.
func TestTraceItemAndNodeSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(TraceItem{}); got != 24 {
		t.Errorf("TraceItem is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Node{}); got > 80 {
		t.Errorf("Node is %d bytes, want <= 80", got)
	}
}
