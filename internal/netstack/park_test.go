package netstack

import (
	"runtime"
	"strings"
	"testing"

	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// spawnParkedSinks spawns one reader per UDP socket on ports base.. and runs
// the kernel until every reader sleeps in sbwait. release wakes each reader
// with one datagram so that its goroutine exits.
func spawnParkedSinks(t *testing.T, k *kernel.Kernel, n *Net, count int, base uint16) (release func()) {
	t.Helper()
	srcs := make([]*UDPSource, count)
	for i := range srcs {
		port := base + uint16(i)
		so, err := n.SoCreate(ProtoUDP, port)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = NewUDPSource(n, port)
		k.Spawn("sink", func(p *kernel.Proc) {
			k.Syscall(p, func() { n.SoReceiveInto(p, so, 4096, nil) })
		})
	}
	k.Run(k.Now() + sim.Time(count)*sim.Millisecond)
	if k.Runnable() != 0 {
		t.Fatalf("%d readers still runnable", k.Runnable())
	}
	return func() {
		for i, src := range srcs {
			k.Scheduler().After(sim.Time(i+1)*sim.Millisecond, func() { src.Send(64) })
		}
		k.RunUntilIdle(k.Now() + sim.Time(count+10)*sim.Millisecond)
		for _, src := range srcs {
			if so := n.pcbLookup(ProtoUDP, src.Port); so.RcvRead != 64 {
				t.Fatalf("port %d read %d bytes, want 64", src.Port, so.RcvRead)
			}
		}
	}
}

// A process parked in sbwait holds one Go frame per simulated function
// (syscall, soreceive, sbwait, tsleep) between its goroutine's entry and the
// context switch: no Kernel.Call frame and no kernel or netstack closure.
// Every GC cycle unwinds these frames for every parked process.
func TestParkedProcessFrames(t *testing.T) {
	k, n := newNet()
	release := spawnParkedSinks(t, k, n, 1, 7001)
	defer release()

	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	var frames []string
	for _, g := range strings.Split(dump, "\n\n") {
		// Other tests may leave readers parked too: pick this one's.
		if !strings.Contains(g, "netstack.(*Net).sbWait") || !strings.Contains(g, "netstack.spawnParkedSinks.") {
			continue
		}
		for _, line := range strings.Split(g, "\n") {
			if fn, ok := strings.CutPrefix(line, "kprof/internal/"); ok {
				frames = append(frames, fn[:strings.LastIndex(fn, "(")])
			}
		}
	}
	// The helper's closures (process body and syscall body) stand for user
	// code; every other kprof frame must be a simulated function.
	var kernelFrames []string
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "netstack.spawnParkedSinks.") {
			kernelFrames = append(kernelFrames, fn)
		}
	}
	got := strings.Join(kernelFrames, " ")
	want := "kernel.(*Kernel).swtchOut kernel.(*Kernel).Tsleep netstack.(*Net).sbWait " +
		"netstack.(*Net).SoReceiveInto kernel.(*Kernel).Syscall kernel.(*Proc).run"
	if got != want {
		t.Fatalf("parked process frames:\n got %s\nwant %s\nfull stack:\n%s", got, want, strings.Join(frames, "\n"))
	}
	if len(frames) != 8 {
		t.Fatalf("parked process holds %d kprof frames, want 8:\n%s", len(frames), strings.Join(frames, "\n"))
	}
}

// Each process reserves its goroutine's stack at spawn, so a process parked
// in sbwait keeps one 4 KB stack: the reservation's single doubling from the
// runtime's 2 KB start. The bound of 6 KB per process sits between that and
// the 8 KB a stack doubled once more would take, whether the reservation
// were too large or the parked chain outgrew 4 KB. It holds under -race,
// whose larger stack guard the reservation's size allows for.
func TestParkedProcessStackBytes(t *testing.T) {
	const procs = 1000
	k, n := newNet()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	release := spawnParkedSinks(t, k, n, procs, 7001)
	runtime.ReadMemStats(&after)
	release()

	perProc := (int64(after.StackInuse) - int64(before.StackInuse)) / procs
	t.Logf("StackInuse grew %d B per parked process", perProc)
	if perProc >= 6<<10 {
		t.Fatalf("StackInuse grew %d B per parked process, want under 6 KB", perProc)
	}
}
