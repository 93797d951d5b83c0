package kernel

import (
	"fmt"
	"strings"
	"testing"

	"kprof/internal/sim"
)

func TestCurrentFnTracksNesting(t *testing.T) {
	k := newTestKernel()
	outer := k.RegisterFn("m", "outer")
	inner := k.RegisterFn("m", "inner")
	if k.CurrentFn() != nil || k.CallDepth() != 0 {
		t.Fatal("non-empty initial stack")
	}
	k.Call(outer, func() {
		if k.CurrentFn() != outer {
			t.Fatal("outer not current")
		}
		k.Call(inner, func() {
			if k.CurrentFn() != inner || k.CallDepth() != 2 {
				t.Fatalf("inner not current at depth 2 (depth %d)", k.CallDepth())
			}
		})
		if k.CurrentFn() != outer || k.CallDepth() != 1 {
			t.Fatal("outer not restored")
		}
	})
	if k.CurrentFn() != nil {
		t.Fatal("stack not empty after call")
	}
}

// The per-context stacks: a suspended process's open frames must not be
// disturbed by another process's calls — the bug class that a single global
// stack would have.
func TestCallStacksArePerProcess(t *testing.T) {
	k := newTestKernel()
	fnA := k.RegisterFn("m", "deepA")
	fnB := k.RegisterFn("m", "deepB")
	var ident int
	var observedInB *Fn
	k.Spawn("a", func(p *Proc) {
		k.Call(fnA, func() {
			k.Tsleep(&ident, "hold", 0) // block with deepA open
			if k.CurrentFn() != fnA {
				t.Error("A's stack corrupted across the switch")
			}
		})
		if k.CallDepth() != 0 {
			t.Errorf("A depth after call = %d", k.CallDepth())
		}
	})
	k.Spawn("b", func(p *Proc) {
		k.Call(fnB, func() {
			observedInB = k.CurrentFn()
			k.Advance(10 * sim.Microsecond)
			k.Wakeup(&ident)
		})
	})
	k.Run(10 * sim.Millisecond)
	if observedInB != fnB {
		t.Fatalf("B observed %v as current", observedInB)
	}
}

func TestCurrentFnDuringInterrupt(t *testing.T) {
	k := newTestKernel()
	work := k.RegisterFn("m", "work")
	var inISR *Fn
	irq := k.RegisterIRQ("dev", MaskNet, 0, 1, func() {
		inISR = k.CurrentFn() // the ISAINTR stub frame
	})
	k.Scheduler().After(5*sim.Microsecond, func() { k.Raise(irq) })
	k.Call(work, func() { k.Advance(20 * sim.Microsecond) })
	if inISR == nil || inISR.Name != "ISAINTR" {
		t.Fatalf("current in ISR = %v", inISR)
	}
	if k.CurrentFn() != nil {
		t.Fatal("stack not unwound")
	}
}

// Exit checks its frame: an unbalanced Enter/Exit pair panics, naming both
// functions, before it fires a trigger or touches the stack.
func TestExitMismatchPanics(t *testing.T) {
	k := newTestKernel()
	rec := &recordingTrigger{k: k}
	k.SetTrigger(rec.fire)
	alpha := k.RegisterFn("m", "alpha")
	alpha.SetTriggers(10, 11)
	beta := k.RegisterFn("m", "beta")
	beta.SetTriggers(12, 13)
	panicMsg := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}

	k.Enter(alpha)
	msg := panicMsg(func() { k.Exit(beta) })
	if !strings.Contains(msg, "alpha") || !strings.Contains(msg, "beta") {
		t.Fatalf("Exit(beta) inside alpha: panic %q, want both names", msg)
	}
	if k.CurrentFn() != alpha || k.CallDepth() != 1 || len(rec.addrs) != 1 {
		t.Fatalf("failed Exit changed state: current %v depth %d triggers %v",
			k.CurrentFn(), k.CallDepth(), rec.addrs)
	}
	k.Exit(alpha)
	if msg := panicMsg(func() { k.Exit(alpha) }); !strings.Contains(msg, "alpha") {
		t.Fatalf("Exit(alpha) with nothing entered: panic %q", msg)
	}
}

// Enter/Exit pairs and Call frames nest on one per-context stack: a frame
// held open across a context switch, and interrupts nested two deep on top
// of it, all pop in order, and the triggers close in reverse order of
// opening.
func TestEnterExitNestAcrossSwitchAndInterrupts(t *testing.T) {
	k := newTestKernel()
	rec := &recordingTrigger{k: k}
	k.SetTrigger(rec.fire)
	outer := k.RegisterFn("m", "outer")
	inner := k.RegisterFn("m", "inner")
	other := k.RegisterFn("m", "other")
	isrLow := k.RegisterFn("m", "isrLow")
	isrHigh := k.RegisterFn("m", "isrHigh")
	stub := k.MustFn("ISAINTR")
	tags := map[uint32]string{}
	for i, f := range []*Fn{outer, inner, other, isrLow, isrHigh, stub} {
		f.SetTriggers(uint32(100+2*i), uint32(101+2*i))
		tags[uint32(100+2*i)] = "+" + f.Name
		tags[uint32(101+2*i)] = "-" + f.Name
	}

	var deepest []string
	irqHigh := k.RegisterIRQ("high", MaskNet, 0, 1, func() {
		k.Call(isrHigh, func() {
			for _, f := range *k.stack() {
				deepest = append(deepest, f.Name)
			}
			k.Advance(2 * sim.Microsecond)
		})
	})
	irqLow := k.RegisterIRQ("low", MaskBio, 0, 2, func() {
		k.Call(isrLow, func() {
			k.Scheduler().After(3*sim.Microsecond, func() { k.Raise(irqHigh) })
			k.Advance(20 * sim.Microsecond)
		})
	})

	var ident int
	var marks []string
	mark := func(what string) { marks = append(marks, what+"="+fnName(k.CurrentFn())) }
	k.Spawn("a", func(p *Proc) {
		k.Call(outer, func() {
			k.Enter(inner)
			k.Tsleep(&ident, "hold", 0)
			mark("woken")
			k.Scheduler().After(5*sim.Microsecond, func() { k.Raise(irqLow) })
			k.Advance(50 * sim.Microsecond)
			mark("after interrupts")
			k.Exit(inner)
			mark("after inner")
		})
		mark("after outer")
	})
	k.Spawn("b", func(p *Proc) {
		k.Call(other, func() {
			mark("other")
			k.Advance(10 * sim.Microsecond)
			k.Wakeup(&ident)
		})
	})
	k.Run(10 * sim.Millisecond)

	wantMarks := "other=other woken=inner after interrupts=inner after inner=outer after outer=none"
	if got := strings.Join(marks, " "); got != wantMarks {
		t.Fatalf("CurrentFn marks:\n got %s\nwant %s", got, wantMarks)
	}
	wantDeepest := "outer inner ISAINTR isrLow ISAINTR isrHigh"
	if got := strings.Join(deepest, " "); got != wantDeepest {
		t.Fatalf("stack in the nested handler = %s, want %s", got, wantDeepest)
	}
	var seq []string
	for _, a := range rec.addrs {
		if name, ok := tags[a]; ok {
			seq = append(seq, name)
		}
	}
	wantSeq := "+outer +inner +other -other +ISAINTR +isrLow +ISAINTR +isrHigh " +
		"-isrHigh -ISAINTR -isrLow -ISAINTR -inner -outer"
	if got := strings.Join(seq, " "); got != wantSeq {
		t.Fatalf("trigger order:\n got %s\nwant %s", got, wantSeq)
	}
}

func fnName(f *Fn) string {
	if f == nil {
		return "none"
	}
	return f.Name
}

func TestInInterrupt(t *testing.T) {
	k := newTestKernel()
	var during bool
	irq := k.RegisterIRQ("dev", MaskNet, 0, 1, func() { during = k.InInterrupt() })
	k.Raise(irq)
	k.Advance(sim.Microsecond)
	if !during {
		t.Fatal("InInterrupt false inside a handler")
	}
	if k.InInterrupt() {
		t.Fatal("InInterrupt true outside")
	}
}

func TestInlineTrigger(t *testing.T) {
	k := newTestKernel()
	var addrs []uint32
	k.SetTrigger(func(a uint32) { addrs = append(addrs, a) })
	k.Inline(0)      // not instrumented: no-op
	k.Inline(0x1234) // fires
	if len(addrs) != 1 || addrs[0] != 0x1234 {
		t.Fatalf("addrs = %v", addrs)
	}
	k.SetTrigger(nil)
	k.Inline(0x1234) // detached: no-op
	if len(addrs) != 1 {
		t.Fatal("detached inline fired")
	}
}

func TestSoftPendingWord(t *testing.T) {
	k := newTestKernel()
	k.RegisterSoft(SoftNetIP, "x", func() {})
	s := k.SplNet()
	k.ScheduleSoft(SoftNetIP)
	if k.SoftPending()&SoftNetIP == 0 {
		t.Fatal("bit not pending")
	}
	k.SplX(s)
	if k.SoftPending() != 0 {
		t.Fatal("bit not cleared after delivery")
	}
}

// No model path raises spltty; splbio stands in for the lower
// class that splclock nests over.
func TestSplTtyAndSplClock(t *testing.T) {
	k := newTestKernel()
	s1 := k.SplBio()
	if k.CurrentSPL()&MaskBio == 0 {
		t.Fatal("bio not masked")
	}
	s2 := k.SplClock()
	if k.CurrentSPL()&MaskClock == 0 || k.CurrentSPL()&MaskSoftClock == 0 {
		t.Fatal("clock classes not masked")
	}
	k.SplX(s2)
	k.SplX(s1)
	if k.CurrentSPL() != 0 {
		t.Fatal("masks not restored")
	}
}

func TestCopyinAndBlockOps(t *testing.T) {
	k := newTestKernel()
	start := k.Now()
	k.Copyin(1024)
	if d := k.Now() - start; d < 30*sim.Microsecond || d > 60*sim.Microsecond {
		t.Fatalf("copyin(1024) = %v", d)
	}
	start = k.Now()
	k.Bcopy(10 * sim.Microsecond)
	k.Bzero(3 * sim.Microsecond)
	if d := k.Now() - start; d != 13*sim.Microsecond {
		t.Fatalf("block ops = %v", d)
	}
	if k.MustFn("bzero").Calls != 1 {
		t.Fatal("bzero not counted")
	}
}

func TestCalloutActive(t *testing.T) {
	k := newTestKernel()
	k.StartClock()
	c := k.Timeout(func() {}, 2)
	if !c.Active() {
		t.Fatal("fresh callout inactive")
	}
	k.Run(50 * sim.Millisecond)
	if c.Active() {
		t.Fatal("fired callout still active")
	}
	c2 := k.Timeout(func() {}, 100)
	k.Untimeout(c2)
	if c2.Active() {
		t.Fatal("cancelled callout still active")
	}
	// Untimeout after firing is a harmless no-op.
	k.Untimeout(c)
}

func TestStringersAndAccessors(t *testing.T) {
	k := newTestKernel()
	if !strings.Contains(k.String(), "kernel") {
		t.Fatalf("kernel string: %s", k)
	}
	p := k.Spawn("x", func(p *Proc) {
		if p.Kernel() != k || k.CurProc() != p {
			t.Error("ownership accessors wrong")
		}
	})
	if !strings.Contains(p.String(), "x") {
		t.Fatalf("proc string: %s", p)
	}
	if k.Runnable() != 1 {
		t.Fatalf("runnable = %d", k.Runnable())
	}
	k.Run(sim.Millisecond)
	if k.CurProc() != nil {
		t.Fatal("curproc after run")
	}
	for _, a := range []Arch{ArchI386, ArchM68K, Arch(9)} {
		if a.String() == "" {
			t.Fatal("empty arch string")
		}
	}
	if k.Arch() != ArchI386 {
		t.Fatalf("default arch = %v", k.Arch())
	}
}

func TestM68KKernel(t *testing.T) {
	k := New(Config{Seed: 1, Arch: ArchM68K})
	if k.Arch() != ArchM68K {
		t.Fatal("arch not set")
	}
	if _, ok := k.FindFn("VECINTR"); !ok {
		t.Fatal("m68k stub not registered")
	}
	if _, ok := k.FindFn("ISAINTR"); ok {
		t.Fatal("i386 stub registered on m68k")
	}
	// spl is cheap here.
	start := k.Now()
	s := k.SplNet()
	k.SplX(s)
	if d := k.Now() - start; d > 4*sim.Microsecond {
		t.Fatalf("m68k spl pair = %v", d)
	}
}

func TestUnknownArchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Arch: Arch(42)})
}

func TestIdleAccessor(t *testing.T) {
	k := newTestKernel()
	var sawIdle bool
	irq := k.RegisterIRQ("dev", MaskNet, 0, 1, func() { sawIdle = k.Idle() })
	k.Scheduler().After(5*sim.Millisecond, func() { k.Raise(irq) })
	k.Run(10 * sim.Millisecond) // nothing runnable: pure idle
	if !sawIdle {
		t.Fatal("interrupt during idle did not observe Idle()")
	}
	if k.Idle() {
		t.Fatal("Idle true outside the idle loop")
	}
}

func TestRunUntilIdleWithSleepingForeverProc(t *testing.T) {
	k := newTestKernel()
	var ident int
	k.Spawn("stuck", func(p *Proc) {
		k.Tsleep(&ident, "forever", 0)
	})
	end := k.RunUntilIdle(sim.Second)
	// No wake source: RunUntilIdle must return rather than spin.
	if end >= sim.Second {
		t.Fatalf("ran to cap: %v", end)
	}
}

func TestSetBcopyScaleSeam(t *testing.T) {
	k := New(Config{Seed: 1})
	start := k.Now()
	k.Bcopy(1000)
	full := k.Now() - start
	k.SetBcopyScale(1, 2)
	start = k.Now()
	k.Bcopy(1000)
	if got := k.Now() - start; got != full-500 {
		t.Fatalf("halved bcopy advanced %v, full charge was %v", got, full)
	}
	// num <= 0 restores the identity.
	k.SetBcopyScale(0, 0)
	start = k.Now()
	k.Bcopy(1000)
	if got := k.Now() - start; got != full {
		t.Fatalf("restored bcopy advanced %v, want %v", got, full)
	}
}
