// Package kernel is a deterministic discrete-event model of a 386BSD-0.1
// class kernel: processes with a run queue and swtch-based context
// switching, interrupt-priority (spl) masking with ISA-style interrupt
// dispatch and software-interrupt emulation, a 100 Hz hardclock with a
// softclock callout queue, and a system-call layer with user/kernel copy
// primitives.
//
// It exists to give the Profiler something real to measure. Every routine
// the paper profiles is registered in the kernel symbol table as an Fn;
// bodies advance a shared virtual clock through a cost model calibrated to
// the paper's measured numbers (see costs.go in each subsystem). Devices
// (the Ethernet card, the IDE disk, the clock chip) are sim events that
// raise IRQs, so interrupts preempt kernel code mid-function just as they do
// on hardware, and the captured event stream shows the same interleaving the
// paper's traces do.
//
// Concurrency model: the simulation is logically single-threaded. Each Proc
// is a goroutine, but exactly one goroutine runs at a time, passed an
// execution token through channels by the scheduler; determinism follows
// from the event queue's total order and the run queue's FIFO discipline.
//
// Host cost: a scenario may keep thousands of processes parked, so each is
// kept cheap for the Go runtime. A process goroutine reserves its stack
// before it first waits for the token (reserveStack), so the runtime grows
// it once, with one frame to copy, instead of deep inside a syscall. A
// simulated function runs through Call, or through its halves Enter and
// Exit — the prologue's and epilogue's trigger loads — which the paths
// processes run and park on use directly, so that one simulated frame is one
// Go frame and the garbage collector unwinds fewer frames per parked stack.
package kernel

import (
	"fmt"

	"kprof/internal/sim"
)

// Config selects the machine being modeled. The zero value is the paper's
// target: a 40 MHz i386 PC with 8 MB of memory running 386BSD 0.1. Every
// machine's clock interrupts at the BSD default of 100 Hz, and each trigger
// instruction costs the architecture's calibrated time (≈400 ns on the
// 40 MHz 386).
type Config struct {
	// Arch selects the processor/interrupt architecture; the zero value
	// is the paper's i386 target.
	Arch Arch
	// Seed seeds the kernel's private PRNG (used only by devices and
	// workloads that ask for jitter; the kernel core is deterministic).
	Seed uint64
}

// hz is the clock interrupt rate: the BSD default.
const hz = 100

// Kernel is the machine under test.
type Kernel struct {
	sched *sim.Scheduler
	rng   *sim.Rand
	arch  Arch
	costs archCosts

	// Symbol table. fnArena block-allocates the Fn structs themselves: a
	// full machine registers ~100 functions at boot, and carving them from
	// one slab keeps repeated boots (benchmarks, sweeps) cheap. The arena
	// is append-only — fns/fnOrder hold the stable per-entry pointers.
	fns     map[string]*Fn
	fnOrder []*Fn
	fnArena []Fn

	// bootStack tracks Call nesting for the boot/idle context; process
	// contexts carry their own stacks (see Proc.callStack).
	bootStack []*Fn

	// Profiler connection.
	trig TriggerFunc

	// Interrupts. pendClass is the union of the pending lines' classes:
	// Raise adds a line's class and every delivery scan recomputes it, so
	// between scans it may still hold the class of a line just delivered,
	// but never lacks one of a line still pending.
	spl       SPL
	irqs      []*IRQ
	pendClass SPL
	intrNest  int
	softPend  uint32 // pending soft-interrupt bits (netisr style)
	softs     map[uint32]*softIntr

	// Scheduling.
	procs      []*Proc
	runq       []*Proc
	curproc    *Proc
	sleepers   map[any][]*Proc
	toSched    chan schedEvent
	nextPID    int
	needResch  bool
	running    bool
	idleActive bool

	// Clock.
	ticks    uint64
	callouts []*Callout

	// Core function handles used by the scheduler and interrupt paths.
	fnSwtch     *Fn
	fnIdle      *Fn
	fnISAINTR   *Fn
	fnDoreti    *Fn
	fnTsleep    *Fn
	fnWakeup    *Fn
	fnSetrq     *Fn
	fnRemrq     *Fn
	fnHardclk   *Fn
	fnSoftclk   *Fn
	fnTimeout   *Fn
	fnUntime    *Fn
	fnGather    *Fn
	fnSplnet    *Fn
	fnSplbio    *Fn
	fnSplclock  *Fn
	fnSplhigh   *Fn
	fnSplx      *Fn
	fnSpl0      *Fn
	fnSyscall   *Fn
	fnCopyin    *Fn
	fnCopyout   *Fn
	fnCopyinstr *Fn
	fnBcopy     *Fn
	fnBzero     *Fn

	// bcopyScaleNum/Den rescale Bcopy charges (SetBcopyScale); 0 = off.
	bcopyScaleNum, bcopyScaleDen int

	// Stats are the kernel's own event counters — the coarse measurement
	// facility the paper contrasts the Profiler with.
	Stats Stats
}

// Stats is the traditional per-kernel event-counter block.
type Stats struct {
	Syscalls   uint64
	Interrupts uint64
	SoftIntrs  uint64
	ContextSw  uint64
	Ticks      uint64
	PacketsIn  uint64
	PacketsOut uint64
	DiskReads  uint64
	DiskWrites uint64
	PageFaults uint64
	Forks      uint64
	Execs      uint64
}

// New constructs a kernel on a fresh virtual clock.
func New(cfg Config) *Kernel {
	costs, ok := archTable[cfg.Arch]
	if !ok {
		panic("kernel: unknown architecture")
	}
	k := &Kernel{
		sched:     sim.NewScheduler(),
		rng:       sim.NewRand(cfg.Seed ^ 0x6b70726f66), // "kprof"
		arch:      cfg.Arch,
		costs:     costs,
		fns:       make(map[string]*Fn, fnArenaCap),
		fnOrder:   make([]*Fn, 0, fnArenaCap),
		fnArena:   make([]Fn, 0, fnArenaCap),
		bootStack: make([]*Fn, 0, 32),
		irqs:      make([]*IRQ, 0, 8),
		sleepers:  make(map[any][]*Proc),
		toSched:   make(chan schedEvent),
		softs:     make(map[uint32]*softIntr),
		nextPID:   1,
	}
	k.registerCore()
	return k
}

// registerCore puts the machine-dependent and kern/ routines in the symbol
// table. Subsystem packages (mem, vm, netstack, fs) register theirs when
// attached.
func (k *Kernel) registerCore() {
	k.fnSwtch = k.RegisterAsmFn("locore", "swtch")
	k.fnIdle = k.RegisterAsmFn("locore", "idle")
	k.fnISAINTR = k.RegisterAsmFn("locore", k.costs.intrName)
	k.fnDoreti = k.RegisterAsmFn("locore", "doreti")
	k.fnSplnet = k.RegisterAsmFn("locore", "splnet")
	k.fnSplbio = k.RegisterAsmFn("locore", "splbio")
	k.RegisterAsmFn("locore", "spltty") // no model path raises it; the tag numbering keeps it
	k.fnSplclock = k.RegisterAsmFn("locore", "splclock")
	k.fnSplhigh = k.RegisterAsmFn("locore", "splhigh")
	k.fnSplx = k.RegisterAsmFn("locore", "splx")
	k.fnSpl0 = k.RegisterAsmFn("locore", "spl0")
	k.fnBcopy = k.RegisterAsmFn("locore", "bcopy")
	k.RegisterAsmFn("locore", "bcopyb") // no model path calls it; the tag numbering keeps it
	k.fnBzero = k.RegisterAsmFn("locore", "bzero")
	k.fnCopyin = k.RegisterAsmFn("locore", "copyin")
	k.fnCopyout = k.RegisterAsmFn("locore", "copyout")
	k.fnCopyinstr = k.RegisterAsmFn("locore", "copyinstr")

	k.fnTsleep = k.RegisterFn("kern_synch", "tsleep")
	k.fnWakeup = k.RegisterFn("kern_synch", "wakeup")
	k.fnSetrq = k.RegisterFn("kern_synch", "setrq")
	k.fnRemrq = k.RegisterFn("kern_synch", "remrq")
	k.fnHardclk = k.RegisterFn("kern_clock", "hardclock")
	k.fnSoftclk = k.RegisterFn("kern_clock", "softclock")
	k.fnGather = k.RegisterFn("kern_clock", "gatherstats")
	k.fnTimeout = k.RegisterFn("kern_clock", "timeout")
	k.fnUntime = k.RegisterFn("kern_clock", "untimeout")
	k.fnSyscall = k.RegisterFn("trap", "syscall")
}

// Scheduler exposes the event scheduler so devices can model asynchronous
// hardware (packet arrival, disk completion).
func (k *Kernel) Scheduler() *sim.Scheduler { return k.sched }

// Now reports current virtual time.
func (k *Kernel) Now() sim.Time { return k.sched.Now() }

// Rand exposes the kernel's deterministic PRNG.
func (k *Kernel) Rand() *sim.Rand { return k.rng }

// Ticks reports how many hardclock interrupts have occurred.
func (k *Kernel) Ticks() uint64 { return k.ticks }

// Bcopy models the block-copy routine. cost accounts for the memory regions
// involved; callers compute it with the bus package.
func (k *Kernel) Bcopy(cost sim.Time) {
	if k.bcopyScaleNum > 0 {
		cost = cost * sim.Time(k.bcopyScaleNum) / sim.Time(k.bcopyScaleDen)
	}
	k.CallCost(k.fnBcopy, cost)
}

// SetBcopyScale rescales every subsequent Bcopy charge by num/den — the
// seam for the "recode bcopy with string-move instructions" proposed
// change: callers keep computing bus-accurate costs, and the kernel
// models the cheaper copy loop on top. num <= 0 restores the identity.
func (k *Kernel) SetBcopyScale(num, den int) {
	if num <= 0 || den <= 0 {
		k.bcopyScaleNum, k.bcopyScaleDen = 0, 0
		return
	}
	k.bcopyScaleNum, k.bcopyScaleDen = num, den
}

// Bzero models block clear.
func (k *Kernel) Bzero(cost sim.Time) { k.CallCost(k.fnBzero, cost) }

func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(t=%v, procs=%d, fns=%d)", k.Now(), len(k.procs), len(k.fns))
}
