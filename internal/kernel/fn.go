package kernel

import (
	"fmt"

	"kprof/internal/sim"
)

// Fn is one kernel function known to the symbol table. The simulated kernel
// registers every routine it models (bcopy, splnet, tcp_input, ...) as an Fn
// so that the instrumentation pass can assign event tags and enable triggers
// per function, exactly as the modified compiler did per object module.
type Fn struct {
	Name   string
	Module string // object module ("net", "vm", "fs", ...), the unit of selective profiling
	Asm    bool   // assembler routine (triggers added via include-file macro, not the compiler)

	// Set by the instrumentation pass.
	instrumented bool
	entryAddr    uint32 // virtual address of the entry trigger load
	exitAddr     uint32

	// Runtime statistics the simulator keeps for its own assertions
	// (the Profiler does not see these).
	Calls uint64
}

// Instrumented reports whether the instrumentation pass enabled triggers.
func (f *Fn) Instrumented() bool { return f.instrumented }

// SetTriggers is called by the instrumentation pass to plant the entry and
// exit trigger loads. Addresses are kernel-virtual addresses inside the
// EPROM window (ProfileBase + tag).
func (f *Fn) SetTriggers(entryAddr, exitAddr uint32) {
	f.instrumented = true
	f.entryAddr = entryAddr
	f.exitAddr = exitAddr
}

// ClearTriggers removes instrumentation, as recompiling the module without
// the profiling option would.
func (f *Fn) ClearTriggers() { f.instrumented = false }

// TriggerFunc performs the simulated EPROM-window load: the bus read that
// the Profiler's socket decodes. The kernel charges the trigger instruction
// cost separately.
type TriggerFunc func(addr uint32)

// RegisterFn adds a function to the kernel symbol table. Registering the
// same name twice is a bug in the subsystem setup code and panics.
func (k *Kernel) RegisterFn(module, name string) *Fn {
	return k.registerFn(module, name, false)
}

// RegisterAsmFn adds an assembler routine to the symbol table. Assembler
// routines get their triggers from a preprocessor macro rather than the
// compiler, and the instrumentation pass counts them separately.
func (k *Kernel) RegisterAsmFn(module, name string) *Fn {
	return k.registerFn(module, name, true)
}

// fnArenaCap covers a fully-attached machine's symbol table (~100 entries)
// with headroom; registrations past the arena fall back to individual
// allocations, so the cap is a sizing hint, not a limit.
const fnArenaCap = 192

func (k *Kernel) registerFn(module, name string, asm bool) *Fn {
	if _, dup := k.fns[name]; dup {
		panic(fmt.Sprintf("kernel: function %q registered twice", name))
	}
	var f *Fn
	if len(k.fnArena) < cap(k.fnArena) {
		// Carve from the slab. Growing the arena would move earlier
		// entries, so past capacity we allocate individually instead.
		k.fnArena = append(k.fnArena, Fn{Name: name, Module: module, Asm: asm})
		f = &k.fnArena[len(k.fnArena)-1]
	} else {
		f = &Fn{Name: name, Module: module, Asm: asm}
	}
	k.fns[name] = f
	k.fnOrder = append(k.fnOrder, f)
	return f
}

// MustFn looks up a function that must exist.
func (k *Kernel) MustFn(name string) *Fn {
	f, ok := k.fns[name]
	if !ok {
		panic("kernel: unknown function " + name)
	}
	return f
}

// Functions returns the symbol table in registration order.
func (k *Kernel) Functions() []*Fn {
	out := make([]*Fn, len(k.fnOrder))
	copy(out, k.fnOrder)
	return out
}

// Call executes body as kernel function fn: it fires the entry trigger,
// runs the body (which advances virtual time through Advance and may call
// further functions), and fires the exit trigger. This is the simulated
// equivalent of the compiler-inserted prologue/epilogue loads:
//
//	movb _ProfileBase+1386,%al   ; entry
//	...
//	movb _ProfileBase+1387,%cl   ; exit
//	ret
func (k *Kernel) Call(fn *Fn, body func()) {
	k.Enter(fn)
	body()
	k.Exit(fn)
}

// Enter is the first half of Call: it counts the call, makes fn the
// innermost function of the executing context and fires the entry trigger
// (the prologue's load). The code between Enter and the matching Exit is
// fn's body. Hot paths that processes park on use the pair directly, so a
// simulated frame costs one Go frame instead of Call's frame plus a
// closure; every Enter must be matched by an Exit of the same fn in the
// same context.
func (k *Kernel) Enter(fn *Fn) {
	fn.Calls++
	st := k.stack()
	*st = append(*st, fn)
	k.fireTrigger(fn, fn.entryAddr)
}

// Exit is the second half of Call: it fires fn's exit trigger (the
// epilogue's load) and pops fn off the executing context's call stack. It
// panics, naming both functions, if fn is not the innermost open function:
// an unbalanced pair would otherwise corrupt CurrentFn, which the sampling
// profiler reads.
func (k *Kernel) Exit(fn *Fn) {
	if cur := k.CurrentFn(); cur != fn {
		name := "no function"
		if cur != nil {
			name = cur.Name
		}
		panic(fmt.Sprintf("kernel: Exit(%s) with %s innermost", fn.Name, name))
	}
	k.fireTrigger(fn, fn.exitAddr)
	// The stack may have moved while the body ran (appends), but the
	// context is the same: pop from the current view.
	st := k.stack()
	*st = (*st)[:len(*st)-1]
}

// stack returns the Call-nesting stack of the executing context: the
// current process's, or the boot/idle context's.
func (k *Kernel) stack() *[]*Fn {
	if k.curproc != nil {
		return &k.curproc.callStack
	}
	return &k.bootStack
}

// CurrentFn reports the innermost kernel function executing right now, or
// nil in the idle loop / between functions. The clock-sampling profiler
// (internal/sampling) reads this at its sample instants; the Profiler
// hardware needs nothing of the kind.
func (k *Kernel) CurrentFn() *Fn {
	st := *k.stack()
	if len(st) == 0 {
		return nil
	}
	return st[len(st)-1]
}

// CallCost is shorthand for a leaf function whose body is a plain time cost.
func (k *Kernel) CallCost(fn *Fn, cost sim.Time) {
	k.Enter(fn)
	k.Advance(cost)
	k.Exit(fn)
}

// Inline fires a single inline trigger (the paper's asm-macro mechanism,
// marked '=' in the name/tag file). addr must have been assigned by the
// instrumentation pass; an addr of 0 means "not instrumented", and then
// there is no instruction to pay for either.
func (k *Kernel) Inline(addr uint32) {
	if addr == 0 {
		return
	}
	k.load(addr)
}

func (k *Kernel) fireTrigger(fn *Fn, addr uint32) {
	if !fn.instrumented {
		return
	}
	k.load(addr)
}

// load executes one trigger instruction: ~400 ns on the 40 MHz 386, then
// the bus read the card latches — unless the card is unplugged, when the
// instruction still executes but nothing is on the bus to see it.
func (k *Kernel) load(addr uint32) {
	k.Advance(k.costs.trigger)
	if k.trig != nil {
		k.trig(addr)
	}
}

// SetTrigger connects the kernel's trigger loads to the bus (in practice, to
// the EPROM socket's Read). A nil trig detaches the Profiler; instrumented
// kernels then still pay the trigger instruction cost, faithfully to the
// real system where the movb executes whether or not the card is plugged in.
// A kernel compiled without profiling has no instrumented functions
// (ClearTriggers) and pays nothing.
func (k *Kernel) SetTrigger(trig TriggerFunc) { k.trig = trig }

// Advance moves virtual time forward by cost, delivering any device events
// and unmasked interrupts that fall inside the interval. An interrupt
// suspends the remaining cost, runs the handler (which advances time
// itself), and then resumes: total elapsed time grows by the handler time,
// exactly as a real CPU is delayed by an interrupt.
//
// Most intervals are quiet: no event falls due by their end and nothing is
// deliverable, so Advance only moves the clock. That is exactly what the
// full loop below does then: its first pass finds the earliest event past
// the end and moves the clock there, RunDue finds no event at or before
// the end, and dispatchInterrupts finds no admissible line (mayDeliver
// never misses one) and no admissible soft interrupt. An event exactly at
// the end, Advance(0) with an event due now, and anything mayDeliver
// cannot rule out take the full loop.
func (k *Kernel) Advance(cost sim.Time) {
	if cost < 0 {
		panic("kernel: negative cost")
	}
	end := k.sched.Now() + cost
	if next, ok := k.sched.NextAt(); (!ok || next > end) && !k.mayDeliver() {
		k.sched.AdvanceTo(end)
		return
	}
	remaining := cost
	for remaining > 0 {
		next, ok := k.sched.NextAt()
		target := k.sched.Now() + remaining
		if !ok || next > target {
			k.sched.AdvanceTo(target)
			break
		}
		step := next - k.sched.Now()
		k.sched.AdvanceTo(next)
		remaining -= step
		k.sched.RunDue()       // device events fire; they raise IRQs
		k.dispatchInterrupts() // unmasked handlers run now, on this stack
	}
	// Events scheduled exactly at the end of the interval.
	k.sched.RunDue()
	k.dispatchInterrupts()
}
