package kernel

import (
	"fmt"
	"runtime"

	"kprof/internal/sim"
)

// ProcState is the lifecycle state of a process.
type ProcState int

const (
	ProcEmbryo ProcState = iota
	ProcRunnable
	ProcRunning
	ProcSleeping
	ProcZombie
)

func (s ProcState) String() string {
	switch s {
	case ProcEmbryo:
		return "embryo"
	case ProcRunnable:
		return "runnable"
	case ProcRunning:
		return "running"
	case ProcSleeping:
		return "sleeping"
	case ProcZombie:
		return "zombie"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Proc is a simulated process. Its body runs on its own goroutine, but
// exactly one process (or the scheduler/idle context) executes at a time;
// control is handed around through channels, so the simulation stays
// deterministic. The goroutine reserves its stack at spawn (reserveStack),
// and the paths a process parks on use Enter/Exit rather than Call, so a
// process parked in sbwait holds one 4 KB stack with one Go frame per open
// simulated function.
type Proc struct {
	PID   int
	Name  string
	k     *Kernel
	state ProcState

	resume chan struct{}
	body   func(*Proc)

	sleepIdent any
	sleepMsg   string
	sleepTimer *Callout
	timedOut   bool

	// firstRun marks that the proc has not yet been dispatched; its first
	// dispatch fires a bare swtch-exit trigger, modelling the child's
	// return out of swtch into its new context.
	firstRun bool

	// callStack tracks this process context's Call nesting (CurrentFn).
	callStack []*Fn
}

// State reports the process state.
func (p *Proc) State() ProcState { return p.state }

// Kernel reports the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

func (p *Proc) String() string {
	return fmt.Sprintf("proc %d (%s) %s", p.PID, p.Name, p.state)
}

// schedEvent is what a process reports back to the scheduler when it gives
// up the CPU.
type schedEvent int

const (
	evSlept schedEvent = iota
	evYielded
	evExited
)

// Spawn creates a process. It becomes runnable immediately but does not run
// until the scheduler selects it inside Run.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	if body == nil {
		panic("kernel: nil proc body")
	}
	p := &Proc{
		PID:      k.nextPID,
		Name:     name,
		k:        k,
		state:    ProcRunnable,
		resume:   make(chan struct{}),
		body:     body,
		firstRun: true,
		// Presized for typical Call nesting so the hot path never regrows.
		callStack: make([]*Fn, 0, 32),
	}
	k.nextPID++
	k.procs = append(k.procs, p)
	k.runq = append(k.runq, p)
	go p.run()
	return p
}

// run is the process goroutine: reserve its stack, wait for the CPU,
// execute the body, exit.
func (p *Proc) run() {
	reserveStack()
	<-p.resume
	p.onDispatch()
	p.body(p)
	p.exit()
}

// stackReserve is the frame reserveStack puts on a fresh process goroutine.
// A goroutine starts on a 2 KB stack of which only 2048 minus the runtime's
// guard is usable: 1 120 B in a default build (928 B guard) and 320 B under
// -race (1 728 B guard). A process body would overflow it about 17 Go frames
// deep, under Advance inside a syscall's sleep path, and the runtime would
// copy every one of those frames to a 4 KB stack, once for each of
// proday's 2 000 sinks. 1.5 KB exceeds what a 2 KB stack can hold in either
// build and fits in a 4 KB one, so the runtime's one doubling happens at
// spawn with a single frame to copy, and a 4 KB stack holds the scenarios'
// deepest syscall-plus-interrupt chains. The size is derived from the
// runtime's limits, not tuned; an 8 KB reservation measured slower, with
// larger stacks (EXPERIMENTS.md, E31). When the runtime already starts
// goroutines larger (its adaptive start size, after a GC), the call costs
// one frame.
const stackReserve = 1536

// reserveStack grows the calling goroutine's stack past stackReserve and
// returns, leaving that room for the frames to come. It runs on the process
// goroutine before the process holds the CPU token, concurrently with the
// simulation, so it must touch nothing but its own frame; KeepAlive keeps
// the frame from being optimised away without letting it escape.
//
//go:noinline
func reserveStack() {
	var frame [stackReserve]byte
	runtime.KeepAlive(&frame)
}

// onDispatch runs in the process context immediately after it is handed the
// CPU for the first time: restore cost plus the swtch exit trigger.
func (p *Proc) onDispatch() {
	k := p.k
	k.Advance(costSwtchRestore)
	k.fireTrigger(k.fnSwtch, k.fnSwtch.exitAddr)
}

// exit terminates the process: a final entry into swtch that never returns.
func (p *Proc) exit() {
	k := p.k
	p.state = ProcZombie
	k.Stats.ContextSw++
	k.fnSwtch.Calls++
	k.fireTrigger(k.fnSwtch, k.fnSwtch.entryAddr)
	k.Advance(costSwtchSave)
	k.toSched <- evExited
	// goroutine ends; the CPU token now belongs to the scheduler.
}

// Yield gives up the CPU voluntarily (the syscall-return reschedule point).
// The process goes to the back of the run queue.
func (p *Proc) Yield() {
	k := p.k
	if k.curproc != p {
		panic("kernel: Yield from a process that does not own the CPU")
	}
	k.swtchOut(p, evYielded)
}

// swtchOut performs the in-context half of a context switch: swtch entry
// trigger, state save, hand the token to the scheduler, and - once the
// scheduler hands it back - state restore and the swtch exit trigger.
func (k *Kernel) swtchOut(p *Proc, ev schedEvent) {
	// The priority level drops to zero on the way into swtch — the
	// spl0 calls visible just before context switches in the paper's
	// Figure 4 trace.
	k.Spl0()
	k.Stats.ContextSw++
	k.fnSwtch.Calls++
	k.fireTrigger(k.fnSwtch, k.fnSwtch.entryAddr)
	k.Advance(costSwtchSave)
	k.toSched <- ev
	<-p.resume
	// Back on the CPU, still logically inside swtch.
	k.Advance(costSwtchRestore)
	k.fireTrigger(k.fnSwtch, k.fnSwtch.exitAddr)
}

// Tsleep blocks the process on ident until Wakeup(ident), or until timeout
// ticks elapse if timeout > 0. It reports true if it timed out, false if it
// was woken. Costs and triggers follow the paper: tsleep's own work then a
// context switch through swtch.
func (k *Kernel) Tsleep(ident any, msg string, timeoutTicks int) (timedOut bool) {
	p := k.curproc
	if p == nil {
		panic("kernel: Tsleep outside process context (ident=" + fmt.Sprint(ident) + ")")
	}
	if ident == nil {
		panic("kernel: Tsleep on nil ident")
	}
	k.Enter(k.fnTsleep)
	k.Advance(costTsleep)
	p.sleepIdent = ident
	p.sleepMsg = msg
	p.timedOut = false
	if timeoutTicks > 0 {
		p.sleepTimer = k.Timeout(func() { k.endTsleep(p, true) }, timeoutTicks)
	}
	p.state = ProcSleeping
	k.sleepers[ident] = append(k.sleepers[ident], p)
	k.swtchOut(p, evSlept)
	k.Exit(k.fnTsleep)
	return p.timedOut
}

// endTsleep makes a sleeping process runnable again.
func (k *Kernel) endTsleep(p *Proc, timedOut bool) {
	if p.state != ProcSleeping {
		return
	}
	if !timedOut && p.sleepTimer != nil {
		k.Untimeout(p.sleepTimer)
	}
	p.sleepTimer = nil
	p.timedOut = timedOut
	// Remove from the sleepers list for its ident.
	q := k.sleepers[p.sleepIdent]
	for i, sp := range q {
		if sp == p {
			k.sleepers[p.sleepIdent] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(k.sleepers[p.sleepIdent]) == 0 {
		delete(k.sleepers, p.sleepIdent)
	}
	p.sleepIdent = nil
	p.state = ProcRunnable
	k.CallCost(k.fnSetrq, costSetrq)
	k.runq = append(k.runq, p)
}

// Wakeup makes every process sleeping on ident runnable. It may be called
// from interrupt handlers, other processes, or callouts.
func (k *Kernel) Wakeup(ident any) {
	k.Call(k.fnWakeup, func() {
		k.Advance(costWakeup)
		for _, p := range append([]*Proc(nil), k.sleepers[ident]...) {
			k.endTsleep(p, false)
		}
	})
}

// Runnable reports the run-queue length (for tests).
func (k *Kernel) Runnable() int { return len(k.runq) }

// NeedResched requests a reschedule at the next voluntary point (roundrobin
// from hardclock).
func (k *Kernel) NeedResched() { k.needResch = true }

// Run is the scheduler/idle context: it dispatches runnable processes and
// idles - advancing virtual time across device events and interrupts - when
// none are runnable. It returns when virtual time reaches until and the CPU
// token is back with the scheduler.
//
// The idle loop lives, as in 386BSD, "inside swtch": the analysis software
// attributes time between a swtch entry and the next swtch exit to idle
// (minus interrupt time), so Run needs no triggers of its own beyond the
// ones processes fire on their way in and out.
func (k *Kernel) Run(until sim.Time) {
	if k.running {
		panic("kernel: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()

	for k.Now() < until {
		if len(k.runq) == 0 {
			k.idleAdvance(until)
			continue
		}
		p := k.runq[0]
		k.runq = k.runq[1:]
		if p.state == ProcZombie {
			continue
		}
		p.state = ProcRunning
		k.curproc = p
		k.needResch = false
		p.resume <- struct{}{}
		ev := <-k.toSched
		k.curproc = nil
		switch ev {
		case evYielded:
			p.state = ProcRunnable
			k.runq = append(k.runq, p)
		case evSlept, evExited:
			// Already accounted.
		}
	}
}

// RunUntilIdle runs until no process is runnable or sleeping with a pending
// wake source, bounded by maxTime as a safety net. It reports the time the
// system went fully idle.
func (k *Kernel) RunUntilIdle(maxTime sim.Time) sim.Time {
	if k.running {
		panic("kernel: Run re-entered")
	}
	k.running = true
	defer func() { k.running = false }()

	for k.Now() < maxTime {
		if len(k.runq) == 0 {
			if k.liveProcs() == 0 {
				return k.Now()
			}
			// Sleeping processes with no future events can never wake.
			if _, ok := k.sched.NextAt(); !ok {
				return k.Now()
			}
			k.idleAdvance(maxTime)
			continue
		}
		p := k.runq[0]
		k.runq = k.runq[1:]
		if p.state == ProcZombie {
			continue
		}
		p.state = ProcRunning
		k.curproc = p
		k.needResch = false
		p.resume <- struct{}{}
		ev := <-k.toSched
		k.curproc = nil
		if ev == evYielded {
			p.state = ProcRunnable
			k.runq = append(k.runq, p)
		}
	}
	return k.Now()
}

func (k *Kernel) liveProcs() int {
	n := 0
	for _, p := range k.procs {
		if p.state != ProcZombie {
			n++
		}
	}
	return n
}

// idleAdvance burns idle time until a process becomes runnable or the clock
// reaches limit. Interrupts fire and are serviced from the idle context.
func (k *Kernel) idleAdvance(limit sim.Time) {
	k.idleActive = true
	defer func() { k.idleActive = false }()
	for len(k.runq) == 0 && k.Now() < limit {
		next, ok := k.sched.NextAt()
		if !ok {
			// Nothing will ever happen; idle straight to the limit.
			k.sched.AdvanceTo(limit)
			return
		}
		if next > limit {
			k.sched.AdvanceTo(limit)
			return
		}
		k.sched.AdvanceTo(next)
		k.sched.RunDue()
		k.dispatchInterrupts()
	}
}

// Idle reports whether the CPU is in the idle loop (for tests and devices).
func (k *Kernel) Idle() bool { return k.idleActive }
