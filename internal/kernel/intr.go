package kernel

import "fmt"

// IRQ is a hardware interrupt line. Devices raise it from sim events; the
// kernel delivers it when the current spl mask admits its class, running the
// handler through the ISAINTR stub on whatever stack is executing — exactly
// the borrowed-context model of real interrupt delivery.
type IRQ struct {
	Name    string
	Class   SPL    // the mask bit that blocks this line; fixed at registration
	RunAt   SPL    // additional classes blocked while the handler runs
	Handler func() // device interrupt service routine
	pri     int    // delivery order among simultaneously pending lines

	pending bool
	// Raised counts raise strobes; Delivered counts handler runs. A line
	// raised while already pending coalesces, as edge-triggered ISA
	// interrupts effectively do once latched in the ICU.
	Raised    uint64
	Delivered uint64
}

// RegisterIRQ installs an interrupt line. Lower pri is delivered first when
// several lines are pending. A line needs a class: one no mask can block
// would make every instant a delivery point.
func (k *Kernel) RegisterIRQ(name string, class SPL, runAt SPL, pri int, handler func()) *IRQ {
	if handler == nil {
		panic("kernel: nil interrupt handler for " + name)
	}
	if class == 0 {
		panic("kernel: interrupt line " + name + " has no class")
	}
	irq := &IRQ{Name: name, Class: class, RunAt: runAt, Handler: handler, pri: pri}
	k.irqs = append(k.irqs, irq)
	return irq
}

// Raise latches the interrupt pending. Delivery happens at the next
// dispatch point (inside Advance, at splx/spl0, or in the idle loop).
func (k *Kernel) Raise(irq *IRQ) {
	irq.Raised++
	irq.pending = true
	k.pendClass |= irq.Class
}

// nextDeliverable picks the pending line the mask admits with the lowest
// pri, and recomputes pendClass on the way.
func (k *Kernel) nextDeliverable() *IRQ {
	var best *IRQ
	var pend SPL
	for _, irq := range k.irqs {
		if !irq.pending {
			continue
		}
		pend |= irq.Class
		if k.spl&irq.Class != 0 {
			continue
		}
		if best == nil || irq.pri < best.pri {
			best = irq
		}
	}
	k.pendClass = pend
	return best
}

// mayDeliver reports whether dispatchInterrupts could run anything now: a
// pending line with a class bit the mask leaves open, or pending soft
// interrupts with soft-net unmasked. It errs only towards yes — a line
// whose class is partly masked, or the class of a line already delivered —
// and never says no when a line or a soft interrupt is deliverable: a
// deliverable line's class is nonzero (RegisterIRQ), inside pendClass and
// disjoint from the mask, and the soft term is runSoftIntrs' own loop
// condition.
func (k *Kernel) mayDeliver() bool {
	return k.pendClass&^k.spl != 0 || (k.softPend != 0 && k.spl&MaskSoftNet == 0)
}

// dispatchInterrupts delivers every deliverable hardware interrupt, then
// any admissible software interrupts. It is called from Advance (so
// interrupts preempt mid-function), from the mask-lowering spl routines and
// from the idle loop.
func (k *Kernel) dispatchInterrupts() {
	for {
		irq := k.nextDeliverable()
		if irq == nil {
			break
		}
		irq.pending = false
		k.runIntr(irq)
	}
	k.runSoftIntrs()
}

// runIntr delivers one hardware interrupt through the ISAINTR stub:
// vector + ICU acknowledge, the device ISR, then the return path with its
// software-interrupt (AST) emulation — the ≈24 µs/interrupt overhead the
// paper measures for working around the 386's lack of ASTs.
func (k *Kernel) runIntr(irq *IRQ) {
	irq.Delivered++
	k.Stats.Interrupts++
	k.intrNest++
	saved := k.spl
	k.Enter(k.fnISAINTR)
	// Interrupts are off (cli) through the stub until the ICU mask for
	// this line's class is in place.
	k.spl = MaskAll
	k.Advance(k.costs.intrEntry)
	k.spl = saved | irq.Class | irq.RunAt
	irq.Handler()
	k.Advance(k.costs.intrAST)
	k.Exit(k.fnISAINTR)
	k.spl = saved
	k.intrNest--
}

// Software interrupts (the netisr mechanism). The 386 has no hardware ASTs,
// so 386BSD keeps a word of pending soft-interrupt bits checked on the way
// out of every hardware interrupt and whenever spl drops to 0.

type softIntr struct {
	bit     uint32
	name    string
	handler func()
	// Scheduled / Run counters for tests and reports.
	Scheduled uint64
	Run       uint64
}

// Well-known soft interrupt bits.
const (
	SoftNetIP uint32 = 1 << iota
	SoftClockBit
)

// RegisterSoft installs a software-interrupt handler on a bit.
func (k *Kernel) RegisterSoft(bit uint32, name string, handler func()) {
	if handler == nil {
		panic("kernel: nil soft handler for " + name)
	}
	if _, dup := k.softs[bit]; dup {
		panic(fmt.Sprintf("kernel: soft interrupt bit %#x registered twice", bit))
	}
	k.softs[bit] = &softIntr{bit: bit, name: name, handler: handler}
}

// ScheduleSoft marks a software interrupt pending (schednetisr).
func (k *Kernel) ScheduleSoft(bit uint32) {
	if s, ok := k.softs[bit]; ok {
		s.Scheduled++
	}
	k.softPend |= bit
}

// runSoftIntrs drains admissible soft interrupts. Soft net handlers run
// with soft-net (and soft-clock) masked so they do not re-enter.
func (k *Kernel) runSoftIntrs() {
	for k.softPend != 0 && k.spl&MaskSoftNet == 0 {
		bit := k.softPend & -k.softPend // lowest set bit first
		k.softPend &^= bit
		s, ok := k.softs[bit]
		if !ok {
			continue
		}
		s.Run++
		k.Stats.SoftIntrs++
		saved := k.spl
		k.spl |= MaskSoftNet | MaskSoftClock
		k.Enter(k.fnDoreti)
		k.Advance(k.costs.doreti)
		s.handler()
		k.Exit(k.fnDoreti)
		k.spl = saved
	}
}
