package kernel

import "kprof/internal/sim"

// SPL is an interrupt-priority mask: a set of interrupt classes currently
// blocked. The 386/ISA architecture has no hardware notion of prioritised
// interrupt levels like the 680x0, so 386BSD implements the spl* interface
// by reprogramming the interrupt-controller mask — which is exactly why the
// spl routines are so expensive on this machine (≈10 µs each) and why the
// paper found up to 9% of total CPU time inside them under network load.
type SPL uint32

// Interrupt classes.
const (
	MaskNet       SPL = 1 << iota // network hardware interrupts
	MaskBio                       // block I/O (disk) interrupts
	MaskTty                       // terminal interrupts
	MaskClock                     // clock interrupts
	MaskSoftNet                   // software network interrupts (netisr)
	MaskSoftClock                 // softclock

	// MaskAll blocks everything (splhigh).
	MaskAll SPL = MaskNet | MaskBio | MaskTty | MaskClock | MaskSoftNet | MaskSoftClock
)

// splRaise is the common body of the raising spl routines: charge the cost
// of reprogramming the ICU, then add bits to the mask. Raising never
// delivers interrupts.
func (k *Kernel) splRaise(fn *Fn, add SPL, cost sim.Time) SPL {
	old := k.spl
	k.Enter(fn)
	k.Advance(cost)
	k.spl |= add
	k.Exit(fn)
	return old
}

// SplNet blocks network hardware and software interrupts; returns the
// previous mask for SplX.
func (k *Kernel) SplNet() SPL { return k.splRaise(k.fnSplnet, MaskNet|MaskSoftNet, k.costs.splRaise) }

// SplBio blocks block-I/O interrupts.
func (k *Kernel) SplBio() SPL { return k.splRaise(k.fnSplbio, MaskBio, k.costs.splRaise) }

// SplHigh blocks all interrupts.
func (k *Kernel) SplHigh() SPL { return k.splRaise(k.fnSplhigh, MaskAll, k.costs.splHigh) }

// SplX restores a mask previously returned by a raising routine and
// delivers any interrupts the lowered mask now admits.
func (k *Kernel) SplX(old SPL) {
	k.Enter(k.fnSplx)
	k.Advance(k.costs.splx)
	k.spl = old
	k.Exit(k.fnSplx)
	k.dispatchInterrupts()
}

// Spl0 lowers the mask completely. It is the expensive one: besides the ICU
// write it polls the software-interrupt word (the netisr emulation the
// paper laments) before returning.
func (k *Kernel) Spl0() SPL {
	old := k.spl
	k.Enter(k.fnSpl0)
	k.Advance(k.costs.spl0)
	k.spl = 0
	k.Advance(k.costs.softPoll)
	k.Exit(k.fnSpl0)
	k.dispatchInterrupts()
	return old
}
