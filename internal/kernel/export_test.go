package kernel

// Active reports whether the callout is still pending.
func (c *Callout) Active() bool { return c.active }

// PendingCallouts reports how many callouts are live (for tests).
func (k *Kernel) PendingCallouts() int {
	n := 0
	for _, c := range k.callouts {
		if c.active {
			n++
		}
	}
	return n
}

// FindFn looks up a function by name.
func (k *Kernel) FindFn(name string) (*Fn, bool) {
	f, ok := k.fns[name]
	return f, ok
}

// CallDepth reports the current context's nesting depth (for tests).
func (k *Kernel) CallDepth() int { return len(*k.stack()) }

// Pending reports whether the line is latched awaiting delivery.
func (irq *IRQ) Pending() bool { return irq.pending }

// InInterrupt reports whether the CPU is in interrupt context.
func (k *Kernel) InInterrupt() bool { return k.intrNest > 0 }

// SoftPending reports the pending soft-interrupt word.
func (k *Kernel) SoftPending() uint32 { return k.softPend }

// SoftIntrStats reports scheduled/run counts for a registered bit.
func (k *Kernel) SoftIntrStats(bit uint32) (scheduled, run uint64) {
	if s, ok := k.softs[bit]; ok {
		return s.Scheduled, s.Run
	}
	return 0, 0
}

// HZ reports the clock tick rate.
func (k *Kernel) HZ() int { return hz }

// CurProc reports the process whose context the CPU is in, or nil in the
// idle loop / boot context.
func (k *Kernel) CurProc() *Proc { return k.curproc }

// SwtchFn returns the context-switch function; the tag file marks it '!'.
func (k *Kernel) SwtchFn() *Fn { return k.fnSwtch }

// SleepersOn reports how many processes sleep on ident (for tests).
func (k *Kernel) SleepersOn(ident any) int { return len(k.sleepers[ident]) }

// CurrentSPL reports the mask in force.
func (k *Kernel) CurrentSPL() SPL { return k.spl }

// SplClock blocks the clock (and, as on the real machine, everything the
// clock path might take).
func (k *Kernel) SplClock() SPL {
	return k.splRaise(k.fnSplclock, MaskClock|MaskSoftClock, k.costs.splRaise)
}
