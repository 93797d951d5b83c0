package kernel

import "kprof/internal/sim"

// Callout is a pending timeout() request, executed by softclock when its
// tick count expires.
type Callout struct {
	fn     func()
	ticks  int
	active bool
}

// Timeout arranges for fn to run ticks clock ticks from now, in softclock
// context. It models the BSD timeout() interface, callout-table scan cost
// included.
func (k *Kernel) Timeout(fn func(), ticks int) *Callout {
	if fn == nil {
		panic("kernel: nil timeout function")
	}
	if ticks < 1 {
		ticks = 1
	}
	c := &Callout{fn: fn, ticks: ticks, active: true}
	k.Call(k.fnTimeout, func() {
		k.Advance(costTimeout)
		k.callouts = append(k.callouts, c)
	})
	return c
}

// Untimeout cancels a pending callout; cancelling an expired or already
// cancelled callout is a no-op.
func (k *Kernel) Untimeout(c *Callout) {
	k.Call(k.fnUntime, func() {
		k.Advance(costUntimeout)
		c.active = false
	})
}

// StartClock installs the clock interrupt and begins ticking at HZ. The
// paper measured the whole tick at ≈94 µs on average — the ISAINTR stub,
// hardclock's bookkeeping, the periodic statistics gathering and the
// software-interrupt emulation on the way out all add up.
func (k *Kernel) StartClock() {
	irq := k.RegisterIRQ("clk", MaskClock, MaskAll, 0, k.hardclock)
	period := sim.Second / sim.Time(hz)
	// The tick closure is allocated once and rearmed on pooled events, so
	// a long run's clock costs no allocation per tick.
	var tick func()
	tick = func() {
		k.Raise(irq)
		k.sched.AfterFree(period, tick)
	}
	k.sched.AfterFree(period, tick)
	k.RegisterSoft(SoftClockBit, "softclock", k.softclock)
}

// roundRobinTicks is the quantum: request a reschedule every N ticks, as
// BSD's roundrobin() does (100 ms at HZ=100).
const roundRobinTicks = 10

// hardclock is the clock ISR body (the ISAINTR wrapper is supplied by the
// interrupt dispatch path).
func (k *Kernel) hardclock() {
	k.Call(k.fnHardclk, func() {
		k.ticks++
		k.Stats.Ticks++
		k.Advance(costHardclockBase)
		// Statistics gathering runs at a fraction of clock rate when no
		// separate statclock exists; every fourth tick approximates the
		// skewed statclock of the period.
		if k.ticks%4 == 0 {
			k.CallCost(k.fnGather, costGatherstats)
		}
		// Age the callout table; schedule softclock if anything expired.
		expired := false
		for _, c := range k.callouts {
			if !c.active {
				continue
			}
			c.ticks--
			if c.ticks <= 0 {
				expired = true
			}
		}
		if expired {
			k.ScheduleSoft(SoftClockBit)
		}
		if k.ticks%roundRobinTicks == 0 {
			k.NeedResched()
		}
	})
}

// softclock runs expired callouts at soft-interrupt priority.
func (k *Kernel) softclock() {
	k.Call(k.fnSoftclk, func() {
		k.Advance(costSoftclockBase)
		// Collect first: callout bodies may add new callouts.
		var due []*Callout
		live := k.callouts[:0]
		for _, c := range k.callouts {
			switch {
			case !c.active:
				// drop
			case c.ticks <= 0:
				c.active = false
				due = append(due, c)
			default:
				live = append(live, c)
			}
		}
		k.callouts = live
		for _, c := range due {
			k.Advance(costPerCallout)
			c.fn()
		}
	})
}
