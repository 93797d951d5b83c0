package kernel

import (
	"fmt"
	"slices"
	"testing"

	"kprof/internal/sim"
)

// legacyAdvance is Advance without its quiet path: the full event and
// interrupt scan on every interval, as every interval took before the
// quiet path existed. FuzzAdvanceQuiet holds Advance to it.
func legacyAdvance(k *Kernel, cost sim.Time) {
	if cost < 0 {
		panic("kernel: negative cost")
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
		k.sched.RunDue()
		k.dispatchInterrupts()
	}
	k.sched.RunDue()
	k.dispatchInterrupts()
}

// advRig is one kernel of the differential: three interrupt lines, two
// soft interrupts, and handlers that log what ran when and charge their
// time through the rig's advance — Advance on one side, legacyAdvance on
// the other.
type advRig struct {
	k    *Kernel
	adv  func(sim.Time)
	log  []string
	irqs [3]*IRQ
	spls []SPL
}

func newAdvRig(quiet bool) *advRig {
	r := &advRig{k: newTestKernel()}
	k := r.k
	r.adv = k.Advance
	if !quiet {
		r.adv = func(c sim.Time) { legacyAdvance(k, c) }
	}
	note := func(what string) { r.log = append(r.log, fmt.Sprintf("%s@%d", what, k.Now())) }
	// A network card that hands its packet to the soft interrupt, a disk
	// whose completion also kicks the network line, and a clock that
	// blocks everything while it runs.
	r.irqs[0] = k.RegisterIRQ("net", MaskNet, 0, 3, func() {
		note("net")
		r.adv(3 * sim.Microsecond)
		k.ScheduleSoft(SoftNetIP)
	})
	r.irqs[1] = k.RegisterIRQ("bio", MaskBio, 0, 5, func() {
		note("bio")
		r.adv(5 * sim.Microsecond)
		k.Raise(r.irqs[0])
	})
	r.irqs[2] = k.RegisterIRQ("clk", MaskClock, MaskAll, 0, func() {
		note("clk")
		r.adv(2 * sim.Microsecond)
		k.ScheduleSoft(SoftClockBit)
	})
	k.RegisterSoft(SoftNetIP, "ipintr", func() {
		note("ipintr")
		r.adv(4 * sim.Microsecond)
	})
	k.RegisterSoft(SoftClockBit, "softclock", func() {
		note("softclock")
		r.adv(sim.Microsecond)
	})
	return r
}

// step applies one fuzz operation: a cost (zero included), a line raised
// now or by a device event, an spl raise, an splx back to a saved mask,
// spl0, a soft interrupt scheduled now or from an event (one bit has no
// handler).
func (r *advRig) step(op, arg byte) {
	k := r.k
	d := sim.Time(arg%32) * sim.Microsecond
	switch op % 7 {
	case 0:
		r.adv(d)
	case 1:
		irq := r.irqs[int(op/7)%3]
		if arg >= 0x80 {
			k.Raise(irq) // from process context, outside any event
			break
		}
		k.sched.AfterFree(d, func() { k.Raise(irq) })
	case 2:
		switch arg % 4 {
		case 0:
			r.spls = append(r.spls, k.SplNet())
		case 1:
			r.spls = append(r.spls, k.SplBio())
		case 2:
			r.spls = append(r.spls, k.SplClock())
		default:
			r.spls = append(r.spls, k.SplHigh())
		}
	case 3:
		if n := len(r.spls); n > 0 {
			old := r.spls[n-1]
			r.spls = r.spls[:n-1]
			k.SplX(old)
		}
	case 4:
		k.Spl0()
		r.spls = r.spls[:0]
	case 5:
		k.ScheduleSoft([]uint32{SoftNetIP, SoftClockBit, 1 << 4}[arg%3])
	default:
		bit := []uint32{SoftNetIP, SoftClockBit}[arg%2]
		k.sched.AfterFree(d, func() { k.ScheduleSoft(bit) })
	}
}

// FuzzAdvanceQuiet runs one operation sequence on two kernels — one whose
// costs go through Advance, one through legacyAdvance — and requires the
// same handlers in the same order at the same virtual times, and the same
// clock, counters, mask, pending soft word and event count after every
// step. The kernel's own costs (interrupt entry, AST, doreti, the spl
// bodies) go through Advance on both sides.
func FuzzAdvanceQuiet(f *testing.F) {
	f.Add([]byte{5, 0, 0, 5})                               // soft interrupt pending at spl 0, then a quiet cost
	f.Add([]byte{2, 0, 5, 0, 0, 7, 3, 0, 0, 2})             // soft pending under splnet, released by splx
	f.Add([]byte{1, 4, 0, 4, 0, 3})                         // a line raised exactly at the end of a cost
	f.Add([]byte{8, 0, 0, 0, 15, 9, 0, 20})                 // bio kicks net inside a delivery; clk at a zero cost
	f.Add([]byte{2, 3, 1, 2, 0, 9, 4, 0, 0, 1, 6, 1})       // lines pending under splhigh, delivered by spl0
	f.Add([]byte{6, 3, 0, 2, 0, 3, 13, 1, 0, 31})           // soft interrupts scheduled from events
	f.Add([]byte{1, 0x80, 0, 3, 2, 1, 8, 0x80, 0, 1, 3, 0}) // lines raised outside any event, one masked
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		quiet, full := newAdvRig(true), newAdvRig(false)
		for i, seen := 0, 0; i+1 < len(ops); i += 2 {
			quiet.step(ops[i], ops[i+1])
			full.step(ops[i], ops[i+1])
			qk, fk := quiet.k, full.k
			switch {
			case !slices.Equal(quiet.log[seen:], full.log[seen:]):
				t.Fatalf("step %d (op %d, arg %d): handlers ran\n  quiet: %v\n  full:  %v", i/2, ops[i], ops[i+1], quiet.log, full.log)
			case qk.Now() != fk.Now():
				t.Fatalf("step %d: clock %v, full scan %v", i/2, qk.Now(), fk.Now())
			case qk.Stats != fk.Stats:
				t.Fatalf("step %d: stats %+v, full scan %+v", i/2, qk.Stats, fk.Stats)
			case qk.spl != fk.spl || qk.softPend != fk.softPend:
				t.Fatalf("step %d: spl %#x soft %#x, full scan spl %#x soft %#x", i/2, qk.spl, qk.softPend, fk.spl, fk.softPend)
			case qk.sched.Pending() != fk.sched.Pending():
				t.Fatalf("step %d: %d events pending, full scan %d", i/2, qk.sched.Pending(), fk.sched.Pending())
			}
			seen = len(quiet.log)
		}
	})
}
