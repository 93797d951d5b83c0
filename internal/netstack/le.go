package netstack

import (
	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

// LE models the Ethernet controller of the Megadata 68020 embedded board —
// a LANCE-class chip that DMAs frames into shared on-board memory, so no
// ISA bus stands between the driver and the data. The paper's first case
// study lives here: "a number of profiling studies helped greatly in
// identifying key performance problem areas in the kernel, and in one case
// the recoding of an Ethernet driver doubled the network throughput."
//
// Both driver generations are implemented:
//
//   - DriverOld: the original — receive into a staging buffer with a
//     byte-at-a-time copy loop, then a second copy into mbufs. Two passes
//     over every packet, both at byte-loop speed.
//   - DriverRecoded: the rewrite the Profiler motivated — a single
//     word-at-a-time copy straight from the receive ring into mbufs.
type LE struct {
	n *Net
	k *kernel.Kernel

	Style DriverStyle

	irq *kernel.IRQ

	fnLeIntr  *kernel.Fn
	fnLeRint  *kernel.Fn
	fnLeRead  *kernel.Fn
	fnLeCopy  *kernel.Fn // the driver's own copy loop (the hot spot)
	fnLeStart *kernel.Fn

	ring      [][]byte
	ringHead  int
	ringBytes int
	txBusy    bool
	txDone    bool

	txFree []*leTxJob

	// wireTaps see a transmitted frame only for the duration of the call;
	// the buffer is recycled afterwards.
	wireTaps []func(frame []byte)

	// Statistics.
	RxFrames, RxDrops, TxFrames uint64
}

// DriverStyle selects the driver generation.
type DriverStyle int

const (
	// DriverOld is the original double-copy byte-loop driver.
	DriverOld DriverStyle = iota
	// DriverRecoded is the single-pass word-copy rewrite.
	DriverRecoded
)

func (d DriverStyle) String() string {
	if d == DriverRecoded {
		return "recoded"
	}
	return "old"
}

// Driver copy rates on the 68020 board. The byte loop reads, masks and
// stores one byte per iteration (≈10 cycles at 20 MHz ≈ 500 ns/byte); the
// recoded move.l loop streams 4 bytes per iteration.
const (
	leByteLoopPerB = 500 * sim.Nanosecond
	leWordLoopPerB = 130 * sim.Nanosecond
	leRingCapacity = 16 * 1024

	costLeIntrBody  = 30 * sim.Microsecond
	costLeRintBody  = 40 * sim.Microsecond
	costLeReadBody  = 9 * sim.Microsecond
	costLeStartBody = 18 * sim.Microsecond
)

// NewLE attaches the embedded Ethernet controller to the machine.
func NewLE(n *Net, style DriverStyle) *LE {
	le := &LE{
		n:         n,
		k:         n.k,
		Style:     style,
		ring:      make([][]byte, 0, 16),
		fnLeIntr:  n.k.RegisterFn("if_le", "leintr"),
		fnLeRint:  n.k.RegisterFn("if_le", "lerint"),
		fnLeRead:  n.k.RegisterFn("if_le", "leread"),
		fnLeCopy:  n.k.RegisterFn("if_le", "lecopy"),
		fnLeStart: n.k.RegisterFn("if_le", "lestart"),
	}
	le.irq = n.k.RegisterIRQ("le0", kernel.MaskNet, 0, 3, le.intr)
	return le
}

// AddWireTap adds a receiver of transmitted frames.
func (le *LE) AddWireTap(f func(frame []byte)) { le.wireTaps = append(le.wireTaps, f) }

// HostDeliver is the wire side: the chip DMAs the frame into the ring and
// interrupts. A full ring drops.
func (le *LE) HostDeliver(ipPacket []byte) {
	if le.ringBytes+len(ipPacket)+4 > leRingCapacity {
		le.RxDrops++
		le.n.frames.Put(ipPacket)
		return
	}
	le.RxFrames++
	le.ring = append(le.ring, ipPacket)
	le.ringBytes += len(ipPacket) + 4
	le.k.Raise(le.irq)
}

func (le *LE) intr() {
	le.k.Call(le.fnLeIntr, func() {
		le.k.Advance(costLeIntrBody)
		if le.ringHead < len(le.ring) {
			le.rint()
		}
		if le.txDone {
			le.txDone = false
		}
	})
}

func (le *LE) rint() {
	le.k.Call(le.fnLeRint, func() {
		le.k.Advance(costLeRintBody)
		for le.ringHead < len(le.ring) {
			frame := le.ring[le.ringHead]
			le.ring[le.ringHead] = nil
			le.ringHead++
			le.ringBytes -= len(frame) + 4
			le.read(frame)
		}
		le.ring = le.ring[:0]
		le.ringHead = 0
	})
}

// read builds the mbuf chain for one frame, through whichever copy
// generation the driver has.
func (le *LE) read(frame []byte) {
	le.k.Call(le.fnLeRead, func() {
		le.k.Advance(costLeReadBody)
		chain := le.buildChain(len(frame))
		chain.Frame = frame
		switch le.Style {
		case DriverOld:
			// Pass one: ring buffer to the staging area, byte loop.
			le.k.CallCost(le.fnLeCopy, sim.Time(len(frame))*leByteLoopPerB)
			// Pass two: staging area into the mbufs, byte loop again.
			le.k.CallCost(le.fnLeCopy, sim.Time(len(frame))*leByteLoopPerB)
		case DriverRecoded:
			// One pass, word-wide, straight into the mbufs.
			le.k.CallCost(le.fnLeCopy, sim.Time(len(frame))*leWordLoopPerB)
		}
		le.n.enqueueIP(chain, frame)
	})
}

func (le *LE) buildChain(length int) *mem.Mbuf {
	var chain *mem.Mbuf
	remaining := length
	first := true
	for remaining > 0 {
		var m *mem.Mbuf
		space := mem.MCLBytes
		if first {
			m = le.n.pool.MGet()
			space = mem.MHLen
			first = false
		} else {
			m = le.n.pool.MGetCluster()
		}
		chunk := remaining
		if chunk > space {
			chunk = space
		}
		m.Len = chunk
		m.Region = bus.MainMemory
		chain = mem.AppendChain(chain, m)
		remaining -= chunk
	}
	return chain
}

// Transmit copies the frame into the ring (word loop in both generations;
// the receive path was the broken one) and sends it after the wire time.
func (le *LE) Transmit(frame []byte) {
	le.k.Call(le.fnLeStart, func() {
		le.k.Advance(costLeStartBody)
		le.k.CallCost(le.fnLeCopy, sim.Time(len(frame))*leWordLoopPerB)
		le.txBusy = true
		le.TxFrames++
		j := le.txJobGet()
		j.frame = frame
		le.k.Scheduler().AfterFree(WireTime(len(frame)), j.fire)
	})
}

// leTxJob is the LE's pooled in-flight transmission, mirroring the WE's
// txJob so steady output allocates no closure or event per frame.
type leTxJob struct {
	le    *LE
	frame []byte
	fire  func() // bound once to done
}

func (le *LE) txJobGet() *leTxJob {
	if n := len(le.txFree); n > 0 {
		j := le.txFree[n-1]
		le.txFree = le.txFree[:n-1]
		return j
	}
	j := &leTxJob{le: le}
	j.fire = j.done
	return j
}

func (j *leTxJob) done() {
	le, frame := j.le, j.frame
	j.frame = nil
	le.txFree = append(le.txFree, j)
	le.txBusy = false
	le.txDone = true
	le.k.Raise(le.irq)
	for _, tap := range le.wireTaps {
		tap(frame)
	}
	le.n.frames.Put(frame)
}
