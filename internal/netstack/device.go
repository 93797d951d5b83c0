package netstack

import (
	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

// WE models the Western Digital WD8003E: an 8-bit ISA Ethernet controller
// with 8 KiB of on-board packet RAM. Every byte in or out of that RAM
// crosses the 8-bit ISA bus at ≈20× main-memory cost — the paper's central
// I/O bottleneck. Received frames sit in the card's receive ring until the
// driver copies them into mbufs (weget); transmitted frames are copied into
// card RAM (westart) before the card serialises them onto the wire.
type WE struct {
	n *Net
	k *kernel.Kernel

	irq *kernel.IRQ

	fnWeIntr  *kernel.Fn
	fnWeRint  *kernel.Fn
	fnWeRead  *kernel.Fn
	fnWeGet   *kernel.Fn
	fnWeStart *kernel.Fn
	fnWeTint  *kernel.Fn

	// ring holds received frames awaiting the driver, in card RAM,
	// consumed from ringHead so the backing array is reused.
	ring      [][]byte
	ringHead  int
	ringBytes int
	txBusy    bool
	txDone    bool

	// txFree recycles in-flight transmit descriptors (frame + completion
	// callback), so the steady ACK stream schedules without allocating.
	txFree []*txJob

	// wireTaps receive frames the PC transmits (the remote hosts' view);
	// an empty list discards them. A tap sees the frame only for the
	// duration of the call: the buffer is recycled afterwards, so a tap
	// that keeps bytes must copy them.
	wireTaps []func(frame []byte)

	// Statistics.
	RxFrames, RxDrops, TxFrames uint64
	RxInterrupts, TxInterrupts  uint64
}

// RingCapacity is the card's usable packet RAM for the receive ring.
const RingCapacity = 8 * 1024

// wireNsPerByte is 10 Mb/s Ethernet: 800 ns per byte on the wire.
const wireNsPerByte = 800 * sim.Nanosecond

// frameOverhead is preamble + Ethernet header + CRC + interframe gap, in
// bytes-on-the-wire terms, added to every IP packet we carry.
const frameOverhead = 38

func newWE(n *Net) *WE {
	we := &WE{
		n:         n,
		k:         n.k,
		ring:      make([][]byte, 0, 16),
		fnWeIntr:  n.k.RegisterFn("if_we", "weintr"),
		fnWeRint:  n.k.RegisterFn("if_we", "werint"),
		fnWeRead:  n.k.RegisterFn("if_we", "weread"),
		fnWeGet:   n.k.RegisterFn("if_we", "weget"),
		fnWeStart: n.k.RegisterFn("if_we", "westart"),
		fnWeTint:  n.k.RegisterFn("if_we", "wetint"),
	}
	we.irq = n.k.RegisterIRQ("we0", kernel.MaskNet, 0, 3, we.intr)
	return we
}

// AddWireTap adds a receiver for transmitted frames alongside existing ones.
// The frame passed to f is only valid for the duration of the call.
func (we *WE) AddWireTap(f func(frame []byte)) { we.wireTaps = append(we.wireTaps, f) }

// WireTime reports how long a frame of n IP bytes occupies the Ethernet.
func WireTime(n int) sim.Time {
	return sim.Time(n+frameOverhead) * wireNsPerByte
}

// HostDeliver is called by the traffic generator (via a sim event) when a
// frame arrives from the wire: the card DMAs it into its ring — no CPU
// involvement — and raises its interrupt. A full ring drops the frame, which
// is exactly what happened to the saturated PC in the paper's test.
// Ownership of ipPacket passes to the device; the caller must not reuse it.
func (we *WE) HostDeliver(ipPacket []byte) {
	if we.ringBytes+len(ipPacket)+4 > RingCapacity {
		we.RxDrops++
		we.n.frames.Put(ipPacket)
		return
	}
	we.RxFrames++
	we.ring = append(we.ring, ipPacket)
	we.ringBytes += len(ipPacket) + 4
	we.k.Raise(we.irq)
}

// PendingRx reports frames waiting in the card ring (for tests).
func (we *WE) PendingRx() int { return len(we.ring) - we.ringHead }

// intr is the card ISR: dispatch receive and transmit-complete work.
func (we *WE) intr() {
	we.k.Call(we.fnWeIntr, func() {
		we.k.Advance(costWeIntrBody)
		if we.PendingRx() > 0 {
			we.RxInterrupts++
			we.rint()
		}
		if we.txDone {
			we.txDone = false
			we.TxInterrupts++
			we.k.CallCost(we.fnWeTint, costWeTintBody)
		}
	})
}

// rint drains the receive ring: one werint per interrupt, one weread per
// frame — when the CPU is saturated several frames accumulate per
// interrupt, which is why the paper's Figure 3 shows ~2-3 packets handled
// per werint call.
func (we *WE) rint() {
	we.k.Call(we.fnWeRint, func() {
		we.k.Advance(costWeRintBody)
		for we.ringHead < len(we.ring) {
			frame := we.ring[we.ringHead]
			we.ring[we.ringHead] = nil
			we.ringHead++
			we.ringBytes -= len(frame) + 4
			we.read(frame)
		}
		we.ring = we.ring[:0]
		we.ringHead = 0
	})
}

// read processes one received frame: fetch the header from card RAM, build
// the mbuf chain (weget does the ISA-bus copies), and queue it for ipintr.
func (we *WE) read(frame []byte) {
	we.k.Call(we.fnWeRead, func() {
		we.k.Advance(costWeReadBody)
		// Peek at the buffer header in card RAM: a short ISA access.
		we.k.Advance(bus.TouchCost(4, bus.ISA8))
		chain := we.get(frame)
		// The chain carries the frame buffer; freeing the chain recycles
		// it back into the frame pool.
		chain.Frame = frame
		we.n.enqueueIP(chain, frame)
	})
}

// get is weget: allocate an mbuf chain and copy the frame out of controller
// memory across the 8-bit bus, chunk by chunk — the ≈1045 µs per full
// packet the paper measures. In the what-if configuration the copy is
// skipped and the chain points at controller memory instead.
func (we *WE) get(frame []byte) *mem.Mbuf {
	var chain *mem.Mbuf
	we.k.Call(we.fnWeGet, func() {
		we.k.Advance(costWeGetBody)
		if we.n.ChecksumInController {
			// Link the controller buffer straight into an external mbuf.
			chain = we.n.pool.MGetExternal(bus.ISA8, len(frame))
			return
		}
		remaining := len(frame)
		first := true
		for remaining > 0 {
			var m *mem.Mbuf
			var space int
			if first {
				m = we.n.pool.MGet()
				space = mem.MHLen
				first = false
			} else {
				m = we.n.pool.MGetCluster()
				space = mem.MCLBytes
			}
			chunk := remaining
			if chunk > space {
				chunk = space
			}
			m.Len = chunk
			we.k.Bcopy(bus.CopyCost(chunk, bus.ISA8, bus.MainMemory))
			chain = mem.AppendChain(chain, m)
			remaining -= chunk
		}
	})
	return chain
}

// txJob is one in-flight transmission: the frame on the wire plus its
// completion callback, pooled on the WE so back-to-back output does not
// allocate a closure and event per frame.
type txJob struct {
	we    *WE
	frame []byte
	fire  func() // bound once to done
}

func (we *WE) txJobGet() *txJob {
	if n := len(we.txFree); n > 0 {
		j := we.txFree[n-1]
		we.txFree = we.txFree[:n-1]
		return j
	}
	j := &txJob{we: we}
	j.fire = j.done
	return j
}

// done is the wire-time completion: transmit-complete interrupt, wire taps,
// and the frame buffer back to the pool.
func (j *txJob) done() {
	we, frame := j.we, j.frame
	j.frame = nil
	we.txFree = append(we.txFree, j)
	we.txBusy = false
	we.txDone = true
	we.k.Raise(we.irq)
	for _, tap := range we.wireTaps {
		tap(frame)
	}
	we.n.frames.Put(frame)
}

// Transmit is westart: copy the frame into card RAM across the ISA bus and
// start the transmitter; the wire time later raises a transmit-complete
// interrupt. Ownership of frame passes to the device: taps see it on the
// wire, then it returns to the frame pool.
func (we *WE) Transmit(frame []byte) {
	we.k.Call(we.fnWeStart, func() {
		we.k.Advance(costWeStartBody)
		if we.txBusy {
			// One outstanding transmit: the card of the period had a
			// single transmit buffer; back-to-back output waits.
			we.k.Advance(costWeStartBody)
		}
		we.k.Bcopy(bus.CopyCost(len(frame), bus.MainMemory, bus.ISA8))
		we.txBusy = true
		we.TxFrames++
		j := we.txJobGet()
		j.frame = frame
		we.k.Scheduler().AfterFree(WireTime(len(frame)), j.fire)
	})
}
