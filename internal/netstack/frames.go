package netstack

// framePool recycles the real byte buffers packets travel in. The simulated
// machine exchanges a few hundred frames per millisecond of virtual time;
// without reuse every segment, acknowledgement and reply is a fresh heap
// allocation, and the host-side profiler (internal/bench) charges that
// against the capture pipeline. The pool closes the loop: output paths and
// traffic generators Get a buffer, and it comes back with Put when the wire
// or the mbuf chain that carried it is done.
//
// Ownership rules:
//
//   - A frame handed to NetDevice.HostDeliver or Transmit belongs to the
//     device from that point on; the caller must not reuse or hold it.
//   - Wire taps (AddWireTap) see a transmitted frame only for the
//     duration of the call — a tap that wants to keep bytes must copy them.
//   - A received frame is released when the mbuf chain built over it is
//     freed (mem.Mbuf.Frame carries the reference).
//
// Foreign buffers — tests and workload generators that build packets with
// plain appends — flow through the same paths; Put recognises the pool's own
// buffers by their exact capacity and lets everything else go to the garbage
// collector, so no caller is forced onto the pool.

// frameCap is the capacity of every pooled buffer: comfortably above the
// largest frame the stack builds (EtherMTU bytes of IP packet) and
// deliberately not a length any append-grown foreign buffer lands on.
const frameCap = 1792

// framePoolMax bounds the free list; beyond it frames are dropped for the
// collector (steady state needs only the frames in flight at once).
const framePoolMax = 64

// frameSlabCount is how many buffers each backing slab carves into: fresh
// frames cost one allocation per slab, not one per frame.
const frameSlabCount = 16

type framePool struct {
	free [][]byte
	slab []byte // remaining backing store, carved frameCap at a time
}

// Get returns a frame buffer of length n with undefined contents — callers
// write every byte. Oversized requests fall through to plain allocation.
func (p *framePool) Get(n int) []byte {
	if n > frameCap {
		return make([]byte, n)
	}
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b[:n]
	}
	if len(p.slab) < frameCap {
		p.slab = make([]byte, frameCap*frameSlabCount)
	}
	b := p.slab[:frameCap:frameCap]
	p.slab = p.slab[frameCap:]
	return b[:n]
}

// Put returns a buffer to the pool. Only buffers the pool itself issued are
// kept (recognised by capacity); foreign buffers are ignored, so Put is safe
// to call on any frame that reaches an ownership-taking path.
func (p *framePool) Put(b []byte) {
	if cap(b) != frameCap || len(p.free) >= framePoolMax {
		return
	}
	if p.free == nil {
		p.free = make([][]byte, 0, framePoolMax)
	}
	p.free = append(p.free, b[:0])
}
