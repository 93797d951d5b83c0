package netstack

import (
	"fmt"

	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

// Socket is a kernel socket with a receive buffer of mbuf chains. The
// workloads the paper runs — "a program that listened on a socket and when
// another host connected, read and discard the data" — drive SoReceive in a
// loop; the interrupt path fills the buffer through sbappend and wakes the
// reader.
type Socket struct {
	n     *Net
	Proto uint8
	Port  uint16

	// rcvChains/rcvData queue received chains and their payload slices,
	// consumed from rcvHead so the backing arrays are reused in steady
	// state instead of reallocated by tail slicing.
	rcvChains []*mem.Mbuf
	rcvData   [][]byte // payload bytes parallel to rcvChains
	rcvHead   int
	rcvBytes  int
	// RcvBufCap is the socket receive buffer capacity; the space left is
	// the window TCP advertises, which is what flow-controls the remote
	// sender when the reader cannot keep up.
	RcvBufCap int

	sndUnacked int // bytes sent but not yet acknowledged (send side)

	tcb *tcpcb

	// Stats.
	RcvAppended uint64
	RcvRead     uint64
}

func (n *Net) registerSocketFns() {
	n.fnSoCreate = n.k.RegisterFn("uipc_socket", "socreate")
	n.fnSoReceive = n.k.RegisterFn("uipc_socket", "soreceive")
	n.k.RegisterFn("uipc_socket", "sosend") // no model path sends; the tag numbering keeps it
	n.fnSbAppend = n.k.RegisterFn("uipc_socket2", "sbappend")
	n.fnSbWait = n.k.RegisterFn("uipc_socket2", "sbwait")
	n.fnSoWakeup = n.k.RegisterFn("uipc_socket2", "sowakeup")
}

// SoCreate opens a socket bound to (proto, port).
func (n *Net) SoCreate(proto uint8, port uint16) (*Socket, error) {
	key := pcbKey{proto, port}
	if _, busy := n.pcbs[key]; busy {
		return nil, fmt.Errorf("netstack: port %d/%d in use", proto, port)
	}
	so := &Socket{
		n: n, Proto: proto, Port: port, tcb: &tcpcb{}, RcvBufCap: DefaultSockBuf,
		// Presized for the buffered-chain high-water mark of a full
		// receive buffer, so steady traffic never regrows the queues.
		rcvChains: make([]*mem.Mbuf, 0, 16),
		rcvData:   make([][]byte, 0, 16),
	}
	n.k.Call(n.fnSoCreate, func() {
		n.k.Advance(costSoCreate)
		n.alloc.Malloc(256) // struct socket + pcb
		n.pcbs[key] = so
	})
	return so, nil
}

// Close unbinds the socket.
func (so *Socket) Close() {
	delete(so.n.pcbs, pcbKey{so.Proto, so.Port})
	so.n.pool.MFreeChain(so.chainAll())
}

func (so *Socket) chainAll() *mem.Mbuf {
	var head *mem.Mbuf
	for _, c := range so.rcvChains[so.rcvHead:] {
		head = mem.AppendChain(head, c)
	}
	so.rcvChains = nil
	so.rcvData = nil
	so.rcvHead = 0
	so.rcvBytes = 0
	return head
}

// DefaultSockBuf is the default socket receive buffer capacity.
const DefaultSockBuf = 16 * 1024

// SbSpace reports the free space in the receive buffer — the window TCP
// advertises.
func (so *Socket) SbSpace() int {
	space := so.RcvBufCap - so.rcvBytes
	if space < 0 {
		return 0
	}
	return space
}

// sbAppend queues a received chain on the socket's receive buffer. It
// reports false (and the caller drops the data) when the buffer is full.
func (n *Net) sbAppend(so *Socket, chain *mem.Mbuf, payload []byte) bool {
	ok := false
	n.k.Call(n.fnSbAppend, func() {
		s := n.k.SplNet()
		n.k.Advance(costSbAppend)
		if so.rcvBytes+len(payload) > so.RcvBufCap {
			n.k.SplX(s)
			return
		}
		so.rcvChains = append(so.rcvChains, chain)
		so.rcvData = append(so.rcvData, payload)
		so.rcvBytes += len(payload)
		so.RcvAppended += uint64(len(payload))
		ok = true
		n.k.SplX(s)
	})
	return ok
}

// soWakeup wakes a reader blocked in sbwait.
func (n *Net) soWakeup(so *Socket) {
	n.k.Call(n.fnSoWakeup, func() {
		n.k.Advance(costSoWakeup)
		n.k.Wakeup(&so.rcvChains)
	})
}

// noteAck credits acknowledged bytes back to a blocked sender.
func (so *Socket) noteAck(ack uint32) {
	so.sndUnacked = 0
	so.n.k.Wakeup(&so.sndUnacked)
}

// SoReceive reads up to max payload bytes into the process's buffer,
// blocking (sbwait/tsleep) while the receive buffer is empty. It returns
// the bytes delivered to user space. Must run in process context.
func (n *Net) SoReceive(p *kernel.Proc, so *Socket, max int) []byte {
	return n.SoReceiveInto(p, so, max, nil)
}

// SoReceiveInto is SoReceive appending into buf (which may be nil), so a
// read-and-discard loop can reuse one scratch buffer across reads instead of
// allocating the return slice every time.
func (n *Net) SoReceiveInto(p *kernel.Proc, so *Socket, max int, buf []byte) []byte {
	out := buf[:0]
	n.k.Enter(n.fnSoReceive)
	n.k.Advance(costSoReceiveBody)
	s := n.k.SplNet()
	for so.rcvBytes == 0 {
		n.k.SplX(s)
		n.sbWait(so)
		s = n.k.SplNet()
	}
	for len(out) < max && so.rcvHead < len(so.rcvChains) {
		chain := so.rcvChains[so.rcvHead]
		data := so.rcvData[so.rcvHead]
		if len(out)+len(data) > max && len(out) > 0 {
			break // next chain doesn't fit; deliver what we have
		}
		so.rcvChains[so.rcvHead] = nil
		so.rcvData[so.rcvHead] = nil
		so.rcvHead++
		if so.rcvHead == len(so.rcvChains) {
			so.rcvChains = so.rcvChains[:0]
			so.rcvData = so.rcvData[:0]
			so.rcvHead = 0
		}
		so.rcvBytes -= len(data)
		so.RcvRead += uint64(len(data))
		n.k.SplX(s)
		// Copy to user space cluster by cluster and free the chain.
		// External mbufs (data still in controller memory, the
		// what-if configuration) pay the bus penalty here too.
		for m := chain; m != nil; m = m.Next {
			if m.Len > 0 {
				if m.Region != bus.MainMemory {
					n.k.Advance(sim.Time(m.Len) *
						(bus.NsPerByte(m.Region) - bus.NsPerByte(bus.MainMemory)))
				}
				n.k.Copyout(m.Len)
			}
		}
		// Copy the payload out BEFORE freeing the chain: the free
		// recycles the frame buffer data points into.
		out = append(out, data...)
		n.pool.MFreeChain(chain)
		s = n.k.SplNet()
	}
	n.k.SplX(s)
	n.k.Exit(n.fnSoReceive)
	// Reading opened the receive window; tell the peer (the window-update
	// ACK real TCP sends when space becomes available again).
	if so.Proto == ProtoTCP && so.tcb.peer != 0 && len(out) > 0 {
		n.tcpAck(so)
	}
	return out
}

// sbWait blocks the reading process until data arrives.
func (n *Net) sbWait(so *Socket) {
	n.k.Enter(n.fnSbWait)
	n.k.Advance(costSbWait)
	n.k.Tsleep(&so.rcvChains, "sbwait", 0)
	n.k.Exit(n.fnSbWait)
}

// freeChain releases a receive chain.
func (n *Net) freeChain(chain *mem.Mbuf) {
	if chain != nil {
		n.pool.MFreeChain(chain)
	}
}
