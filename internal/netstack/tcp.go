package netstack

import (
	"kprof/internal/bus"
	"kprof/internal/mem"
)

// The TCP path implemented here is the slice the paper exercises: an
// established connection receiving a stream of data segments (the
// read-and-discard saturation test) and sending acknowledgements, plus the
// send side used by the FTP-style comparison in the filesystem study. There
// is no three-way handshake, retransmission or congestion control — the
// paper's workloads never leave the established data path, and the profiler
// is the subject, not TCP.

// tcpcb is the per-connection control block.
type tcpcb struct {
	rcvNxt  uint32
	sndNxt  uint32
	peer    uint32
	rport   uint16
	unacked int // data segments since the last ACK (delayed-ack state)

	// Stats.
	SegsIn, SegsOut, DupSegs, AcksOut uint64
	SbFulls                           uint64
}

// tcpInput processes one received TCP segment: verify the checksum over the
// whole segment (the expensive part), locate the PCB, and append in-window
// data to the socket's receive buffer, waking the reader and scheduling an
// acknowledgement.
func (n *Net) tcpInput(ih *IPv4Header, seg []byte, chain *mem.Mbuf) {
	n.k.Call(n.fnTCPInput, func() {
		n.k.Advance(costTCPInputBody)
		// Checksum covers pseudo-header + header + data: the full
		// segment is touched, which is why in_cksum is ≈31% of the CPU
		// in the saturation test.
		if n.CksumPseudo(ih.Src, ih.Dst, ProtoTCP, seg, n.cksumRegion()) != 0 {
			n.IPBadChecksum++
			n.freeChain(chain)
			return
		}
		th, payload, err := ParseTCP(ih.Src, ih.Dst, seg)
		if err != nil {
			n.IPBadChecksum++
			n.freeChain(chain)
			return
		}
		so := n.pcbLookup(ProtoTCP, th.DstPort)
		if so == nil {
			n.NoSocketDrops++
			n.freeChain(chain)
			return
		}
		tcb := so.tcb
		if tcb.peer == 0 {
			// First segment establishes the (implicit) connection.
			tcb.peer = ih.Src
			tcb.rport = th.SrcPort
			tcb.rcvNxt = th.Seq
		}
		tcb.SegsIn++
		if len(payload) == 0 {
			// Pure ACK: update send state, free, done.
			if th.Flags&FlagACK != 0 && th.Ack > tcb.sndNxt {
				tcb.sndNxt = th.Ack
			}
			so.noteAck(th.Ack)
			n.freeChain(chain)
			return
		}
		if th.Seq < tcb.rcvNxt {
			tcb.DupSegs++
			n.freeChain(chain)
			return
		}
		if th.Seq > tcb.rcvNxt {
			// Gap: frames dropped at the ring or the IP queue. Accept
			// from the new offset (the discard workload never misses
			// them); a full reassembly queue is out of scope.
			tcb.rcvNxt = th.Seq
		}
		// m_pullup of the header portion before the PCB demux touched it.
		n.k.Bcopy(bus.CopyCost(TCPHdrLen+IPHdrLen, bus.MainMemory, bus.MainMemory))
		if !n.sbAppend(so, chain, payload) {
			// Receive buffer full: drop and advertise the closed window.
			tcb.SbFulls++
			n.freeChain(chain)
			n.tcpAck(so)
			return
		}
		tcb.rcvNxt += uint32(len(payload))
		n.soWakeup(so)
		tcb.unacked++
		if n.AckEveryPacket || tcb.unacked >= 2 {
			n.tcpAck(so)
		}
	})
}

// tcpAck emits an acknowledgement for everything received so far.
func (n *Net) tcpAck(so *Socket) {
	tcb := so.tcb
	tcb.unacked = 0
	tcb.AcksOut++
	n.tcpOutput(so, nil, FlagACK)
}

// tcpOutput builds and sends one segment (header only for ACKs; header plus
// payload for the send side). The segment is assembled directly into a
// pooled frame with IP headroom, so the steady ACK stream allocates nothing.
func (n *Net) tcpOutput(so *Socket, payload []byte, flags uint8) {
	tcb := so.tcb
	n.k.Call(n.fnTCPOutput, func() {
		n.k.Advance(costTCPOutputBody)
		th := TCPHeader{
			SrcPort: so.Port,
			DstPort: tcb.rport,
			Seq:     tcb.sndNxt,
			Ack:     tcb.rcvNxt,
			Flags:   flags,
			// The advertised window is the socket buffer's free space:
			// this is what throttles the Sparc when the PC falls behind.
			Window: uint16(so.SbSpace()),
		}
		frame := n.frames.Get(IPHdrLen + TCPHdrLen + len(payload))
		seg := frame[IPHdrLen:]
		copy(seg[TCPHdrLen:], payload)
		th.MarshalInto(seg, PCAddr, tcb.peer)
		// tcp_output checksums the outgoing segment.
		n.CksumPseudo(PCAddr, tcb.peer, ProtoTCP, seg, bus.MainMemory)
		tcb.sndNxt += uint32(len(payload))
		tcb.SegsOut++
		n.ipOutputFrame(ProtoTCP, PCAddr, tcb.peer, frame)
	})
}

// Connect primes a socket's control block with a peer, as the established
// connection the workloads assume.
func (so *Socket) Connect(peer uint32, rport uint16) {
	so.tcb.peer = peer
	so.tcb.rport = rport
}
