package netstack

import "kprof/internal/mem"

// UDP input/output. The interesting property for the paper is the checksum
// configuration: with UDP checksums off (the usual NFS setup of the period)
// a received datagram's payload is never touched by in_cksum, which is why
// NFS showed *less* CPU overhead than an FTP-style TCP transfer on this
// machine.

// udpInput processes a received datagram.
func (n *Net) udpInput(ih *IPv4Header, dgram []byte, chain *mem.Mbuf) {
	n.k.Call(n.fnUDPInput, func() {
		n.k.Advance(costUDPInputBody)
		// Charge the checksum only if the datagram carries one.
		hasCksum := len(dgram) >= UDPHdrLen && (dgram[6] != 0 || dgram[7] != 0)
		if hasCksum {
			if n.CksumPseudo(ih.Src, ih.Dst, ProtoUDP, dgram, n.cksumRegion()) != 0 {
				n.IPBadChecksum++
				n.freeChain(chain)
				return
			}
		}
		uh, payload, _, err := ParseUDP(ih.Src, ih.Dst, dgram)
		if err != nil {
			n.IPBadChecksum++
			n.freeChain(chain)
			return
		}
		so := n.pcbLookup(ProtoUDP, uh.DstPort)
		if so == nil {
			n.NoSocketDrops++
			n.freeChain(chain)
			return
		}
		if so.tcb.peer == 0 {
			so.tcb.peer = ih.Src
			so.tcb.rport = uh.SrcPort
		}
		n.sbAppend(so, chain, payload)
		n.soWakeup(so)
	})
}

// udpOutput sends one datagram on a connected UDP socket.
func (n *Net) udpOutput(so *Socket, payload []byte) {
	n.k.Call(n.fnUDPOutput, func() {
		n.k.Advance(costUDPOutputBody)
		uh := UDPHeader{SrcPort: so.Port, DstPort: so.tcb.rport}
		frame := n.frames.Get(IPHdrLen + UDPHdrLen + len(payload))
		dgram := frame[IPHdrLen:]
		copy(dgram[UDPHdrLen:], payload)
		uh.MarshalInto(dgram, PCAddr, so.tcb.peer, n.UDPChecksum)
		if n.UDPChecksum {
			n.CksumPseudo(PCAddr, so.tcb.peer, ProtoUDP, dgram, n.cksumRegion())
		}
		// UDP "acks" itself immediately for the sender's window
		// accounting: there is no transport-level flow control.
		so.sndUnacked = 0
		n.ipOutputFrame(ProtoUDP, PCAddr, so.tcb.peer, frame)
	})
}

// SendUDPDatagram sends a single datagram (used by the NFS RPC layer).
func (n *Net) SendUDPDatagram(so *Socket, payload []byte) {
	n.udpOutput(so, payload)
}
