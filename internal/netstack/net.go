// Package netstack models the 386BSD networking subsystem the paper
// profiles to saturation: the WD8003E 8-bit ISA Ethernet driver
// (weintr/werint/weread/weget/westart), mbuf chains, the IP input path with
// its infamously slow in_cksum, a TCP input/output path sufficient for the
// paper's receive-and-discard workload, UDP (with the checksum-off
// configuration the NFS study depends on), and the socket layer
// (soreceive/sosend, sbappend/sbwait/sowakeup).
//
// Wire formats are real: packets are genuine IPv4/TCP/UDP bytes with
// genuine RFC 1071 checksums, parsed and verified by the code under
// simulation. Virtual time is charged alongside through the calibrated cost
// model in costs.go.
package netstack

import (
	"fmt"

	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

// Host addresses used by the simulated hosts.
const (
	PCAddr    uint32 = 0xC0A80001 // the 386BSD PC under test
	SparcAddr uint32 = 0xC0A80002 // the Sparcstation 2 traffic source
)

// CksumMode selects the in_cksum implementation, the paper's headline
// optimisation opportunity.
type CksumMode int

const (
	// CksumNaive is the shipped C implementation: ≈0.72 µs/byte, nearly
	// as slow as copying the data across the ISA bus.
	CksumNaive CksumMode = iota
	// CksumOptimized is the assembler-style recode the paper recommends:
	// close to memory-copy speed.
	CksumOptimized
)

// Net is the network subsystem attached to a kernel.
type Net struct {
	k     *kernel.Kernel
	pool  *mem.MbufPool
	alloc *mem.Allocator

	fnIPIntr    *kernel.Fn
	fnIPOutput  *kernel.Fn
	fnInCksum   *kernel.Fn
	fnPcbLookup *kernel.Fn
	fnTCPInput  *kernel.Fn
	fnTCPOutput *kernel.Fn
	fnUDPInput  *kernel.Fn
	fnUDPOutput *kernel.Fn
	fnSoCreate  *kernel.Fn
	fnSoReceive *kernel.Fn
	fnSbAppend  *kernel.Fn
	fnSbWait    *kernel.Fn
	fnSoWakeup  *kernel.Fn

	we *WE
	// outDev is the interface ip_output routes through (the WD8003E by
	// default; the embedded machine routes through its LE).
	outDev NetDevice

	// Mode switches for the paper's what-if analyses.
	CksumMode CksumMode
	// ChecksumInController leaves the packet in card RAM during
	// checksumming (the paper's rejected mbuf-linking design).
	ChecksumInController bool
	// UDPChecksum enables UDP checksums (off by default, as with NFS).
	UDPChecksum bool
	// AckEveryPacket makes TCP acknowledge each segment rather than
	// using the period's delayed-ack behaviour. The saturation study
	// effectively acked continuously; keep it on for that workload.
	AckEveryPacket bool

	// ipq is the IP input queue between the driver and ipintr, drained
	// from ipqHead so steady-state traffic reuses the backing array
	// instead of growing a freshly-sliced tail forever.
	ipq     []inPacket
	ipqHead int

	// frames recycles the byte buffers packets travel in (see frames.go).
	frames framePool

	pcbs map[pcbKey]*Socket

	// Statistics.
	IPDelivered   uint64
	IPBadChecksum uint64
	IPNoProto     uint64
	NoSocketDrops uint64
	IPQDrops      uint64
}

// IFQMaxLen bounds the IP input queue, as the real ipintrq was bounded by
// IFQ_MAXLEN: when the protocol layer cannot keep up, packets drop at the
// queue rather than growing it without limit.
const IFQMaxLen = 50

type pcbKey struct {
	proto uint8
	port  uint16
}

// inPacket is a received packet queued between the driver and ipintr.
type inPacket struct {
	chain *mem.Mbuf
	data  []byte // the raw IP packet bytes
}

// Attach builds the network subsystem, registering every routine and the
// Ethernet device.
func Attach(k *kernel.Kernel, alloc *mem.Allocator) *Net {
	n := &Net{
		k:              k,
		alloc:          alloc,
		pool:           mem.NewMbufPool(alloc),
		fnIPIntr:       k.RegisterFn("ip_input", "ipintr"),
		fnIPOutput:     k.RegisterFn("ip_output", "ip_output"),
		fnInCksum:      k.RegisterFn("in_cksum", "in_cksum"),
		fnPcbLookup:    k.RegisterFn("in_pcb", "in_pcblookup"),
		fnTCPInput:     k.RegisterFn("tcp_input", "tcp_input"),
		fnTCPOutput:    k.RegisterFn("tcp_output", "tcp_output"),
		fnUDPInput:     k.RegisterFn("udp_usrreq", "udp_input"),
		fnUDPOutput:    k.RegisterFn("udp_usrreq", "udp_output"),
		pcbs:           make(map[pcbKey]*Socket),
		AckEveryPacket: true,
	}
	n.registerSocketFns()
	n.we = newWE(n)
	n.outDev = n.we
	// Received frames ride inside mbuf chains; freeing the chain returns
	// the buffer to the frame pool.
	n.pool.SetFrameRecycler(n.frames.Put)
	k.RegisterSoft(kernel.SoftNetIP, "ipintr", n.ipintr)
	return n
}

// NetDevice is the driver interface the IP output layer and the traffic
// generators use: deliver a frame from the wire, transmit one to it, watch
// transmissions.
type NetDevice interface {
	HostDeliver(ipPacket []byte)
	Transmit(frame []byte)
	AddWireTap(f func(frame []byte))
}

// Device returns the default Ethernet card model (the WD8003E).
func (n *Net) Device() *WE { return n.we }

// SetOutputDevice routes ip_output through d (the embedded machine's LE).
func (n *Net) SetOutputDevice(d NetDevice) { n.outDev = d }

// Scheduler exposes the kernel's event scheduler for remote-host models.
func (n *Net) Scheduler() *sim.Scheduler { return n.k.Scheduler() }

// Pool returns the mbuf pool (shared with tests and the fs package's NFS
// client).
func (n *Net) Pool() *mem.MbufPool { return n.pool }

// Cksum charges the in_cksum cost for length bytes living in region and
// returns the real checksum of the data (which the callers use to verify).
func (n *Net) Cksum(data []byte, region bus.Region) uint16 {
	perByte := n.cksumPerByte(region)
	var sum uint16
	n.k.Call(n.fnInCksum, func() {
		n.k.Advance(cksumSetup + sim.Time(len(data))*perByte)
		sum = InternetChecksum(data)
	})
	return sum
}

// pseudoHdrLen is the TCP/UDP pseudo-header's width for cost accounting.
const pseudoHdrLen = 12

// CksumPseudo is Cksum over a pseudo-header followed by data, without ever
// materialising the concatenation: the charge covers the same
// pseudoHdrLen+len(data) bytes in_cksum touched, and the sum chains the
// pseudo-header words arithmetically (sumBytes/pseudoSum in cksum.go).
func (n *Net) CksumPseudo(src, dst uint32, proto uint8, data []byte, region bus.Region) uint16 {
	perByte := n.cksumPerByte(region)
	var sum uint16
	n.k.Call(n.fnInCksum, func() {
		n.k.Advance(cksumSetup + sim.Time(pseudoHdrLen+len(data))*perByte)
		sum = foldChecksum(sumBytes(data, pseudoSum(src, dst, proto, len(data))))
	})
	return sum
}

func (n *Net) cksumPerByte(region bus.Region) sim.Time {
	perByte := cksumNaivePerB
	if n.CksumMode == CksumOptimized {
		perByte = cksumFastPerB
	}
	if region != bus.MainMemory {
		// Checksumming in device memory pays the bus penalty on top of
		// the arithmetic.
		perByte += bus.NsPerByte(region) - bus.NsPerByte(bus.MainMemory)
	}
	return perByte
}

// cksumRegion is where packet data lives when checksummed: main memory
// normally, card RAM in the what-if configuration.
func (n *Net) cksumRegion() bus.Region {
	if n.ChecksumInController {
		return bus.ISA8
	}
	return bus.MainMemory
}

// enqueueIP hands a received packet from the driver to the IP input queue
// and schedules the network software interrupt (schednetisr(NETISR_IP)).
func (n *Net) enqueueIP(chain *mem.Mbuf, data []byte) {
	s := n.k.SplNet()
	if len(n.ipq)-n.ipqHead >= IFQMaxLen {
		n.IPQDrops++
		n.k.SplX(s)
		n.freeChain(chain)
		return
	}
	n.ipq = append(n.ipq, inPacket{chain: chain, data: data})
	n.k.SplX(s)
	n.k.ScheduleSoft(kernel.SoftNetIP)
}

// ipintr is the network soft interrupt: drain the IP input queue, verify
// each header, and dispatch to the transport protocol.
func (n *Net) ipintr() {
	n.k.Call(n.fnIPIntr, func() {
		n.k.Advance(costIPIntrBody)
		for {
			s := n.k.SplNet()
			if n.ipqHead == len(n.ipq) {
				n.ipq = n.ipq[:0]
				n.ipqHead = 0
				n.k.SplX(s)
				return
			}
			pkt := n.ipq[n.ipqHead]
			n.ipq[n.ipqHead] = inPacket{}
			n.ipqHead++
			n.k.SplX(s)
			n.ipInput(pkt)
		}
	})
}

func (n *Net) ipInput(pkt inPacket) {
	data := pkt.data
	if n.Cksum(dataOrAll(data, IPHdrLen), n.cksumRegion()) != 0 {
		n.IPBadChecksum++
		n.pool.MFreeChain(pkt.chain)
		return
	}
	ih, err := ParseIPv4(data)
	if err != nil {
		n.IPBadChecksum++
		n.pool.MFreeChain(pkt.chain)
		return
	}
	payload := data[IPHdrLen:ih.TotalLen]
	switch ih.Proto {
	case ProtoTCP:
		n.tcpInput(&ih, payload, pkt.chain)
	case ProtoUDP:
		n.udpInput(&ih, payload, pkt.chain)
	default:
		n.IPNoProto++
		n.pool.MFreeChain(pkt.chain)
	}
	n.IPDelivered++
}

func dataOrAll(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}

// pcbLookup finds the socket bound to (proto, port).
func (n *Net) pcbLookup(proto uint8, port uint16) *Socket {
	var so *Socket
	n.k.Call(n.fnPcbLookup, func() {
		n.k.Advance(costPcbLookup)
		so = n.pcbs[pcbKey{proto, port}]
	})
	return so
}

// ipOutput wraps a transport payload in an IP header and hands the frame to
// the driver. The payload is copied into a pooled frame buffer.
func (n *Net) ipOutput(proto uint8, src, dst uint32, payload []byte) {
	frame := n.frames.Get(IPHdrLen + len(payload))
	copy(frame[IPHdrLen:], payload)
	n.ipOutputFrame(proto, src, dst, frame)
}

// ipOutputFrame is ipOutput for a frame whose transport bytes already sit
// after IPHdrLen of headroom — the in-place path transport outputs use. The
// IP header is written into the headroom; ownership of frame passes to the
// driver, which recycles it once the wire is done with it.
func (n *Net) ipOutputFrame(proto uint8, src, dst uint32, frame []byte) {
	n.k.Call(n.fnIPOutput, func() {
		n.k.Advance(costIPOutputBody)
		ih := IPv4Header{
			TotalLen: uint16(len(frame)),
			TTL:      64,
			Proto:    proto,
			Src:      src,
			Dst:      dst,
		}
		ih.MarshalInto(frame)
		// ip_output computes the header checksum: charge it. (MarshalInto
		// already embedded the real sum; the charge models the work.)
		n.Cksum(frame[:IPHdrLen], bus.MainMemory)
		n.outDev.Transmit(frame)
	})
}

func (n *Net) String() string {
	return fmt.Sprintf("netstack(delivered=%d, drops=%d)", n.IPDelivered, n.we.RxDrops)
}
