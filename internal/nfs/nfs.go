// Package nfs is the NFS-lite client used for the paper's NFS-versus-FTP
// comparison: Sun RPC-shaped read requests over UDP with checksums off (the
// usual configuration of the period), against a simulated remote server.
//
// The paper's observation: because in_cksum dominated TCP receive cost and
// "UDP checksums are usually turned off with NFS", NFS moved file data with
// *less* CPU overhead than an FTP-style TCP connection on this machine. The
// package also measures RPC turnaround — request formulation, wire time,
// server service, reply processing — which the Profiler made easy to see.
package nfs

import (
	"encoding/binary"

	"kprof/internal/kernel"
	"kprof/internal/netstack"
	"kprof/internal/sim"
)

// Protocol constants for the lite RPC.
const (
	// RSize is the NFS read transfer size. The real rsize of the period
	// was 8192, carried in IP fragments; the lite protocol uses one
	// datagram per read to stay inside a single Ethernet frame.
	RSize = 1024

	serverPort = 2049
	clientPort = 1008

	rpcHeaderLen = 96 // credentials, verifier, xid, proc — all opaque here
)

// Client is the NFS-lite client on the PC.
type Client struct {
	k   *kernel.Kernel
	net *netstack.Net

	fnRequest *kernel.Fn
	fnReply   *kernel.Fn

	so  *netstack.Socket
	xid uint32

	server *Server

	// Statistics.
	Calls           uint64
	BytesRead       uint64
	TotalTurnaround sim.Time
}

// Server is the simulated remote NFS server: it watches the wire for
// requests and delivers replies after a service delay. It runs entirely in
// event context — it is the other machine.
type Server struct {
	n *netstack.Net
	// ServiceTime is how long the remote host takes to serve a read
	// (cache-hit service on a Sparc-class server).
	ServiceTime sim.Time
	Requests    uint64
}

// NewClient builds the client and its simulated server.
func NewClient(k *kernel.Kernel, n *netstack.Net) (*Client, error) {
	so, err := n.SoCreate(netstack.ProtoUDP, clientPort)
	if err != nil {
		return nil, err
	}
	so.Connect(netstack.SparcAddr, serverPort)
	c := &Client{
		k:         k,
		net:       n,
		fnRequest: k.RegisterFn("nfs_socket", "nfs_request"),
		fnReply:   k.RegisterFn("nfs_socket", "nfs_reply"),
		so:        so,
		server:    &Server{n: n, ServiceTime: 1800 * sim.Microsecond},
	}
	n.Device().AddWireTap(c.server.onWire)
	return c, nil
}

// Server exposes the simulated remote server.
func (c *Client) ServerModel() *Server { return c.server }

// onWire watches for NFS requests leaving the PC and schedules the reply.
func (s *Server) onWire(frame []byte) {
	ih, err := netstack.ParseIPv4(frame)
	if err != nil || ih.Proto != netstack.ProtoUDP || ih.Dst != netstack.SparcAddr {
		return
	}
	uh, payload, _, err := netstack.ParseUDP(ih.Src, ih.Dst, frame[netstack.IPHdrLen:ih.TotalLen])
	if err != nil || uh.DstPort != serverPort || len(payload) < 8 {
		return
	}
	s.Requests++
	xid := binary.BigEndian.Uint32(payload)
	want := int(binary.BigEndian.Uint32(payload[4:]))
	if want > RSize {
		want = RSize
	}
	reply := make([]byte, 8+want)
	binary.BigEndian.PutUint32(reply, xid)
	binary.BigEndian.PutUint32(reply[4:], uint32(want))
	ruh := netstack.UDPHeader{SrcPort: serverPort, DstPort: clientPort}
	dgram := ruh.Marshal(netstack.SparcAddr, netstack.PCAddr, reply, false)
	rih := netstack.IPv4Header{
		TotalLen: uint16(netstack.IPHdrLen + len(dgram)),
		TTL:      255,
		Proto:    netstack.ProtoUDP,
		Src:      netstack.SparcAddr,
		Dst:      netstack.PCAddr,
	}
	pkt := append(rih.Marshal(), dgram...)
	s.n.Scheduler().After(s.ServiceTime+netstack.WireTime(len(pkt)), func() {
		s.n.Device().HostDeliver(pkt)
	})
}

// Read performs one NFS read RPC of up to RSize bytes and returns the data
// length and the turnaround time (request sent to reply in hand). Must run
// in process context.
func (c *Client) Read(p *kernel.Proc, n int) (int, sim.Time) {
	if n > RSize {
		n = RSize
	}
	start := c.k.Now()
	c.xid++
	c.Calls++
	// Formulate and send the request.
	c.k.Call(c.fnRequest, func() {
		c.k.Advance(costNfsRequest)
		req := make([]byte, rpcHeaderLen)
		binary.BigEndian.PutUint32(req, c.xid)
		binary.BigEndian.PutUint32(req[4:], uint32(n))
		c.net.SendUDPDatagram(c.so, req)
	})
	// Wait for and process the reply.
	data := c.net.SoReceive(p, c.so, 8+RSize)
	var got int
	c.k.Call(c.fnReply, func() {
		c.k.Advance(costNfsReply)
		if len(data) >= 8 {
			got = int(binary.BigEndian.Uint32(data[4:]))
		}
	})
	c.BytesRead += uint64(got)
	turnaround := c.k.Now() - start
	c.TotalTurnaround += turnaround
	return got, turnaround
}

// ReadFile reads size bytes via successive RPCs and returns the total.
func (c *Client) ReadFile(p *kernel.Proc, size int) int {
	total := 0
	for total < size {
		got, _ := c.Read(p, size-total)
		if got == 0 {
			break
		}
		total += got
	}
	return total
}

const (
	costNfsRequest = 120 * sim.Microsecond
	costNfsReply   = 95 * sim.Microsecond
)
