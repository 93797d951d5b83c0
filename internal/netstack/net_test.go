package netstack

import (
	"testing"

	"kprof/internal/bus"
	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/sim"
)

func newNet() (*kernel.Kernel, *Net) {
	k := kernel.New(kernel.Config{Seed: 1})
	alloc := mem.Attach(k)
	return k, Attach(k, alloc)
}

func TestCksumTimingNaive(t *testing.T) {
	k, n := newNet()
	data := make([]byte, 1024)
	start := k.Now()
	n.Cksum(data, bus.MainMemory)
	d := k.Now() - start
	// Paper: ≈843 µs to checksum a 1 KiB packet with the shipped code.
	// Our calibration lands slightly low to keep the Figure 3 ordering;
	// see EXPERIMENTS.md.
	if d < 600*sim.Microsecond || d > 900*sim.Microsecond {
		t.Fatalf("naive in_cksum(1KiB) = %v, want ≈700-850 µs", d)
	}
}

func TestCksumTimingOptimized(t *testing.T) {
	k, n := newNet()
	n.CksumMode = CksumOptimized
	data := make([]byte, 1024)
	start := k.Now()
	n.Cksum(data, bus.MainMemory)
	d := k.Now() - start
	// Recoded checksum runs near memory speed: tens of microseconds.
	if d > 80*sim.Microsecond {
		t.Fatalf("optimized in_cksum(1KiB) = %v, want <80 µs", d)
	}
}

func TestCksumInControllerMemoryCostsBusPenalty(t *testing.T) {
	k, n := newNet()
	data := make([]byte, 1024)
	start := k.Now()
	n.Cksum(data, bus.ISA8)
	isaCost := k.Now() - start
	start = k.Now()
	n.Cksum(data, bus.MainMemory)
	mainCost := k.Now() - start
	extra := isaCost - mainCost
	// Paper: checksumming in controller memory adds ≥980 µs per KiB-ish
	// packet. Our per-byte penalty (ISA − main) over 1024 bytes:
	if extra < 500*sim.Microsecond {
		t.Fatalf("ISA checksum penalty = %v, want substantial", extra)
	}
}

func TestCksumComputesRealChecksum(t *testing.T) {
	_, n := newNet()
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := n.Cksum(data, bus.MainMemory); got != 0x220d {
		t.Fatalf("Cksum = %#x", got)
	}
}

func TestSoCreateRejectsDuplicatePort(t *testing.T) {
	_, n := newNet()
	if _, err := n.SoCreate(ProtoTCP, 5001); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SoCreate(ProtoTCP, 5001); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	// Same port, different proto is fine.
	if _, err := n.SoCreate(ProtoUDP, 5001); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSegmentDeliveredToSocket(t *testing.T) {
	k, n := newNet()
	so, err := n.SoCreate(ProtoTCP, 5001)
	if err != nil {
		t.Fatal(err)
	}
	sender := NewSender(n, 5001)
	sender.MSS = 512

	var got []byte
	k.Spawn("reader", func(p *kernel.Proc) {
		got = n.SoReceive(p, so, 4096)
	})
	k.Scheduler().After(sim.Millisecond, func() { sender.SendOne() })
	k.Run(100 * sim.Millisecond)

	if len(got) != 512 {
		t.Fatalf("received %d bytes, want 512", len(got))
	}
	segsIn, _, dups, _ := so.TCB()
	if segsIn != 1 || dups != 0 {
		t.Fatalf("segsIn=%d dups=%d", segsIn, dups)
	}
	if n.IPDelivered != 1 {
		t.Fatalf("IPDelivered = %d", n.IPDelivered)
	}
}

func TestAckTransmittedBack(t *testing.T) {
	k, n := newNet()
	so, _ := n.SoCreate(ProtoTCP, 5001)
	var acks [][]byte
	// Taps only borrow the frame for the call; copy to keep it.
	n.Device().SetWire(func(frame []byte) { acks = append(acks, append([]byte(nil), frame...)) })
	sender := NewSender(n, 5001)
	sender.MSS = 256
	k.Spawn("reader", func(p *kernel.Proc) { n.SoReceive(p, so, 4096) })
	k.Scheduler().After(sim.Millisecond, func() { sender.SendOne() })
	k.Run(100 * sim.Millisecond)

	// One data ACK plus the reader's window update.
	if len(acks) != 2 {
		t.Fatalf("acks on wire = %d, want 2", len(acks))
	}
	// The ACK is a real, parseable, checksummed packet.
	ih, err := ParseIPv4(acks[0])
	if err != nil {
		t.Fatal(err)
	}
	if ih.Proto != ProtoTCP || ih.Src != PCAddr || ih.Dst != SparcAddr {
		t.Fatalf("ack header: %+v", ih)
	}
	th, payload, err := ParseTCP(ih.Src, ih.Dst, acks[0][IPHdrLen:ih.TotalLen])
	if err != nil {
		t.Fatal(err)
	}
	if th.Flags&FlagACK == 0 || len(payload) != 0 {
		t.Fatalf("not a pure ack: %+v payload=%d", th, len(payload))
	}
	if th.Ack != 1+256 {
		t.Fatalf("ack number = %d, want 257", th.Ack)
	}
	if n.Device().TxFrames != 2 {
		t.Fatalf("TxFrames = %d", n.Device().TxFrames)
	}
}

func TestDuplicateSegmentDropped(t *testing.T) {
	k, n := newNet()
	so, _ := n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001)
	sender.MSS = 128
	k.Spawn("reader", func(p *kernel.Proc) {
		n.SoReceive(p, so, 64)
		n.SoReceive(p, so, 64)
	})
	k.Scheduler().After(sim.Millisecond, func() {
		sender.SendOne()
		sender.seq = 1 // rewind: next segment duplicates the first
		sender.SendOne()
	})
	k.Run(200 * sim.Millisecond)
	_, _, dups, _ := so.TCB()
	if dups != 1 {
		t.Fatalf("dups = %d, want 1", dups)
	}
}

func TestRingOverflowDropsFrames(t *testing.T) {
	k, n := newNet()
	// No reader, and interrupts masked, so the ring cannot drain.
	s := k.SplHigh()
	sender := NewSender(n, 5001)
	for i := 0; i < 20; i++ {
		sender.SendOne()
	}
	if n.Device().RxDrops == 0 {
		t.Fatal("no drops despite overflow")
	}
	if n.Device().RxFrames+n.Device().RxDrops != 20 {
		t.Fatalf("accounting: rx=%d drops=%d", n.Device().RxFrames, n.Device().RxDrops)
	}
	k.SplX(s)
}

func TestUDPDeliveryWithoutChecksumSkipsCksumCost(t *testing.T) {
	k, n := newNet()
	so, _ := n.SoCreate(ProtoUDP, 2049)
	cksumFn := k.MustFn("in_cksum")
	src := NewUDPSource(n, 2049)
	src.Cksum = false
	var got []byte
	k.Spawn("reader", func(p *kernel.Proc) { got = n.SoReceive(p, so, 9000) })
	k.Scheduler().After(sim.Millisecond, func() { src.Send(1024) })
	before := cksumFn.Calls
	k.Run(100 * sim.Millisecond)
	if len(got) != 1024 {
		t.Fatalf("received %d", len(got))
	}
	// Only the IP header checksum should have been computed (1 call),
	// not the payload.
	calls := cksumFn.Calls - before
	if calls != 1 {
		t.Fatalf("in_cksum calls = %d, want 1 (IP header only)", calls)
	}
}

func TestUDPWithChecksumPaysForPayload(t *testing.T) {
	k, n := newNet()
	so, _ := n.SoCreate(ProtoUDP, 2049)
	src := NewUDPSource(n, 2049)
	src.Cksum = true
	var got []byte
	k.Spawn("reader", func(p *kernel.Proc) { got = n.SoReceive(p, so, 9000) })
	k.Scheduler().After(sim.Millisecond, func() { src.Send(1024) })
	k.Run(100 * sim.Millisecond)
	if len(got) != 1024 {
		t.Fatalf("received %d", len(got))
	}
	cksumFn := k.MustFn("in_cksum")
	if cksumFn.Calls < 2 {
		t.Fatalf("in_cksum calls = %d, want ≥2", cksumFn.Calls)
	}
}

func TestSoReceiveBlocksUntilData(t *testing.T) {
	k, n := newNet()
	so, _ := n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001)
	sender.MSS = 64
	var wokeAt sim.Time
	k.Spawn("reader", func(p *kernel.Proc) {
		n.SoReceive(p, so, 4096)
		wokeAt = k.Now()
	})
	k.Scheduler().After(10*sim.Millisecond, func() { sender.SendOne() })
	k.Run(100 * sim.Millisecond)
	if wokeAt < 10*sim.Millisecond {
		t.Fatalf("reader returned at %v, before data arrived", wokeAt)
	}
}

func TestMbufChainShapeForFullPacket(t *testing.T) {
	k, n := newNet()
	n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001) // full 1460-byte MSS
	sender.SendOne()
	k.Advance(sim.Microsecond) // deliver the interrupt
	// 1500-byte IP packet: 108 (header mbuf) + 1024 (cluster) + 368.
	if n.Pool().MGets != 3 || n.Pool().ClusterGets != 2 {
		t.Fatalf("MGets=%d ClusterGets=%d, want 3/2", n.Pool().MGets, n.Pool().ClusterGets)
	}
}

func TestFullPacketPathCost(t *testing.T) {
	k, n := newNet()
	n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001)
	// Warm the mbuf pools so the steady-state path is measured.
	sender.SendOne()
	k.Advance(sim.Microsecond)
	start := k.Now()
	sender.SendOne()
	k.Advance(sim.Microsecond)
	elapsed := k.Now() - start
	// The full kernel path for one data packet: driver copy ≈1.1 ms +
	// TCP checksum ≈1.0 ms + protocol/ack/interrupt overhead. The paper
	// quotes ≈2000 µs counting just the two big items; see
	// EXPERIMENTS.md E1 for the full accounting.
	if elapsed < 2200*sim.Microsecond || elapsed > 3400*sim.Microsecond {
		t.Fatalf("packet path = %v, want ≈2.4-3.2 ms", elapsed)
	}
}

func TestSaturationWorkload(t *testing.T) {
	k, n := newNet()
	k.StartClock()
	so, _ := n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001)
	total := 0
	k.Spawn("discard", func(p *kernel.Proc) {
		for k.Now() < 400*sim.Millisecond {
			buf := n.SoReceive(p, so, 4096)
			total += len(buf)
		}
	})
	sender.Start()
	k.Run(400 * sim.Millisecond)
	sender.Stop()

	we := n.Device()
	if total == 0 {
		t.Fatal("no data delivered")
	}
	// The PC cannot keep up with Ethernet: goodput well below wire rate
	// (10 Mb/s ≈ 1.25 MB/s would be ≈500 KB in 400 ms).
	if total > 350*1024 {
		t.Fatalf("goodput %d bytes in 400 ms — PC should be CPU-bound far below wire rate", total)
	}
	// And it is busy: >80 packets of ≈2.8 ms each fills the window.
	if we.RxFrames < 80 {
		t.Fatalf("only %d frames processed", we.RxFrames)
	}
	if sender.AcksSeen == 0 {
		t.Fatal("no ACKs flowed back")
	}
}

func TestWireTime(t *testing.T) {
	// A full frame occupies ≈1.2 ms of 10 Mb/s Ethernet.
	wt := WireTime(1500)
	if wt < 1100*sim.Microsecond || wt > 1350*sim.Microsecond {
		t.Fatalf("WireTime(1500) = %v", wt)
	}
}

func TestBadChecksumSegmentRejected(t *testing.T) {
	k, n := newNet()
	n.SoCreate(ProtoTCP, 5001)
	sender := NewSender(n, 5001)
	pkt := sender.buildSegment()
	pkt[len(pkt)-1] ^= 0xFF // corrupt the payload
	n.Device().HostDeliver(pkt)
	k.Advance(sim.Microsecond)
	if n.IPBadChecksum == 0 {
		t.Fatal("corrupted segment not rejected")
	}
}

func TestNoListenerDropsSegment(t *testing.T) {
	k, n := newNet()
	sender := NewSender(n, 9999)
	sender.SendOne()
	k.Advance(sim.Microsecond)
	if n.NoSocketDrops != 1 {
		t.Fatalf("NoSocketDrops = %d", n.NoSocketDrops)
	}
}
