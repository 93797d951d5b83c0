package nfs

import (
	"testing"

	"kprof/internal/kernel"
	"kprof/internal/mem"
	"kprof/internal/netstack"
	"kprof/internal/sim"
)

func newClient(t *testing.T) (*kernel.Kernel, *netstack.Net, *Client) {
	t.Helper()
	k := kernel.New(kernel.Config{Seed: 3})
	k.StartClock()
	n := netstack.Attach(k, mem.Attach(k))
	c, err := NewClient(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return k, n, c
}

func TestSingleRPCRoundTrip(t *testing.T) {
	k, _, c := newClient(t)
	var got int
	var turn sim.Time
	k.Spawn("nfsio", func(p *kernel.Proc) {
		got, turn = c.Read(p, RSize)
	})
	k.RunUntilIdle(sim.Second)
	if got != RSize {
		t.Fatalf("read %d bytes", got)
	}
	// Turnaround: request + wire + ≈1.8 ms service + wire + input path.
	if turn < 2*sim.Millisecond || turn > 8*sim.Millisecond {
		t.Fatalf("turnaround = %v", turn)
	}
	if c.ServerModel().Requests != 1 {
		t.Fatalf("server saw %d requests", c.ServerModel().Requests)
	}
}

func TestReadFileLoops(t *testing.T) {
	k, _, c := newClient(t)
	var total int
	k.Spawn("nfsio", func(p *kernel.Proc) {
		total = c.ReadFile(p, 16*1024)
	})
	k.RunUntilIdle(5 * sim.Second)
	if total != 16*1024 {
		t.Fatalf("read %d bytes", total)
	}
	if c.Calls != 16 {
		t.Fatalf("calls = %d", c.Calls)
	}
	if c.TotalTurnaround == 0 {
		t.Fatal("no turnaround recorded")
	}
}

func TestNFSSkipsPayloadChecksum(t *testing.T) {
	k, _, c := newClient(t)
	cksum := k.MustFn("in_cksum")
	k.Spawn("nfsio", func(p *kernel.Proc) {
		c.ReadFile(p, 8*1024)
	})
	before := cksum.Calls
	k.RunUntilIdle(5 * sim.Second)
	calls := cksum.Calls - before
	// Per RPC: IP header out + IP header in = 2 checksums, never the
	// 1 KiB payload (UDP checksums off).
	if calls != 2*c.Calls {
		t.Fatalf("in_cksum calls = %d for %d RPCs, want %d", calls, c.Calls, 2*c.Calls)
	}
}

// The paper's E6 comparison in miniature: the same bytes over NFS-lite
// (UDP, no checksum) cost the PC less CPU than over TCP (checksummed).
func TestNFSCheaperThanTCPPerByte(t *testing.T) {
	const size = 64 * 1024

	// NFS leg.
	k1, _, c := newClient(t)
	var nfsCPU sim.Time
	k1.Spawn("nfsio", func(p *kernel.Proc) {
		start := k1.Now()
		c.ReadFile(p, size)
		nfsCPU = k1.Now() - start
	})
	k1.RunUntilIdle(20 * sim.Second)

	// The NFS leg's elapsed time includes wire and server time; estimate
	// CPU by subtracting the known non-CPU components.
	nonCPU := sim.Time(c.Calls) * (c.ServerModel().ServiceTime +
		netstack.WireTime(RSize+36) + netstack.WireTime(132))
	nfsBusy := nfsCPU - nonCPU

	// FTP-style leg: the same bytes over TCP with checksums.
	k2 := kernel.New(kernel.Config{Seed: 3})
	k2.StartClock()
	n2 := netstack.Attach(k2, mem.Attach(k2))
	so, _ := n2.SoCreate(netstack.ProtoTCP, 5001)
	sender := netstack.NewSender(n2, 5001)
	var tcpDone sim.Time
	k2.Spawn("ftp", func(p *kernel.Proc) {
		total := 0
		for total < size {
			total += len(n2.SoReceive(p, so, 8192))
		}
		tcpDone = k2.Now()
	})
	sender.Start()
	k2.Run(20 * sim.Second)
	sender.Stop()
	if tcpDone == 0 {
		t.Fatal("tcp leg did not finish")
	}
	// TCP leg: CPU-bound the whole time (idle ≈ 0 in saturation), so
	// elapsed ≈ CPU. Compare per-byte cost.
	tcpBusy := tcpDone

	nfsPerByte := float64(nfsBusy) / size
	tcpPerByte := float64(tcpBusy) / size
	if nfsPerByte >= tcpPerByte {
		t.Fatalf("NFS (%v/B) should be cheaper than TCP (%v/B)", nfsPerByte, tcpPerByte)
	}
}
