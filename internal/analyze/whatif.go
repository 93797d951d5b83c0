package analyze

import (
	"fmt"

	"kprof/internal/sim"
)

// The what-if estimator formalises the paper's Network Performance
// arithmetic: given a measured per-packet cost breakdown, estimate the
// effect of (a) linking controller buffers into mbufs instead of copying
// ("Would this help? Contrary to intuition, this would actually decrease
// the performance") and (b) recoding in_cksum.

// PacketCost is a measured per-packet cost breakdown, produced by
// profiling the receive path.
type PacketCost struct {
	DriverCopy sim.Time // bcopy out of controller memory
	Checksum   sim.Time // in_cksum over the packet in main memory
	Copyout    sim.Time // copy to user space
	Other      sim.Time // everything else on the path
	Bytes      int      // packet data size
}

// Total is the full per-packet processing time.
func (p PacketCost) Total() sim.Time {
	return p.DriverCopy + p.Checksum + p.Copyout + p.Other
}

// WhatIf is one estimated alternative.
type WhatIf struct {
	Name     string
	Baseline sim.Time
	Estimate sim.Time
}

// Delta is the estimated change (negative is an improvement).
func (w WhatIf) Delta() sim.Time { return w.Estimate - w.Baseline }

// Improves reports whether the alternative is a win.
func (w WhatIf) Improves() bool { return w.Estimate < w.Baseline }

// String renders the estimate with its win/flat/LOSS verdict. A
// zero-delta estimate is a tie, not a regression: it renders "flat" so
// the optimize-verify loop never reports a no-op change as a LOSS.
func (w WhatIf) String() string {
	verdict := "LOSS"
	switch {
	case w.Improves():
		verdict = "win"
	case w.Delta() == 0:
		verdict = "flat"
	}
	return fmt.Sprintf("%-34s %6d us -> %6d us (%+d us, %s)",
		w.Name, w.Baseline.Micros(), w.Estimate.Micros(), w.Delta().Micros(), verdict)
}

// EstimateMbufLinking evaluates making the controller buffers external
// mbufs: the driver copy disappears, but every routine that touches the
// packet — most importantly the checksum — now runs against controller
// memory at the bus penalty (extraNsPerByte = ISA cost − main cost).
func EstimateMbufLinking(p PacketCost, extraNsPerByte sim.Time) WhatIf {
	est := p.Total() - p.DriverCopy           // the copy is gone...
	est += sim.Time(p.Bytes) * extraNsPerByte // ...but the checksum slows
	// copyout now also reads controller memory.
	est += sim.Time(p.Bytes) * extraNsPerByte
	return WhatIf{Name: "link controller bufs into mbufs", Baseline: p.Total(), Estimate: est}
}

// EstimateOptimizedChecksum evaluates recoding in_cksum at copy speed
// (fastNsPerByte per byte plus fixed setup).
func EstimateOptimizedChecksum(p PacketCost, fastNsPerByte, setup sim.Time) WhatIf {
	newCksum := setup + sim.Time(p.Bytes)*fastNsPerByte
	est := p.Total() - p.Checksum + newCksum
	return WhatIf{Name: "recode in_cksum (assembler-style)", Baseline: p.Total(), Estimate: est}
}
