package netstack

import "kprof/internal/sim"

// Calibrated network-stack costs, from the paper's Network Performance
// section and Figures 3/4:
//
//   - in_cksum, as shipped: ≈843 µs per KiB (≈0.82 µs/byte) plus setup —
//     "not been optimally coded". The recoded (assembler-style) variant
//     runs at roughly memory-copy speed, the basis of the paper's estimate
//     that fixing it cuts per-packet cost from ≈2000 µs to ≈1200 µs.
//   - driver copy out of the 8-bit WD8003E packet RAM: the bus package
//     charges ≈700 ns/byte, giving ≈1045 µs for a full packet.
//   - function-body (net) times from Figure 4: weintr ≈50 µs, werint
//     ≈70 µs, weread ≈11 µs, ipintr ≈55 µs, tcp_input ≈92 µs,
//     in_pcblookup ≈9 µs, soreceive ≈98 µs (Figure 3 avg).
//
// The in_cksum cost model is exported for estimators (internal/pgo): a
// what-if arithmetic that predicts the recode's effect needs the same
// setup and per-byte figures the simulation charges.
const (
	// CksumSetup is the fixed per-call in_cksum entry cost.
	CksumSetup = cksumSetup
	// CksumNaivePerByte is the shipped C loop's per-byte cost.
	CksumNaivePerByte = cksumNaivePerB
	// CksumFastPerByte is the recoded (assembler-style) per-byte cost.
	CksumFastPerByte = cksumFastPerB
)

const (
	cksumSetup     = 8 * sim.Microsecond
	cksumNaivePerB = 680 * sim.Nanosecond
	cksumFastPerB  = 42 * sim.Nanosecond

	costWeIntrBody  = 50 * sim.Microsecond // ISR: read card status, loop setup
	costWeRintBody  = 70 * sim.Microsecond // ring housekeeping per receive burst
	costWeReadBody  = 11 * sim.Microsecond // per-packet header fetch
	costWeGetBody   = 38 * sim.Microsecond // mbuf chain assembly (plus MGETs)
	costWeStartBody = 26 * sim.Microsecond // per transmit: ring slot setup
	costWeTintBody  = 18 * sim.Microsecond // transmit-complete housekeeping

	costIPIntrBody    = 45 * sim.Microsecond
	costIPOutputBody  = 38 * sim.Microsecond
	costTCPInputBody  = 88 * sim.Microsecond
	costTCPOutputBody = 65 * sim.Microsecond
	costUDPInputBody  = 42 * sim.Microsecond
	costUDPOutputBody = 40 * sim.Microsecond
	costPcbLookup     = 9 * sim.Microsecond

	costSbAppend      = 14 * sim.Microsecond
	costSbWait        = 10 * sim.Microsecond
	costSoWakeup      = 15 * sim.Microsecond
	costSoReceiveBody = 60 * sim.Microsecond
	costSoCreate      = 45 * sim.Microsecond
)
