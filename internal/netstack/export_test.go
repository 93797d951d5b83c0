package netstack

// RcvBuffered reports bytes waiting in the receive buffer (for tests).
func (so *Socket) RcvBuffered() int { return so.rcvBytes }

// TCB exposes connection statistics for tests and reports.
func (so *Socket) TCB() (segsIn, segsOut, dups, acks uint64) {
	return so.tcb.SegsIn, so.tcb.SegsOut, so.tcb.DupSegs, so.tcb.AcksOut
}

// SetWire installs f as the sole receiver of frames the PC transmits. The
// frame passed to f is only valid for the duration of the call; copy to keep.
func (we *WE) SetWire(f func(frame []byte)) { we.wireTaps = []func([]byte){f} }

// SetWire installs f as the sole receiver of transmitted frames.
func (le *LE) SetWire(f func(frame []byte)) { le.wireTaps = []func([]byte){f} }
