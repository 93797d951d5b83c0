package hw

import (
	"errors"
	"fmt"
)

// Fast capture readout through the EPROM socket — the paper's future-work
// plan for eliminating the pull-the-RAMs step: "once the Profiler has been
// used to collect the data, each of the storage RAMs in turn can be
// multiplexed into the EPROM address space, and the data can be read as if
// it were an EPROM. This would allow fast turnaround for processing the
// Profiler data."
//
// In readout mode the card stops latching (an address strobe would corrupt
// the capture otherwise) and instead drives the selected RAM bank's bytes
// onto the data lines for reads inside the window.

// readout state lives on the Profiler.
type readoutState struct {
	active bool
	bank   int
}

// EnterReadout switches the card to readout mode, disarming capture.
func (p *Profiler) EnterReadout() {
	p.armed = false
	p.readout.active = true
	p.readout.bank = 0
}

// ExitReadout returns the card to normal (latching) operation.
func (p *Profiler) ExitReadout() { p.readout.active = false }

// InReadout reports whether the card is multiplexing RAM onto the window.
func (p *Profiler) InReadout() bool { return p.readout.active }

// SelectBank multiplexes RAM chip bank (0..Config.Banks()-1) into the
// window.
func (p *Profiler) SelectBank(bank int) {
	if bank < 0 || bank >= p.cfg.Banks() {
		panic(fmt.Sprintf("hw: bank %d out of range", bank))
	}
	p.readout.bank = bank
}

// readoutByte serves an in-window read during readout: offset indexes the
// selected bank's record bytes; past the stored count the unwritten RAM
// reads as 0xFF. Banks 0 and 1 hold the tag's low and high byte, and bank
// 2+i holds stamp bits 8i to 8i+7. A fault hook sees every served byte —
// readout shares the same analog data lines capture does, so glitched
// polls and partial bank corruption land here.
func (p *Profiler) readoutByte(offset uint32) byte {
	b := byte(0xFF)
	if int(offset) < len(p.ram) {
		r := p.ram[offset]
		switch bank := p.readout.bank; bank {
		case 0:
			b = byte(r.Tag)
		case 1:
			b = byte(r.Tag >> 8)
		default:
			b = byte(r.Stamp >> (8 * (bank - 2)))
		}
	}
	if p.fault != nil {
		b = p.fault.ReadoutByte(p.readout.bank, offset, b)
	}
	return b
}

// ErrReadoutVerify reports a readout whose open-bus verify read came back
// wrong: the bank mux or the data lines glitched while the host was dumping
// the RAM, so the bytes read cannot be trusted. The capture on the card is
// untouched (readout is non-destructive), but the host has no way to tell
// which bytes were misread — the drain that hit this must treat the whole
// bank as lost.
var ErrReadoutVerify = errors.New("readout verification failed")

// verifyOpenBus checks the bank mux after a bank dump: the first address
// past the stored count has no RAM cell driving the data lines, so it must
// read as open bus (0xFF), exactly as an unprogrammed EPROM would. A
// glitched readout — marginal mux settle, a corrupted bank select — shows
// up as a wrong sentinel. The check costs one socket read per bank and
// catches the failure modes that corrupt addressing (not every data-line
// flip; single misreads inside the bank decode as corrupt records and are
// the repair pipeline's job).
func verifyOpenBus(sock *EPROMSocket, bank int) error {
	p := sock.card
	stored := p.Stored()
	if stored >= WindowSize {
		return nil // RAM fills the window; no open-bus address to check
	}
	if got := sock.Read(sock.base + uint32(stored)); got != 0xFF {
		return fmt.Errorf("hw: bank %d open-bus sentinel read %#02x, want 0xff: %w", bank, got, ErrReadoutVerify)
	}
	return nil
}

// ReadoutBuffer is the scratch a recycling drain loop reuses across
// readouts: the record slice the capture lands in, and the bank images a
// readout through a fault hook reads byte by byte. Ownership is strict —
// the Capture a readout-into returns aliases the buffer's record storage,
// so the buffer must not be reused until the capture's consumer is done
// with those records (core's recycling drain returns buffers to its pool
// only after the background decoder has consumed the batch). The zero
// value is ready to use.
type ReadoutBuffer struct {
	banks   [maxBanks][]byte
	records []Record
}

// bank returns the scratch image for bank b sized to n bytes, reusing the
// previous readout's storage when it is big enough.
func (rb *ReadoutBuffer) bank(b, n int) []byte {
	if cap(rb.banks[b]) < n {
		rb.banks[b] = make([]byte, n)
	}
	return rb.banks[b][:n]
}

// ReadoutViaSocketInto performs the full fast readout: bank by bank
// through the window, reassembling the records host-side. The card is left
// in normal mode, still holding its capture. Each bank dump ends with an
// open-bus verify read; a glitched readout returns ErrReadoutVerify and
// the caller must treat the bank as unread (the capture is still intact on
// the card, but a live drain has no time to retry — see core's drain loop).
//
// The records land in buf's storage, so a drain loop that recycles
// consumed captures reads the card out without allocating. A nil buf
// allocates fresh storage; see ReadoutBuffer for the aliasing contract.
//
// With no fault hook on the data lines the records are copied out of the
// RAM image once. That is the per-byte path's result: each bank serves one
// byte lane of the stored records, the lanes cover the 16 tag bits and
// every timer bit (Config.Banks), and every stored stamp fits the timer
// (the card masks it at latch time), so reassembling the lanes gives back
// each stored record exactly. The mode switch, every bank select and every
// open-bus verify read still happen; without a hook a verify read serves
// open bus, as the per-byte path's would.
func ReadoutViaSocketInto(sock *EPROMSocket, count int, buf *ReadoutBuffer) (Capture, error) {
	p := sock.card
	if count < 0 || count > p.Stored() {
		count = p.Stored()
	}
	if count > WindowSize {
		return Capture{}, fmt.Errorf("hw: %d records exceed the 64 KiB readout window", count)
	}
	p.EnterReadout()
	defer p.ExitReadout()
	nb := p.cfg.Banks()
	var banks [maxBanks][]byte
	for b := 0; b < nb; b++ {
		p.SelectBank(b)
		if p.fault != nil {
			if buf != nil {
				banks[b] = buf.bank(b, count)
			} else {
				banks[b] = make([]byte, count)
			}
			for i := 0; i < count; i++ {
				banks[b][i] = sock.Read(sock.base + uint32(i))
			}
		}
		if err := verifyOpenBus(sock, b); err != nil {
			return Capture{}, err
		}
	}
	var dst []Record
	if buf != nil {
		dst = buf.records
	}
	var records []Record
	if p.fault == nil {
		records = sizeRecords(dst, count)
		copy(records, p.ram[:count])
	} else {
		records = decodeLanes(banks[:nb], dst)
	}
	if buf != nil {
		buf.records = records
	}
	return Capture{
		Records:    records,
		Overflowed: p.Overflowed(),
		Dropped:    p.Dropped,
		ClockHz:    p.cfg.ClockHz,
		TimerBits:  p.cfg.TimerBits,
	}, nil
}
