package hw

import (
	"testing"

	"kprof/internal/sim"
)

// Arming the card during readout must be ignored: the mode line gates the
// latch path, because an address strobe while the RAM is multiplexed onto
// the window would corrupt the capture being read.
func TestArmIsNoOpDuringReadout(t *testing.T) {
	s, p := newTestCard(8)
	p.Arm()
	s.AdvanceTo(10 * sim.Microsecond)
	p.Latch(500)
	p.EnterReadout()
	if p.Armed() {
		t.Fatal("EnterReadout left the card armed")
	}
	p.Arm()
	if p.Armed() {
		t.Fatal("Arm during readout re-enabled latching")
	}
	p.Latch(502)
	if p.Stored() != 1 {
		t.Fatalf("strobe during readout stored a record: %d stored", p.Stored())
	}
	if p.Dropped != 1 {
		t.Fatalf("strobe during readout not counted dropped: %d", p.Dropped)
	}
	p.ExitReadout()
	// Back in normal mode the switch works again.
	p.Arm()
	if !p.Armed() {
		t.Fatal("Arm after ExitReadout did not arm")
	}
	p.Latch(504)
	if p.Stored() != 2 {
		t.Fatalf("latch after readout stored %d records, want 2", p.Stored())
	}
}

// Reset must clear readout-mode state: a card reset mid-readout comes back
// in normal mode with bank 0 selected, not half-way into a stale readout.
func TestResetClearsReadoutState(t *testing.T) {
	s, p := newTestCard(8)
	p.Arm()
	s.AdvanceTo(3 * sim.Microsecond)
	p.Latch(500)
	p.EnterReadout()
	p.SelectBank(3)
	p.Reset()
	if p.InReadout() {
		t.Fatal("Reset left the card in readout mode")
	}
	if p.readout.bank != 0 {
		t.Fatalf("Reset left bank %d selected", p.readout.bank)
	}
	// A fresh capture works immediately after the reset.
	p.Arm()
	p.Latch(502)
	if p.Stored() != 1 || p.Dropped != 0 {
		t.Fatalf("capture after mid-readout reset: stored=%d dropped=%d", p.Stored(), p.Dropped)
	}
}

// A socket read during readout must serve RAM bytes without latching, and
// the drain cycle readout -> reset -> arm must leave a clean card.
func TestDrainCycleLeavesCleanCard(t *testing.T) {
	s, p := newTestCard(4)
	sock := NewEPROMSocket(0xD0000, p)
	p.Arm()
	for i := 0; i < 6; i++ { // overfill: 4 stored, 2 dropped
		s.AdvanceTo(sim.Time(i+1) * sim.Microsecond)
		sock.Read(0xD0000 + uint32(500+2*i))
	}
	if !p.Overflowed() || p.Dropped != 2 {
		t.Fatalf("overfill: overflowed=%v dropped=%d", p.Overflowed(), p.Dropped)
	}
	c, err := ReadoutViaSocketInto(sock, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 || c.Dropped != 2 || !c.Overflowed {
		t.Fatalf("drained capture: len=%d dropped=%d overflowed=%v", c.Len(), c.Dropped, c.Overflowed)
	}
	p.Reset()
	p.Arm()
	s.AdvanceTo(20 * sim.Microsecond)
	sock.Read(0xD0000 + 500)
	if p.Stored() != 1 || p.Dropped != 0 || p.Overflowed() {
		t.Fatalf("card not clean after drain cycle: stored=%d dropped=%d overflowed=%v",
			p.Stored(), p.Dropped, p.Overflowed())
	}
}

// passThrough is a fault hook that changes nothing: it forces the readout
// through the window byte by byte.
type passThrough struct{}

func (passThrough) Latch(r Record) (Record, LatchVerdict)    { return r, LatchKeep }
func (passThrough) ReadoutByte(_ int, _ uint32, b byte) byte { return b }

// readoutBoth drains the card twice — once with no hook (the single copy)
// and once through a pass-through hook (the per-byte path) — and leaves
// the card's hook as it found it.
func readoutBoth(t *testing.T, sock *EPROMSocket, count int, plain, perByte *ReadoutBuffer) (Capture, Capture) {
	t.Helper()
	p := sock.card
	saved := p.fault
	defer p.SetFaultHook(saved)
	p.SetFaultHook(nil)
	a, err := ReadoutViaSocketInto(sock, count, plain)
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaultHook(passThrough{})
	b, err := ReadoutViaSocketInto(sock, count, perByte)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// A card with a wider timer reads out through one stamp bank per 8 timer
// bits, so a drain keeps every stamp bit: the single copy, the per-byte
// path and Dump agree on every record at each width, stamps above 2^24
// included.
func TestReadoutKeepsWideStamps(t *testing.T) {
	for _, bits := range []uint{16, 24, 26, 28, 32} {
		s := sim.NewScheduler()
		p := NewWithConfig(Config{Depth: 64, ClockHz: 10_000_000, TimerBits: bits}, s.Now)
		if got, want := p.Config().Banks(), 2+int(bits+7)/8; got != want {
			t.Fatalf("%d bits: %d banks, want %d", bits, got, want)
		}
		// Start just below the top of the counter so the stamps use its
		// high bits and wrap.
		p.SetPowerOnCounter(p.Config().Mask() - 20_000)
		sock := NewEPROMSocket(0xC8000, p)
		p.Arm()
		for i := 0; i < 8; i++ {
			s.AdvanceTo(sim.Time(i+1) * 700 * sim.Microsecond)
			sock.Read(0xC8000 + uint32(500+i))
		}
		p.Disarm()
		dump := p.Dump()
		high := false
		for _, r := range dump.Records {
			high = high || r.Stamp >= 1<<24
		}
		if bits > 24 && !high {
			t.Fatalf("%d bits: no stamp above 2^24 in %+v", bits, dump.Records)
		}
		plain, perByte := readoutBoth(t, sock, -1, nil, nil)
		for name, c := range map[string]Capture{"single copy": plain, "per-byte": perByte} {
			if len(c.Records) != len(dump.Records) || c.TimerBits != bits {
				t.Fatalf("%d bits, %s: %d records at %d bits, want %d at %d", bits, name, len(c.Records), c.TimerBits, len(dump.Records), bits)
			}
			for i, r := range dump.Records {
				if c.Records[i] != r {
					t.Fatalf("%d bits, %s: record %d = %+v, Dump has %+v", bits, name, i, c.Records[i], r)
				}
			}
		}
	}
}
