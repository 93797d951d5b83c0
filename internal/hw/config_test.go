package hw

import (
	"bytes"
	"testing"

	"kprof/internal/sim"
)

func TestHigherPrecisionClock(t *testing.T) {
	s := sim.NewScheduler()
	// The future-work upgrade: a 4 MHz counter with 26 stored bits.
	p := NewWithConfig(Config{Depth: 16, ClockHz: 4_000_000, TimerBits: 26}, s.Now)
	p.Arm()
	s.AdvanceTo(1 * sim.Microsecond)
	p.Latch(1)
	s.AdvanceTo(1*sim.Microsecond + 250*sim.Nanosecond)
	p.Latch(2)
	s.AdvanceTo(1*sim.Microsecond + 500*sim.Nanosecond)
	p.Latch(3)
	c := p.Dump()
	// Sub-microsecond intervals are now distinguishable: stamps differ
	// by one tick each.
	if c.Records[1].Stamp-c.Records[0].Stamp != 1 || c.Records[2].Stamp-c.Records[1].Stamp != 1 {
		t.Fatalf("stamps = %d %d %d", c.Records[0].Stamp, c.Records[1].Stamp, c.Records[2].Stamp)
	}
	if c.ClockHz != 4_000_000 || c.TimerBits != 26 {
		t.Fatalf("capture config = %d Hz, %d bits", c.ClockHz, c.TimerBits)
	}
}

func TestPrototypeCannotSeeSubMicrosecond(t *testing.T) {
	s := sim.NewScheduler()
	p := NewWithConfig(Config{Depth: 16}, s.Now)
	p.Arm()
	s.AdvanceTo(1 * sim.Microsecond)
	p.Latch(1)
	s.AdvanceTo(1*sim.Microsecond + 500*sim.Nanosecond)
	p.Latch(2)
	c := p.Dump()
	if c.Records[0].Stamp != c.Records[1].Stamp {
		t.Fatal("prototype clock resolved below 1 µs")
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	proto := Config{}.withDefaults()
	if proto.ClockHz != 1_000_000 || proto.TimerBits != 24 || proto.Depth != 16384 {
		t.Fatalf("defaults = %+v", proto)
	}
	if proto.TickPeriod() != sim.Microsecond {
		t.Fatalf("tick = %v", proto.TickPeriod())
	}
	// ≈16.7 s before wrap on the prototype.
	if maxI := proto.MaxInterval(); maxI < 16*sim.Second || maxI > 17*sim.Second {
		t.Fatalf("max interval = %v", maxI)
	}
	// The upgraded card wraps *sooner* per bit-budget at higher rates —
	// the trade-off the paper weighs.
	fast := Config{ClockHz: 4_000_000, TimerBits: 24}.withDefaults()
	if fast.MaxInterval() >= proto.MaxInterval() {
		t.Fatal("faster clock should wrap sooner at equal width")
	}
	wide := Config{ClockHz: 4_000_000, TimerBits: 26}.withDefaults()
	if wide.MaxInterval() != proto.MaxInterval() {
		t.Fatalf("two extra bits should exactly compensate a 4x clock: %v vs %v",
			wide.MaxInterval(), proto.MaxInterval())
	}
}

func TestWideTimerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >32-bit timer")
		}
	}()
	NewWithConfig(Config{TimerBits: 33}, sim.NewScheduler().Now)
}

func TestCaptureFileCarriesClockConfig(t *testing.T) {
	s := sim.NewScheduler()
	p := NewWithConfig(Config{Depth: 8, ClockHz: 4_000_000, TimerBits: 26}, s.Now)
	p.Arm()
	p.Latch(7)
	var buf bytes.Buffer
	if _, err := p.Dump().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClockHz != 4_000_000 || got.TimerBits != 26 {
		t.Fatalf("round trip config = %d Hz, %d bits", got.ClockHz, got.TimerBits)
	}
	cfg := got.ClockConfig()
	if cfg.TickPeriod() != 250*sim.Nanosecond {
		t.Fatalf("tick = %v", cfg.TickPeriod())
	}
}

func TestReadoutViaSocket(t *testing.T) {
	s := sim.NewScheduler()
	p := NewWithConfig(Config{Depth: 64}, s.Now)
	sock := NewEPROMSocket(0xC8000, p)
	p.Arm()
	for i := 0; i < 10; i++ {
		s.AdvanceTo(sim.Time(i+1) * 100 * sim.Microsecond)
		sock.Read(0xC8000 + uint32(500+i))
	}
	p.Disarm()
	direct := p.Dump()

	got, err := ReadoutViaSocketInto(sock, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != direct.Len() {
		t.Fatalf("readout %d records, direct %d", got.Len(), direct.Len())
	}
	for i := range direct.Records {
		if got.Records[i] != direct.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], direct.Records[i])
		}
	}
	// The card is back in normal mode and the capture is intact.
	if p.InReadout() {
		t.Fatal("card stuck in readout")
	}
	if p.Stored() != 10 {
		t.Fatalf("readout disturbed the RAM: %d", p.Stored())
	}
	// Readout reads must not have latched anything.
	if p.Latched != 10 {
		t.Fatalf("latched = %d, readout strobes leaked in", p.Latched)
	}
}

func TestReadoutModeDisablesLatching(t *testing.T) {
	s := sim.NewScheduler()
	p := NewWithConfig(Config{Depth: 8}, s.Now)
	sock := NewEPROMSocket(0xC8000, p)
	p.Arm()
	sock.Read(0xC8000 + 500)
	p.EnterReadout()
	if p.Armed() {
		t.Fatal("readout left the card armed")
	}
	sock.Read(0xC8000 + 501) // must NOT latch
	p.ExitReadout()
	if p.Stored() != 1 {
		t.Fatalf("stored = %d", p.Stored())
	}
}

// Only the card's own banks can be selected: five on the prototype, six on
// a 32-bit timer.
func TestSelectBankValidation(t *testing.T) {
	for _, bits := range []uint{24, 32} {
		p := NewWithConfig(Config{Depth: 8, TimerBits: bits}, sim.NewScheduler().Now)
		last := p.Config().Banks() - 1
		p.SelectBank(last)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d bits: bank %d selected", bits, last+1)
				}
			}()
			p.SelectBank(last + 1)
		}()
	}
}

func TestReadoutPastEndReadsFF(t *testing.T) {
	s := sim.NewScheduler()
	p := NewWithConfig(Config{Depth: 8}, s.Now)
	sock := NewEPROMSocket(0xC8000, p)
	p.Arm()
	sock.Read(0xC8000 + 500)
	p.EnterReadout()
	p.SelectBank(0)
	if v := sock.Read(0xC8000 + 3); v != 0xFF {
		t.Fatalf("unwritten RAM read %#x", v)
	}
}
