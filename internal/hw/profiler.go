// Package hw models the Profiler hardware card described in the paper: a
// block of battery-backed RAM 40 bits wide (a 16-bit event tag plus a 24-bit
// microsecond timestamp), a free-running 1 MHz counter, an auto-incrementing
// address counter that stops capture on overflow, an arm switch, and two
// status LEDs. The card connects to the machine under test through a JEDEC
// EPROM piggy-back socket (see EPROMSocket): an access anywhere in the
// EPROM's address window latches the low 16 address bits as the event tag.
//
// The model is register-level faithful to the paper's description: the
// timestamp is stored modulo 2^24 µs (so events more than ~16.7 s apart lose
// information), capture ceases silently when the 16384-entry RAM fills, and
// the stored data can be read back as five 8-bit RAM bank images exactly as
// the physical card's Smart-Socket RAMs would be.
package hw

import "kprof/internal/sim"

// Hardware constants from the paper.
const (
	// DefaultDepth is the number of event records the prototype card
	// stores before the address counter overflows.
	DefaultDepth = 16384

	// TimerBits is the width of the microsecond counter; the maximum
	// interval between events before wraparound is 2^24 µs ≈ 16.7 s.
	TimerBits = 24

	// TimerMask extracts the stored bits of the microsecond counter.
	TimerMask = 1<<TimerBits - 1

	// TimerWrap is the modulus of the stored timestamp, in microseconds.
	TimerWrap = 1 << TimerBits

	// MaxTag is the largest event tag the 16 tag lines can carry.
	MaxTag = 1<<16 - 1
)

// Record is one captured event: the latched tag and the 24 low bits of the
// card's free-running microsecond counter at the moment of capture.
type Record struct {
	Tag   uint16
	Stamp uint32 // microseconds, modulo TimerWrap
}

// LatchVerdict is a FaultHook's decision about one latch strobe.
type LatchVerdict int

// Latch verdicts: store the (possibly modified) record once, lose the
// strobe entirely, or store it twice (a bounced strobe line).
const (
	LatchKeep LatchVerdict = iota
	LatchDrop
	LatchDup
)

// FaultHook intercepts the card's data paths so a fault injector can model
// the analog failure modes the paper warns about: lost and duplicated
// strobes, bit flips on the tag and timer lines, clock jitter, and glitched
// reads during socket readout. The hook sits below the card's bookkeeping —
// a dropped strobe is lost silently, exactly as real hardware would lose
// it, and only the injector's own statistics know it happened.
type FaultHook interface {
	// Latch transforms a record about to be stored and rules on its fate.
	// The returned record's stamp is re-masked by the card, so a corrupted
	// stamp is always hardware-representable.
	Latch(r Record) (Record, LatchVerdict)
	// ReadoutByte transforms a byte served through the EPROM window while
	// the card is in readout mode.
	ReadoutByte(bank int, offset uint32, b byte) byte
}

// Profiler is the card itself.
//
// The card has no notion of kernel time: it owns a free-running counter that
// starts at an arbitrary value at power-on (counterAt models that), and the
// analysis software is expected to use successive stamps only as intervals.
type Profiler struct {
	clock func() sim.Time // the simulation clock the counter is derived from
	cfg   Config

	// tick and mask cache cfg.TickPeriod() and cfg.Mask(): Counter runs
	// once per latch strobe, and recomputing the tick period there costs
	// an integer division per event.
	tick int64
	mask uint32

	ram      []Record
	depth    int
	addr     int
	armed    bool
	overflow bool

	// counterAt is the card counter value at simulation time zero.
	// A nonzero power-on value exercises the wraparound path.
	counterAt uint32

	readout readoutState
	fault   FaultHook

	// Latched counts every latch strobe, including ones dropped because
	// the card was disarmed or full; useful for capture-loss accounting.
	Latched uint64
	// Dropped counts strobes that arrived while the card could not store
	// (disarmed or overflowed).
	Dropped uint64
}

// SetPowerOnCounter sets the card counter's value at simulation time zero.
// The physical counter free-runs from power-on, so its value at the first
// capture is arbitrary; tests use this to exercise timer wraparound.
func (p *Profiler) SetPowerOnCounter(v uint32) { p.counterAt = v & p.mask }

// Counter reports the card's current truncated counter value.
func (p *Profiler) Counter() uint32 {
	now := int64(p.clock())
	var ticks uint32
	if p.tick == 1000 {
		// The prototype card's 1 MHz counter: a constant divisor the
		// compiler strength-reduces, on the once-per-event path.
		ticks = uint32(now / 1000)
	} else {
		ticks = uint32(now / p.tick)
	}
	return (ticks + p.counterAt) & p.mask
}

// Arm starts capture, as the front-panel switch does. Arming does not clear
// previously captured records; use Reset for a fresh capture. While the card
// is in readout mode the switch is ignored: the mode line gates the latch
// path, because an address strobe during readout would corrupt the capture
// being read.
func (p *Profiler) Arm() {
	if p.readout.active {
		return
	}
	p.armed = true
}

// Disarm stops capture.
func (p *Profiler) Disarm() { p.armed = false }

// Armed reports whether the capture LED would be lit.
func (p *Profiler) Armed() bool { return p.armed }

// Overflowed reports whether the address-counter-overflow LED would be lit:
// the RAM filled and the card has ceased storing.
func (p *Profiler) Overflowed() bool { return p.overflow }

// Reset clears the RAM address counter, the overflow latch, the capture
// statistics and any readout-mode state, ready for a new profiling run.
func (p *Profiler) Reset() {
	p.ram = p.ram[:0]
	p.addr = 0
	p.overflow = false
	p.Latched = 0
	p.Dropped = 0
	p.readout = readoutState{}
}

// Stored reports how many records are currently in the RAM.
func (p *Profiler) Stored() int { return len(p.ram) }

// Depth reports the RAM capacity in records.
func (p *Profiler) Depth() int { return p.depth }

// SetFaultHook installs (or, with nil, removes) a fault injector on the
// card's capture and readout paths. Reset does not clear the hook: the
// injector models the card's analog environment, which a fresh capture does
// not change.
func (p *Profiler) SetFaultHook(h FaultHook) { p.fault = h }

// Latch presents an event tag to the card, exactly as an access in the EPROM
// window does. If the card is armed and not full, the tag and the current
// counter value are stored and the address counter increments; otherwise the
// strobe is counted and dropped.
func (p *Profiler) Latch(tag uint16) {
	p.Latched++
	if !p.armed || p.overflow {
		p.Dropped++
		return
	}
	r := Record{Tag: tag, Stamp: p.Counter()}
	if p.fault != nil {
		var v LatchVerdict
		r, v = p.fault.Latch(r)
		r.Stamp &= p.mask
		switch v {
		case LatchDrop:
			// Lost silently: the card's own Dropped counter never sees
			// it — only the injector's statistics do.
			return
		case LatchDup:
			p.store(r)
			if p.overflow {
				return
			}
		}
	}
	p.store(r)
}

// store appends one record, latching overflow when the RAM fills.
func (p *Profiler) store(r Record) {
	p.ram = append(p.ram, r)
	p.addr++
	if p.addr >= p.depth {
		p.overflow = true
	}
}

// Records returns the stored records oldest first as a direct view of the
// card RAM — no copy. The view is only valid until the next Latch or Reset;
// batch decode paths read it straight into the reconstructor and drop it.
func (p *Profiler) Records() []Record { return p.ram }

// Dump copies out the captured records, oldest first. This models pulling
// the battery-backed RAMs and reading them on the host.
func (p *Profiler) Dump() Capture {
	out := make([]Record, len(p.ram))
	copy(out, p.ram)
	return Capture{
		Records:    out,
		Overflowed: p.overflow,
		Dropped:    p.Dropped,
		ClockHz:    p.cfg.ClockHz,
		TimerBits:  p.cfg.TimerBits,
	}
}

// StrandedCapture describes a bank the host failed to read out (a glitched
// drain): no records recovered, every stored strobe plus the card's own
// drop counter accounted as dropped. It is the loss-is-never-silent
// counterpart of a successful readout — the drain loop appends it to the
// segment store so the lost bank shows up as a lossy, force-closed segment
// instead of vanishing.
func (p *Profiler) StrandedCapture() Capture {
	return Capture{
		Overflowed: p.overflow,
		Dropped:    p.Dropped + uint64(len(p.ram)),
		ClockHz:    p.cfg.ClockHz,
		TimerBits:  p.cfg.TimerBits,
	}
}

// Capture is the raw data retrieved from the card: the event list plus the
// card status and clock configuration needed to interpret it.
type Capture struct {
	Records    []Record
	Overflowed bool   // RAM filled; the tail of the run is missing
	Dropped    uint64 // strobes lost while disarmed or full
	ClockHz    int64  // counter rate; 0 means the prototype's 1 MHz
	TimerBits  uint   // stored counter width; 0 means 24
}

// ClockConfig reports the capture's counter configuration with defaults
// applied.
func (c Capture) ClockConfig() Config {
	return Config{ClockHz: c.ClockHz, TimerBits: c.TimerBits}.withDefaults()
}

// Len reports the number of records.
func (c Capture) Len() int { return len(c.Records) }
