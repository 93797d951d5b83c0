package hw

import "kprof/internal/sim"

// Config describes a Profiler build. The zero value is the paper's
// prototype: 16384 records, a 1 MHz counter, 24 timer bits. The
// alternatives model the paper's future-work upgrades: "A higher clock
// precision has been considered, especially if the Profiler were connected
// to a upmarket workstation architecture ... this would entail fitting a
// wider RAM module for accepting more clock data bits."
type Config struct {
	// Depth is the RAM depth in records; 0 means DefaultDepth.
	Depth int
	// ClockHz is the free-running counter rate; 0 means 1 MHz.
	ClockHz int64
	// TimerBits is the stored counter width; 0 means 24. Wider timers
	// need an extra RAM chip per 8 bits but stretch the maximum interval
	// between events before wraparound.
	TimerBits uint
}

// DefaultClockHz is the prototype's counter rate.
const DefaultClockHz = 1_000_000

// WithDefaults fills zero fields with the prototype's values.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.ClockHz == 0 {
		c.ClockHz = DefaultClockHz
	}
	if c.TimerBits == 0 {
		c.TimerBits = TimerBits
	}
	return c
}

// Banks reports how many 8-bit RAM chips hold one record: two for the tag
// and one per 8 timer bits — five on the prototype, six at most.
func (c Config) Banks() int { return 2 + int(c.TimerBits+7)/8 }

// Mask reports the stored-bits mask.
func (c Config) Mask() uint32 { return 1<<c.TimerBits - 1 }

// TickPeriod reports one counter tick as virtual time.
func (c Config) TickPeriod() sim.Time {
	return sim.Time(int64(sim.Second) / c.ClockHz)
}

// NewWithConfig builds a card to a specific configuration.
func NewWithConfig(cfg Config, clock func() sim.Time) *Profiler {
	cfg = cfg.withDefaults()
	if cfg.TimerBits > 32 {
		panic("hw: timer wider than 32 bits needs a different record layout")
	}
	if clock == nil {
		panic("hw: nil clock")
	}
	return &Profiler{
		clock: clock,
		cfg:   cfg,
		tick:  int64(cfg.TickPeriod()),
		mask:  cfg.Mask(),
		ram:   make([]Record, 0, cfg.Depth),
		depth: cfg.Depth,
	}
}

// Config reports the card's build configuration.
func (p *Profiler) Config() Config { return p.cfg }
