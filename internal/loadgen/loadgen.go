// Package loadgen is a seeded open-loop load generator driven entirely off
// the sim scheduler. "Open loop" means the arrival schedule is a pure
// function of the generator's own seeded random stream: arrivals keep coming
// at the configured rate whether or not the system under test has finished
// serving the previous ones, which is the regime that exposes queueing,
// drain-loss, and deep-nesting behaviour a closed-loop (request/response)
// driver can never produce.
//
// Three arrival processes are provided: Poisson (exponential inter-arrival
// gaps via the inverse CDF), Burst (a two-state ON/OFF modulated Poisson
// process whose long-run mean rate still equals the configured rate), and
// Const (a fixed inter-arrival interval). All draws come from the
// generator's private sim.Rand, so the same seed reproduces the same
// schedule bit for bit — on any host, at any worker count.
package loadgen

import (
	"fmt"
	"math"

	"kprof/internal/sim"
)

// Kind selects an arrival process. The zero value is Poisson, the default
// for loadgen-driven scenarios.
type Kind int

const (
	// Poisson draws independent exponential inter-arrival gaps with mean
	// 1/Rate.
	Poisson Kind = iota
	// Burst is an ON/OFF (interrupted Poisson) process: exponential dwell
	// times in each state, arrivals only while ON, with the ON-state rate
	// scaled up so the long-run mean rate equals Rate.
	Burst
	// Const emits arrivals at a fixed interval of exactly 1/Rate.
	Const
)

// String reports the flag spelling of k.
func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	case Const:
		return "const"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses the -arrivals flag spelling.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "burst":
		return Burst, nil
	case "const":
		return Const, nil
	}
	return Poisson, fmt.Errorf("loadgen: unknown arrival process %q (want poisson, burst, or const)", s)
}

// Config parameterizes a generator.
type Config struct {
	// Kind selects the arrival process (zero value: Poisson). Burst
	// dwells DefaultOnMean ON and DefaultOffMean OFF on average.
	Kind Kind
	// Rate is the long-run mean arrival rate in events per simulated
	// second. Must be positive.
	Rate float64
	// Seed seeds the generator's private random stream.
	Seed uint64
}

// Burst dwell means: 50ms bursts separated by 150ms lulls, a 4x
// peak-to-mean ratio.
const (
	DefaultOnMean  = 50 * sim.Millisecond
	DefaultOffMean = 150 * sim.Millisecond
)

// Gen generates one arrival schedule. It is not safe for concurrent use;
// the sim scheduler is single-threaded, so this never comes up in practice.
type Gen struct {
	cfg Config
	rng *sim.Rand

	// Burst state: the end of the current ON period (on=true) or OFF
	// period (on=false).
	on       bool
	dwellEnd sim.Time
	peakMean sim.Time // ON-state mean gap, pre-scaled
	next     sim.Time // absolute time of the next arrival
}

// New builds a generator. The first arrival is drawn immediately, so two
// generators with identical configs agree on the whole schedule from t=0.
func New(cfg Config) (*Gen, error) {
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("loadgen: rate must be a positive finite number of events/sec, got %v", cfg.Rate)
	}
	if cfg.Rate > 1e8 {
		return nil, fmt.Errorf("loadgen: rate %v exceeds 1e8 events/sec (sub-10ns gaps)", cfg.Rate)
	}
	g := &Gen{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
	if cfg.Kind == Burst {
		// Scale the ON-state rate so the long-run mean over ON+OFF
		// cycles is still cfg.Rate.
		peak := cfg.Rate * float64(DefaultOnMean+DefaultOffMean) / float64(DefaultOnMean)
		g.peakMean = meanGap(peak)
		// Start ON so low-rate short runs still see arrivals.
		g.on = true
		g.dwellEnd = g.exp(DefaultOnMean)
	}
	g.next = g.gap(0)
	return g, nil
}

// Kind reports the configured arrival process.
func (g *Gen) Kind() Kind { return g.cfg.Kind }

// Rate reports the configured long-run mean rate in events/sec.
func (g *Gen) Rate() float64 { return g.cfg.Rate }

// meanGap converts a rate in events/sec to a mean gap in sim.Time.
func meanGap(rate float64) sim.Time {
	t := sim.Time(float64(sim.Second) / rate)
	if t < 1 {
		t = 1
	}
	return t
}

// exp draws an exponential variate with the given mean via the inverse CDF.
// math.Log is exactly specified for a given input, so the draw is as
// deterministic as the underlying Uint64 stream.
func (g *Gen) exp(mean sim.Time) sim.Time {
	u := g.rng.Float64() // in [0,1)
	t := sim.Time(-math.Log(1-u) * float64(mean))
	if t < 1 {
		t = 1
	}
	return t
}

// gap draws the inter-arrival gap for an arrival at absolute time t and
// returns the absolute time of the next arrival.
func (g *Gen) gap(t sim.Time) sim.Time {
	switch g.cfg.Kind {
	case Const:
		return t + meanGap(g.cfg.Rate)
	case Burst:
		// Walk dwell periods until an ON-state draw lands inside its
		// period. Arrivals never fall in OFF periods.
		for {
			if !g.on {
				t = g.dwellEnd
				g.on = true
				g.dwellEnd = t + g.exp(DefaultOnMean)
				continue
			}
			t += g.exp(g.peakMean)
			if t < g.dwellEnd {
				return t
			}
			t = g.dwellEnd
			g.on = false
			g.dwellEnd = t + g.exp(DefaultOffMean)
		}
	default: // Poisson
		return t + g.exp(meanGap(g.cfg.Rate))
	}
}

// Next returns the absolute time of the next arrival and advances the
// schedule. The stream depends only on the config and seed, never on what
// the caller does between calls — the open-loop invariant.
func (g *Gen) Next() sim.Time {
	t := g.next
	g.next = g.gap(t)
	return t
}

// Schedule arms arrival events on s from now until the until deadline,
// calling fn(i) at the i-th arrival. Each event draws and arms the next
// arrival BEFORE invoking fn, so nothing fn does (blocking, consuming
// random numbers from other streams, advancing time) can perturb the
// schedule. Returns immediately; arrivals fire as s runs.
func (g *Gen) Schedule(s *sim.Scheduler, until sim.Time, fn func(i int)) {
	i := 0
	var arm func(at sim.Time)
	arm = func(at sim.Time) {
		if at >= until {
			return
		}
		s.At(at, func() {
			n := i
			i++
			arm(g.Next())
			fn(n)
		})
	}
	next := g.Next()
	for next <= s.Now() {
		// A generator built mid-run re-anchors: skip arrivals already
		// in the past rather than panicking the scheduler.
		next = g.Next()
	}
	arm(next)
}
