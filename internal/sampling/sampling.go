// Package sampling implements the software alternative the paper weighs
// and rejects: a statclock-driven PC-sampling profiler ("function counting
// and gross clock profiling ... If a psuedo-random or skewed clock is
// available, then it is possible to improve the clock profiling").
//
// Each sample is a real interrupt: the sampling clock preempts the kernel,
// attributes the interrupted function, and burns CPU doing so. That is the
// paper's trade-off made concrete — "the finer the granularity, the more
// time is spent running the profiling clock and not actually running the
// kernel ... The coarser the granularity ... the resolution becomes too
// low to perform useful measurement" — which the benchmark harness
// quantifies against the hardware Profiler.
package sampling

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// Sampler is the clock-sampling profiler.
type Sampler struct {
	k   *kernel.Kernel
	rng *sim.Rand

	fnStatProf *kernel.Fn
	irq        *kernel.IRQ

	period  sim.Time
	skewed  bool
	running bool

	// hits counts samples per function name; "idle" collects samples
	// that landed outside any kernel function.
	hits  map[string]uint64
	total uint64

	// pending is the function captured at the sample instant, before the
	// sampling interrupt's own frames pile on.
	pending string
}

// Calibrated cost of servicing one sampling interrupt (beyond the usual
// interrupt stub): read the PC from the trap frame, hash, bump a counter.
const costSample = 12 * sim.Microsecond

// New installs a sampling profiler ticking at rate Hz. skewed adds the
// pseudo-random period jitter the paper mentions, decorrelating samples
// from clock-driven kernel activity.
func New(k *kernel.Kernel, rate int, skewed bool) *Sampler {
	if rate <= 0 {
		panic("sampling: non-positive rate")
	}
	s := &Sampler{
		k:          k,
		rng:        sim.NewRand(0x5a3),
		fnStatProf: k.RegisterFn("kern_clock", "statprof"),
		period:     sim.Second / sim.Time(rate),
		skewed:     skewed,
		hits:       make(map[string]uint64),
	}
	s.irq = k.RegisterIRQ("statclk", kernel.MaskClock, kernel.MaskAll, 1, s.intr)
	return s
}

// Start begins sampling.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.arm()
}

// Stop halts sampling after the next tick.
func (s *Sampler) Stop() { s.running = false }

func (s *Sampler) arm() {
	d := s.period
	if s.skewed {
		// +/- 25% jitter around the nominal period.
		d = s.rng.Duration(s.period*3/4, s.period*5/4)
	}
	s.k.Scheduler().After(d, func() {
		if !s.running {
			return
		}
		// Capture the interrupted function at the sample instant,
		// before the interrupt machinery runs.
		if fn := s.k.CurrentFn(); fn != nil {
			s.pending = fn.Name
		} else {
			s.pending = "idle"
		}
		s.k.Raise(s.irq)
		// The next tick is armed from the service routine: a chip whose
		// period is shorter than its own service time drops ticks rather
		// than storming the CPU — at absurd rates the effective rate
		// saturates at 1/serviceTime, which is perturbation enough.
	})
}

// intr services the sampling interrupt: charge the bookkeeping cost,
// commit the sample, re-arm.
func (s *Sampler) intr() {
	s.k.Call(s.fnStatProf, func() {
		s.k.Advance(costSample)
		s.hits[s.pending]++
		s.total++
	})
	if s.running {
		s.arm()
	}
}

// Samples reports the total samples taken.
func (s *Sampler) Samples() uint64 { return s.total }

// Fraction reports the sampled share of name among non-idle samples.
func (s *Sampler) Fraction(name string) float64 {
	busy := s.total - s.hits["idle"]
	if busy == 0 {
		return 0
	}
	return float64(s.hits[name]) / float64(busy)
}

// Row is one line of the sampling report.
type Row struct {
	Name    string
	Hits    uint64
	Percent float64
}

// Report returns rows sorted by hits.
func (s *Sampler) Report() []Row {
	rows := make([]Row, 0, len(s.hits))
	for name, n := range s.hits {
		var pct float64
		if s.total > 0 {
			pct = 100 * float64(n) / float64(s.total)
		}
		rows = append(rows, Row{Name: name, Hits: n, Percent: pct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Hits != rows[j].Hits {
			return rows[i].Hits > rows[j].Hits
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Write renders the sampling report.
func (s *Sampler) Write(w io.Writer, top int) error {
	fmt.Fprintf(w, "%d samples at %v nominal period\n", s.total, s.period)
	rows := s.Report()
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %6.2f%%  %s\n", r.Hits, r.Percent, r.Name)
	}
	return nil
}

// String renders the report.
func (s *Sampler) String() string {
	var b strings.Builder
	_ = s.Write(&b, 0)
	return b.String()
}
