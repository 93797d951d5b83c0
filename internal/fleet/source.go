package fleet

import (
	"fmt"

	"kprof/internal/core"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

// RawSegment is one drained capture segment as the machine side hands it
// to ingest: the raw card records plus the drain boundary's loss
// accounting, before any decoding.
type RawSegment struct {
	// Records are the drained card records.
	Records []hw.Record
	// Dropped and Overflowed describe strobes lost at the segment's end
	// boundary (arrived after the card filled, before the drain ran).
	Dropped    uint64
	Overflowed bool
	// DrainedAt is the virtual time the drain ran — the sample's position
	// on the fleet timeline and its window assignment.
	DrainedAt sim.Time
}

// Source is one machine's segment stream. Open boots whatever the stream
// needs and reports the card clock configuration and tag file its records
// decode under; Run produces the segments in drain order, calling emit for
// each, and returns when the stream ends. An emit error aborts the stream:
// Run must stop emitting and return it (or a wrapper).
type Source interface {
	// ID is the machine ID (unique across the fleet).
	ID() int
	// Open prepares the stream and returns the decode configuration.
	Open() (hw.Config, *tagfile.File, error)
	// Run produces the segments; it must not be called before Open.
	Run(emit func(RawSegment) error) error
}

// LiveSource boots a real simulated machine and streams its continuous-
// capture drains as they happen. The emit callback runs on the machine's
// simulation goroutine inside the drain itself, so ingest backpressure
// (a blocking staging append) propagates naturally into the machine's
// capture loop — the production coupling the fleet models.
type LiveSource struct {
	mc MachineConfig
	sc workload.Scenario
	m  *core.Machine
	s  *core.Session
}

// NewLiveSource validates the machine configuration and resolves its
// scenario. The machine itself boots in Open.
func NewLiveSource(mc MachineConfig) (*LiveSource, error) {
	sc, ok := workload.FindScenario(mc.Scenario)
	if !ok {
		return nil, fmt.Errorf("fleet: machine %d: unknown scenario %q (have %v)",
			mc.ID, mc.Scenario, workload.ScenarioNames())
	}
	return &LiveSource{mc: mc, sc: sc}, nil
}

// ID returns the machine ID.
func (ls *LiveSource) ID() int { return ls.mc.ID }

// Open boots the machine, runs the scenario's Setup, and instruments a
// continuous-capture session with the machine's card configuration.
func (ls *LiveSource) Open() (hw.Config, *tagfile.File, error) {
	m := core.NewMachine(kernel.Config{Seed: ls.mc.Seed})
	if ls.sc.Setup != nil {
		if err := ls.sc.Setup(m, ls.mc.Params); err != nil {
			return hw.Config{}, nil, fmt.Errorf("fleet: machine %d: setup: %w", ls.mc.ID, err)
		}
	}
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:    core.CaptureContinuous,
		Depth:   ls.mc.Depth,
		ClockHz: ls.mc.ClockHz,
	})
	if err != nil {
		return hw.Config{}, nil, fmt.Errorf("fleet: machine %d: session: %w", ls.mc.ID, err)
	}
	ls.m, ls.s = m, s
	return s.Card.Config(), s.Tags, nil
}

// Run arms the card, drives the scenario, and emits every drained segment
// — including the final drain at Disarm. An emit error stops further
// emission immediately; the scenario still runs to completion (the
// simulation loop cannot be aborted mid-workload) and the error is
// returned afterwards.
func (ls *LiveSource) Run(emit func(RawSegment) error) error {
	if ls.s == nil {
		return fmt.Errorf("fleet: machine %d: Run before Open", ls.mc.ID)
	}
	var emitErr error
	ls.s.SetOnSegment(func(seg core.Segment) {
		if emitErr != nil {
			return
		}
		emitErr = emit(RawSegment{
			Records:    seg.Capture.Records,
			Dropped:    seg.Capture.Dropped,
			Overflowed: seg.Capture.Overflowed,
			DrainedAt:  seg.DrainedAt,
		})
	})
	ls.s.Arm()
	_, runErr := ls.sc.Run(ls.m, ls.mc.Params)
	ls.s.Disarm()
	if runErr != nil {
		return fmt.Errorf("fleet: machine %d: %s: %w", ls.mc.ID, ls.mc.Scenario, runErr)
	}
	return emitErr
}

// ReplaySource replays a pre-captured segment stream. Replays are
// reusable (Run may be called repeatedly after one Open) and cheap, which
// is what the determinism tests and the ingest benchmark need: the same
// byte-for-byte stream fed through different staging bounds and kill
// points.
type ReplaySource struct {
	// Machine is the machine ID the stream claims.
	Machine int
	// Clock and TagFile are the decode configuration.
	Clock   hw.Config
	TagFile *tagfile.File
	// Segments is the stream, in drain order.
	Segments []RawSegment
}

// ID returns the machine ID.
func (rs *ReplaySource) ID() int { return rs.Machine }

// Open returns the recorded decode configuration.
func (rs *ReplaySource) Open() (hw.Config, *tagfile.File, error) {
	if rs.TagFile == nil {
		return hw.Config{}, nil, fmt.Errorf("fleet: machine %d: replay has no tag file", rs.Machine)
	}
	return rs.Clock, rs.TagFile, nil
}

// Run emits the recorded segments in order.
func (rs *ReplaySource) Run(emit func(RawSegment) error) error {
	for _, seg := range rs.Segments {
		if err := emit(seg); err != nil {
			return err
		}
	}
	return nil
}

// Record captures one machine's full segment stream into a ReplaySource
// by running it live once and copying every emitted segment.
func Record(mc MachineConfig) (*ReplaySource, error) {
	ls, err := NewLiveSource(mc)
	if err != nil {
		return nil, err
	}
	cfg, tags, err := ls.Open()
	if err != nil {
		return nil, err
	}
	rs := &ReplaySource{Machine: mc.ID, Clock: cfg, TagFile: tags}
	err = ls.Run(func(seg RawSegment) error {
		seg.Records = append([]hw.Record(nil), seg.Records...)
		rs.Segments = append(rs.Segments, seg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}
