package core

import (
	"testing"

	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// The segment hook must observe every drained segment — including the
// final drain at Disarm — in drain order, with the records the session
// retains.
func TestOnSegmentHook(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 17})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{HighWater: 64, Interval: 20 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen []Segment
	s.SetOnSegment(func(seg Segment) { seen = append(seen, seg) })
	s.Arm()
	mallocStorm(m, 150)
	m.K.Run(sim.Second)
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) < 2 {
		t.Fatalf("drained only %d segments; grow the workload", len(segs))
	}
	if len(seen) != len(segs) {
		t.Fatalf("hook fired %d times for %d segments", len(seen), len(segs))
	}
	var prev sim.Time
	for i, seg := range seen {
		if seg.Records != segs[i].Records || len(seg.Capture.Records) != seg.Records {
			t.Fatalf("segment %d: hook saw %d records (%d in slice), session retains %d",
				i, seg.Records, len(seg.Capture.Records), segs[i].Records)
		}
		if seg.DrainedAt < prev {
			t.Fatalf("segment %d: drain time regressed %v -> %v", i, prev, seg.DrainedAt)
		}
		prev = seg.DrainedAt
	}
}

// Progress snapshots carry running totals: on a lossy continuous capture
// every snapshot's segment count, records and dropped strobes equal the
// sums over the segments drained so far (plus the card's own drop
// counter), and Reset zeroes them.
func TestProgressTotalsTrackSegments(t *testing.T) {
	m := NewMachine(kernel.Config{Seed: 9})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{Interval: 100 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		segs, records int
		dropped       uint64
		snapshots     int
	)
	s.SetOnSegment(func(seg Segment) {
		segs++
		records += seg.Records
		dropped += seg.Capture.Dropped
	})
	s.SetProgress(func(p Progress) {
		snapshots++
		if p.Segments != segs || p.SegmentRecords != records || p.Dropped != dropped+s.Card.Dropped {
			t.Fatalf("snapshot %d: %d segments, %d records, %d dropped; segments so far sum to %d, %d, %d (+%d on the card)",
				p.Gen, p.Segments, p.SegmentRecords, p.Dropped, segs, records, dropped, s.Card.Dropped)
		}
	})
	s.Arm()
	mallocStorm(m, 400)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	if segs < 2 || dropped == 0 {
		t.Fatalf("capture drained %d segments losing %d strobes; want a lossy multi-segment run", segs, dropped)
	}
	if snapshots <= segs {
		t.Fatalf("%d snapshots for %d segments", snapshots, segs)
	}

	s.Reset()
	segs, records, dropped = 0, 0, 0
	s.Arm()
	s.Disarm()
}
