package analyze_test

import (
	"bytes"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/export"
)

// Pushing records one at a time must agree with the batch path
// (ReconstructCapture, which hands the whole capture to PushBatch) on every
// retained quantity, the pprof profile included. Both must unwrap exactly
// as Decode, the reference decoder.
func TestStreamingMatchesBatch(t *testing.T) {
	tags := analyze.MustTags(t)
	for _, seed := range []uint64{1, 2, 77} {
		c := analyze.PseudoCapture(seed, 3000)
		events, stats := analyze.Decode(c, tags)
		batch := analyze.ReconstructCapture(c, tags, analyze.ReconstructOptions{})
		if batch.Stats != stats || batch.End != events[len(events)-1].Time {
			t.Fatalf("seed %d: batch stats %+v ending at %v, Decode %+v ending at %v",
				seed, batch.Stats, batch.End, stats, events[len(events)-1].Time)
		}

		rc := analyze.NewReconstructor(c.ClockConfig(), tags, analyze.ReconstructOptions{})
		for _, r := range c.Records {
			rc.Push(r)
		}
		stream := rc.Finish(c.Overflowed, c.Dropped)

		if got, want := stream.SummaryString(0), batch.SummaryString(0); got != want {
			t.Fatalf("seed %d: streaming summary differs\n--- streaming ---\n%s--- batch ---\n%s", seed, got, want)
		}
		got := export.MarshalPprof(stream, export.PprofOptions{})
		want := export.MarshalPprof(batch, export.PprofOptions{})
		if len(batch.Profile().Samples()) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: streaming pprof (%d bytes) differs from batch (%d bytes)", seed, len(got), len(want))
		}
		if stream.Stats != batch.Stats {
			t.Fatalf("seed %d: stats %+v != %+v", seed, stream.Stats, batch.Stats)
		}
		if stream.Idle != batch.Idle || stream.Switches != batch.Switches ||
			stream.OrphanExits != batch.OrphanExits || stream.Recovered != batch.Recovered {
			t.Fatalf("seed %d: accounting differs", seed)
		}
	}
}
