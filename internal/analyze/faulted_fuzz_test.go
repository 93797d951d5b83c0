// Fuzzing the hardened decode pipeline end to end: arbitrary (and
// arbitrarily corrupted) raw record streams must reconstruct without
// panicking or hanging, with sane accounting, whatever the fuzzer finds.
// This lives in the external test package so the corpus can be seeded from
// a real capture taken through core — the same bytes a damaged card would
// hand the host.
package analyze_test

import (
	"bytes"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

// encodeRecords packs records as the fuzz input format: 5 bytes each —
// little-endian tag, then the 24-bit stamp.
func encodeRecords(recs []hw.Record) []byte {
	out := make([]byte, 0, 5*len(recs))
	for _, r := range recs {
		out = append(out, byte(r.Tag), byte(r.Tag>>8),
			byte(r.Stamp), byte(r.Stamp>>8), byte(r.Stamp>>16))
	}
	return out
}

func decodeRecords(data []byte) []hw.Record {
	var recs []hw.Record
	for i := 0; i+5 <= len(data); i += 5 {
		recs = append(recs, hw.Record{
			Tag:   uint16(data[i]) | uint16(data[i+1])<<8,
			Stamp: (uint32(data[i+2]) | uint32(data[i+3])<<8 | uint32(data[i+4])<<16) & hw.TimerMask,
		})
	}
	return recs
}

// realCapture profiles a short netrecv run and returns its raw capture and
// tag file — genuine record streams for the fuzz corpus.
func realCapture(tb testing.TB) (hw.Capture, *tagfile.File) {
	tb.Helper()
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	s.Arm()
	if _, err := workload.NetReceive(m, 5*sim.Millisecond); err != nil {
		tb.Fatal(err)
	}
	s.Disarm()
	return s.Capture(), s.Tags
}

// FuzzFaultedDecode streams fuzzer-controlled raw records — seeded from a
// genuine capture, then mutated by bit flips, truncation, and whatever else
// the fuzzer invents — through the full hardened pipeline: repairing
// decoder, segment stitching, reconstruction, held to checkDecode. Its
// netrecv corpus holds no context switch; FuzzProdayDecode runs the same
// checks on streams that switch and adopt.
func FuzzFaultedDecode(f *testing.F) {
	c, tags := realCapture(f)
	recs := c.Records
	// A few hundred genuine records seed plenty of structure; a full
	// 16384-record corpus entry just slows mutation down.
	if len(recs) > 400 {
		recs = recs[:400]
	}
	raw := encodeRecords(recs)
	f.Add(raw, uint8(0))
	// Seeds resembling common damage: truncation, a flipped high stamp
	// bit, a bogus tag, duplicate records, and an empty stream.
	if len(raw) >= 40 {
		f.Add(raw[:35], uint8(1)) // mid-record truncation
		flipped := append([]byte(nil), raw...)
		flipped[4+2] ^= 0x80 // high bit of record 0's stamp
		f.Add(flipped, uint8(2))
		bogus := append([]byte(nil), raw...)
		bogus[0], bogus[1] = 0xFF, 0xFF // tag 65535: resolves to nothing
		f.Add(bogus, uint8(0))
		f.Add(append(append([]byte(nil), raw[:10]...), raw[:10]...), uint8(3))
	}
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		checkDecode(t, tags, data, split)
	})
}

// checkDecode is the check body both decode fuzzers run. It carves the
// records in data into segments by split (0 keeps one segment, and odd
// splits make lossy boundaries, which exercises force-close) and
// reconstructs them three ways: one Push per record, one PushBatch per
// segment (the drain path's shape), and a Stitch of the segments, which
// keeps the trace the streamed ones drop. The three must agree to the
// summary and pprof byte. The pipeline must not panic, the timeline must
// be well-formed, the trees must keep their conservation law, the
// profile folded while streaming must be the one a walk of the trace
// finds, and the accounting must add up.
func checkDecode(t *testing.T, tags *tagfile.File, data []byte, split uint8) {
	recs := decodeRecords(data)
	segLen := len(recs)
	if split > 0 {
		segLen = len(recs)/int(split%8+2) + 1
	}
	opts := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
	rc := analyze.NewReconstructor(hw.Config{}, tags, opts)
	rb := analyze.NewReconstructor(hw.Config{}, tags, opts)
	var segs []hw.Capture
	for lo := 0; lo < len(recs); lo += segLen {
		hi := min(lo+segLen, len(recs))
		for _, r := range recs[lo:hi] {
			rc.Push(r)
		}
		rb.PushBatch(recs[lo:hi])
		seg := hw.Capture{Records: recs[lo:hi]}
		if hi < len(recs) {
			rc.EndSegment(uint64(split%2), false)
			rb.EndSegment(uint64(split%2), false)
			seg.Dropped = uint64(split % 2)
		}
		segs = append(segs, seg)
	}
	a := rc.Finish(false, 0)
	b := rb.Finish(false, 0)
	st := analyze.Stitch(segs, tags, opts)
	if b.Stats != a.Stats || b.Idle != a.Idle || b.Switches != a.Switches {
		t.Fatalf("PushBatch diverges from Push: stats %+v idle %v switches %d, want %+v idle %v switches %d",
			b.Stats, b.Idle, b.Switches, a.Stats, a.Idle, a.Switches)
	}
	if got, want := b.SummaryString(0), a.SummaryString(0); got != want {
		t.Fatalf("PushBatch summary differs from Push:\n--- Push\n%s--- PushBatch\n%s", want, got)
	}
	if got, want := st.SummaryString(0), a.SummaryString(0); got != want {
		t.Fatalf("Stitch summary differs from Push:\n--- Push\n%s--- Stitch\n%s", want, got)
	}
	pa := export.MarshalPprof(a, export.PprofOptions{})
	if pb := export.MarshalPprof(b, export.PprofOptions{}); !bytes.Equal(pb, pa) {
		t.Fatal("PushBatch pprof differs from Push")
	}
	if ps := export.MarshalPprof(st, export.PprofOptions{}); !bytes.Equal(ps, pa) {
		t.Fatal("Stitch pprof differs from Push")
	}

	if a.Stats.Records != len(recs) {
		t.Fatalf("decoded %d records of %d", a.Stats.Records, len(recs))
	}
	// Each record adds at most one trace item, the bound Stitch and
	// ReconstructCapture size the trace to once; the trees keep their
	// conservation law; and the profile folded while streaming is the
	// one a walk of the trace finds.
	if len(st.Items()) > st.Stats.Records {
		t.Fatalf("trace has %d items for %d records", len(st.Items()), st.Stats.Records)
	}
	if _, err := analyze.CheckConservation(st); err != nil {
		t.Fatal(err)
	}
	if _, err := analyze.CheckProfile(st); err != nil {
		t.Fatal(err)
	}
	if a.End < a.Start || a.RunTime() < 0 {
		t.Fatalf("malformed timeline: start %v end %v run %v (elapsed %v, idle %v)",
			a.Start, a.End, a.RunTime(), a.Elapsed(), a.Idle)
	}
	if a.Stats.CorruptRecords > len(recs) {
		t.Fatalf("corrupt count %d exceeds record count %d", a.Stats.CorruptRecords, len(recs))
	}
	if a.Stats.RepairedTimestamps > len(recs) || a.Stats.Resyncs > len(recs) {
		t.Fatalf("implausible repair accounting: %+v", a.Stats)
	}
	// Per-segment counts never exceed the capture totals (the tail after
	// the last boundary belongs to no segment, so the sums can fall
	// short but never overshoot).
	segRecords, segCorrupt, forced := 0, 0, 0
	for _, seg := range a.Segments {
		if seg.Records < 0 || seg.Corrupt < 0 || seg.ForceClosed < 0 {
			t.Fatalf("negative segment accounting: %+v", seg)
		}
		segRecords += seg.Records
		segCorrupt += seg.Corrupt
		forced += seg.ForceClosed
	}
	if segRecords > a.Stats.Records {
		t.Fatalf("segments hold %d records, capture only %d", segRecords, a.Stats.Records)
	}
	if segCorrupt > a.Stats.CorruptRecords {
		t.Fatalf("segment corrupt counts sum to %d, stats say %d", segCorrupt, a.Stats.CorruptRecords)
	}
	if forced > a.Recovered {
		t.Fatalf("force-closed %d frames but Recovered only %d", forced, a.Recovered)
	}
	// The per-function stats must be internally consistent, and no
	// record makes more than one call.
	calls := 0
	for _, s := range a.Functions() {
		if s.TimedCalls > s.Calls || s.Calls < 0 {
			t.Fatalf("%s: %d timed of %d calls", s.Name, s.TimedCalls, s.Calls)
		}
		calls += s.Calls
	}
	if calls > len(recs) {
		t.Fatalf("%d calls reconstructed from %d records", calls, len(recs))
	}
}
