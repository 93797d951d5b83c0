// Fuzzing the decode pipeline with proday-shaped streams: the production
// day scenario nests deeper and switches context more than any other
// workload, so its captures exercise stack depths and interleavings the
// netrecv-seeded corpus never reaches. The fuzzer mutates a genuine
// proday capture; reconstruction must stay panic-free with sane
// accounting whatever it invents.
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

// prodayCapture profiles a short proday run and returns its raw capture
// and tag file. ProdaySetup runs before the session so the SNMP and NFS
// functions it registers are tagged in the corpus.
func prodayCapture(tb testing.TB) (hw.Capture, *tagfile.File) {
	tb.Helper()
	p := workload.Params{
		Duration: 150 * sim.Millisecond,
		Conns:    40,
		Rate:     250,
	}
	m := core.NewMachine(kernel.Config{Seed: 42})
	if err := workload.ProdaySetup(m, p); err != nil {
		tb.Fatal(err)
	}
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	s.Arm()
	if _, err := workload.Proday(m, p); err != nil {
		tb.Fatal(err)
	}
	s.Disarm()
	return s.Capture(), s.Tags
}

// FuzzProdayDecode streams mutated proday records through the hardened
// pipeline. Beyond FuzzFaultedDecode's generic invariants, it checks the
// deep-nesting accounting: no function's timed calls exceed its calls and
// segment totals stay within the capture. The records go in one Push at a
// time and, into a second reconstructor, one PushBatch per segment, and the
// two must agree to the pprof byte: proday's switches and adoptions are
// where a step reading the batch path's reused event after its next fill
// would diverge.
func FuzzProdayDecode(f *testing.F) {
	c, tags := prodayCapture(f)
	recs := c.Records
	// Enough genuine records to seed deep call stacks and context-switch
	// churn without bloating the corpus.
	if len(recs) > 600 {
		recs = recs[:600]
	}
	raw := encodeRecords(recs)
	f.Add(raw, uint8(0))
	if len(raw) >= 40 {
		f.Add(raw[:len(raw)/2+3], uint8(1)) // mid-record truncation
		swapped := append([]byte(nil), raw...)
		// Swap two records: an exit arriving before its entry.
		copy(swapped[0:5], raw[5:10])
		copy(swapped[5:10], raw[0:5])
		f.Add(swapped, uint8(2))
		f.Add(raw, uint8(5)) // many lossy boundaries through deep stacks
	}

	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		recs := decodeRecords(data)
		segLen := len(recs)
		if split > 0 {
			segLen = len(recs)/int(split%8+2) + 1
		}
		opts := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
		rc := analyze.NewReconstructor(hw.Config{}, tags, opts)
		rb := analyze.NewReconstructor(hw.Config{}, tags, opts)
		for lo := 0; lo < len(recs); lo += segLen {
			hi := min(lo+segLen, len(recs))
			for _, r := range recs[lo:hi] {
				rc.Push(r)
			}
			rb.PushBatch(recs[lo:hi])
			if hi < len(recs) {
				rc.EndSegment(uint64(split%2), false)
				rb.EndSegment(uint64(split%2), false)
			}
		}
		a := rc.Finish(false, 0)
		b := rb.Finish(false, 0)
		if b.Stats != a.Stats || b.Idle != a.Idle || b.Switches != a.Switches {
			t.Fatalf("PushBatch diverges from Push: stats %+v idle %v switches %d, want %+v idle %v switches %d",
				b.Stats, b.Idle, b.Switches, a.Stats, a.Idle, a.Switches)
		}
		if got, want := b.SummaryString(0), a.SummaryString(0); got != want {
			t.Fatalf("PushBatch summary differs from Push:\n--- Push\n%s--- PushBatch\n%s", want, got)
		}
		if !bytes.Equal(export.MarshalPprof(b, export.PprofOptions{}), export.MarshalPprof(a, export.PprofOptions{})) {
			t.Fatal("PushBatch pprof differs from Push")
		}

		if a.Stats.Records != len(recs) {
			t.Fatalf("decoded %d records of %d", a.Stats.Records, len(recs))
		}
		if a.End < a.Start || a.RunTime() < 0 {
			t.Fatalf("malformed timeline: start %v end %v run %v", a.Start, a.End, a.RunTime())
		}
		totalSeg, forced := 0, 0
		for _, seg := range a.Segments {
			if seg.Records < 0 || seg.ForceClosed < 0 {
				t.Fatalf("negative segment accounting: %+v", seg)
			}
			totalSeg += seg.Records
			forced += seg.ForceClosed
		}
		if totalSeg > a.Stats.Records {
			t.Fatalf("segments hold %d records, capture only %d", totalSeg, a.Stats.Records)
		}
		if forced > a.Recovered {
			t.Fatalf("force-closed %d frames but Recovered only %d", forced, a.Recovered)
		}
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
	})
}
