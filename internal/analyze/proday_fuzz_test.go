// Fuzzing the decode pipeline with proday-shaped streams: the production
// day scenario nests deeper and switches context more than any other
// workload, so its captures exercise stack depths and interleavings the
// netrecv-seeded corpus never reaches. The fuzzer mutates a genuine
// proday capture; reconstruction must stay panic-free with sane
// accounting whatever it invents.
package analyze_test

import (
	"testing"

	"kprof/internal/core"
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
// pipeline and holds them to the same checks as FuzzFaultedDecode
// (checkDecode). Proday's switches, suspensions and adoptions are where a
// step reading the batch path's reused event after its next fill would
// diverge from Push, and where the idle accounting, the conservation law
// and the folded profile see context switches at all.
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
		checkDecode(t, tags, data, split)
	})
}
