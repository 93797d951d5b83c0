// Package export converts a reconstructed capture (analyze.Analysis) into
// the formats modern profiling consumers expect, and serves live capture
// status over HTTP:
//
//   - MarshalPprof / WritePprof emit a pprof-compatible protobuf profile
//     (hand-rolled encoding, no dependencies) whose samples carry the
//     reconstructed call stacks with per-stack call counts and nanosecond
//     self times, so `go tool pprof` renders the simulated kernel exactly
//     as it renders a Go program: flat = the paper's net column,
//     cumulative = the paper's elapsed column.
//   - WriteChromeTrace emits the nested frames as Chrome trace_event
//     duration events — viewable in Perfetto or chrome://tracing — with
//     per-process tracks split at the context switcher and one instant
//     event per drain-segment boundary (loss boundaries marked).
//   - StatusServer exposes capture progress (fill level, drained
//     segments, dropped strobes, sweep worker progress) as JSON plus a
//     minimal HTML view, fed by the progress hooks on core.Session and
//     sweep.Config.
//
// The exporters need a full reconstruction (Session.Analyze, or
// analyze.ReconstructCapture or analyze.Stitch without DiscardTrace); the
// lean streaming path keeps neither of the two structures they read.
// MarshalPprof encodes the call-path profile (analyze.Analysis.Profile),
// which the reconstruction folds as it streams, and never touches the
// trace. WriteChromeTrace reads the trace timeline and invocation trees
// (Analysis.Items), which an analysis builds on first use by
// reconstructing its records a second time, so the first trace export of
// an analysis pays for that pass.
package export

import (
	"compress/gzip"
	"fmt"
	"io"

	"kprof/internal/analyze"
)

// pprof profile.proto field numbers. The schema is the stable public one
// consumed by `go tool pprof` (google/pprof/proto/profile.proto).
const (
	// Profile
	profSampleType    = 1
	profSample        = 2
	profLocation      = 4
	profFunction      = 5
	profStringTable   = 6
	profTimeNanos     = 9
	profDurationNanos = 10
	profPeriodType    = 11
	profPeriod        = 12
	profComment       = 13

	// ValueType
	vtType = 1
	vtUnit = 2

	// Sample
	sampleLocationID = 1
	sampleValue      = 2

	// Location
	locID   = 1
	locLine = 4

	// Line
	lineFunctionID = 1

	// Function
	fnID         = 1
	fnName       = 2
	fnSystemName = 3
)

// PprofOptions tunes the pprof export.
type PprofOptions struct {
	// PeriodNS is the sampling period recorded on the profile, in
	// nanoseconds; 0 means 1000 — the prototype card's 1 µs counter
	// resolution.
	PeriodNS int64
}

// strtab is the profile's string table, in insertion order.
type strtab struct {
	ix  map[string]int64
	tab []string
}

func (t *strtab) str(s string) int64 {
	if ix, ok := t.ix[s]; ok {
		return ix
	}
	ix := int64(len(t.tab))
	t.ix[s] = ix
	t.tab = append(t.tab, s)
	return ix
}

// MarshalPprof encodes the analysis's call-path profile as an uncompressed
// pprof protobuf profile. Sample values are [calls/count,
// time/nanoseconds]; each sample is one unique reconstructed call stack,
// its time the accumulated net (self) time of the invocations with that
// stack. Functions, locations and samples keep the profile's
// first-encounter order, one location per function. `go tool pprof -top`
// therefore shows flat = the summary report's net column and cum = its
// elapsed column, except that invocations under a root frame that never
// exited (open at capture end, force-closed, or in a suspended context) are
// not in the profile. The output is deterministic byte for byte.
func MarshalPprof(a *analyze.Analysis, opts PprofOptions) []byte {
	period := opts.PeriodNS
	if period == 0 {
		period = 1000
	}
	prof := a.Profile()
	funcs, paths := prof.Funcs(), prof.Paths()
	st := &strtab{ix: map[string]int64{"": 0}, tab: []string{""}}
	// Pre-intern the type/unit strings so the table layout is stable
	// regardless of function names.
	callsIx, countIx := st.str("calls"), st.str("count")
	timeIx, nanosIx := st.str("time"), st.str("nanoseconds")
	for _, name := range funcs {
		st.str(name)
	}
	// A capture the hardened decoder had to repair carries its corruption
	// accounting as a profile comment (`go tool pprof` prints it under
	// "Comment:"). Interned before the string table is emitted; clean
	// captures intern nothing, so their bytes are unchanged.
	commentIx := int64(-1)
	if a.Stats.CorruptRecords > 0 {
		commentIx = st.str(fmt.Sprintf("decode: %d corrupt records, %d repaired timestamps, %d resyncs",
			a.Stats.CorruptRecords, a.Stats.RepairedTimestamps, a.Stats.Resyncs))
	}

	var p protoBuf
	vt := func(typ, unit int64) []byte {
		var v protoBuf
		v.int64Field(vtType, typ)
		v.int64Field(vtUnit, unit)
		return v.b
	}
	p.bytesField(profSampleType, vt(callsIx, countIx))
	p.bytesField(profSampleType, vt(timeIx, nanosIx))
	var locs []uint64 // one stack buffer, refilled leaf first per sample
	for _, ix := range prof.Samples() {
		locs = locs[:0]
		for q := ix; q >= 0; q = paths[q].Parent {
			locs = append(locs, uint64(paths[q].Fn))
		}
		smp := &paths[ix]
		var s protoBuf
		s.packedUint64(sampleLocationID, locs)
		s.packedInt64(sampleValue, []int64{smp.Calls, smp.NS})
		p.bytesField(profSample, s.b)
	}
	for i := range funcs {
		id := uint64(i + 1)
		var line protoBuf
		line.uint64Field(lineFunctionID, id)
		var loc protoBuf
		loc.uint64Field(locID, id)
		loc.bytesField(locLine, line.b)
		p.bytesField(profLocation, loc.b)
	}
	for i, name := range funcs {
		nameIx := st.ix[name]
		var fn protoBuf
		fn.uint64Field(fnID, uint64(i+1))
		fn.int64Field(fnName, nameIx)
		fn.int64Field(fnSystemName, nameIx)
		p.bytesField(profFunction, fn.b)
	}
	for _, s := range st.tab {
		p.bytesField(profStringTable, []byte(s))
	}
	// time_nanos stays zero: the capture's timeline is virtual, and a wall
	// timestamp would break byte-identical golden output.
	p.int64Field(profTimeNanos, 0)
	p.int64Field(profDurationNanos, int64(a.Elapsed()))
	p.bytesField(profPeriodType, vt(timeIx, nanosIx))
	p.int64Field(profPeriod, period)
	if commentIx >= 0 {
		p.int64Field(profComment, commentIx)
	}
	return p.b
}

// WritePprof writes the gzipped pprof profile — the on-disk form
// `go tool pprof` expects.
func WritePprof(w io.Writer, a *analyze.Analysis, opts PprofOptions) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(MarshalPprof(a, opts)); err != nil {
		return err
	}
	return zw.Close()
}
