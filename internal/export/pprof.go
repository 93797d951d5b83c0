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
// analyze.ReconstructCapture or analyze.Stitch without DiscardTrace): the
// lean streaming path discards the invocation trees the stacks and
// duration events are built from.
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

// stackPath is one node of the call-path trie: a location called from its
// parent path. A path that ends at least one complete invocation is a
// sample; calls and ns accumulate its values.
type stackPath struct {
	parent int32 // index of the caller's path; -1 for a root frame
	loc    uint64
	calls  int64
	ns     int64
}

// pathKey packs a trie edge, a location under a parent path, into one map
// word: parent+1 in the high half (0 for a root frame), the location id
// (bounded by the function count) in the low half.
func pathKey(parent int32, loc uint64) uint64 {
	return uint64(parent+1)<<32 | loc
}

// pprofBuilder assigns deterministic ids while walking the invocation
// trees: functions and locations in first-encounter order (1:1, one
// synthetic location per function), samples in first-encounter stack
// order, strings in insertion order. Determinism is what makes the golden
// byte-for-byte tests possible.
type pprofBuilder struct {
	strings map[string]int64
	strtab  []string
	funcIDs map[string]uint64
	funcs   []string // name per id, in id order (id = index+1)
	paths   []stackPath
	pathIx  map[uint64]int32 // pathKey -> index in paths
	samples []int32          // sampled paths, in first-encounter order
}

func newPprofBuilder() *pprofBuilder {
	b := &pprofBuilder{
		strings: map[string]int64{"": 0},
		strtab:  []string{""},
		funcIDs: map[string]uint64{},
		pathIx:  map[uint64]int32{},
	}
	return b
}

func (b *pprofBuilder) str(s string) int64 {
	if ix, ok := b.strings[s]; ok {
		return ix
	}
	ix := int64(len(b.strtab))
	b.strings[s] = ix
	b.strtab = append(b.strtab, s)
	return ix
}

func (b *pprofBuilder) loc(name string) uint64 {
	if id, ok := b.funcIDs[name]; ok {
		return id
	}
	id := uint64(len(b.funcs) + 1)
	b.funcIDs[name] = id
	b.funcs = append(b.funcs, name)
	b.str(name)
	return id
}

// path returns the trie node for loc called from parent, adding it on
// first sight.
func (b *pprofBuilder) path(parent int32, loc uint64) int32 {
	k := pathKey(parent, loc)
	if p, ok := b.pathIx[k]; ok {
		return p
	}
	p := int32(len(b.paths))
	b.paths = append(b.paths, stackPath{parent: parent, loc: loc})
	b.pathIx[k] = p
	return p
}

// walk folds every complete invocation of the tree rooted at n, called
// from trie path parent, into the trie node of its own call path. The trie
// holds one node per distinct root-first stack, found by a one-word key,
// so folding an invocation allocates nothing. A path becomes a sample at
// its first complete invocation, which keeps the samples in
// first-encounter walk order. Incomplete frames (force-closed or still
// open) have unknowable self time and contribute no sample of their own,
// exactly as they are excluded from the summary's timed statistics — but
// their name still appears in the stacks of their complete descendants.
func (b *pprofBuilder) walk(parent int32, n *analyze.Node) {
	p := b.path(parent, b.loc(n.Name))
	if n.Complete {
		ns := int64(n.Net())
		if ns < 0 {
			ns = 0
		}
		sp := &b.paths[p]
		if sp.calls == 0 {
			b.samples = append(b.samples, p)
		}
		sp.calls++
		sp.ns += ns
	}
	for c := n.FirstChild(); c != nil; c = c.NextSibling() {
		b.walk(p, c)
	}
}

// MarshalPprof encodes the analysis as an uncompressed pprof protobuf
// profile. Sample values are [calls/count, time/nanoseconds]; each sample
// is one unique reconstructed call stack, its time the accumulated net
// (self) time of the invocations with that stack. `go tool pprof -top`
// therefore shows flat = the summary report's net column and cum = its
// elapsed column, except that invocations under a root frame that never
// exited (open at capture end, force-closed, or in a suspended context) are
// not in the profile. The output is deterministic byte for byte.
func MarshalPprof(a *analyze.Analysis, opts PprofOptions) []byte {
	period := opts.PeriodNS
	if period == 0 {
		period = 1000
	}
	b := newPprofBuilder()
	// Pre-intern the type/unit strings so the table layout is stable
	// regardless of function names.
	callsIx, countIx := b.str("calls"), b.str("count")
	timeIx, nanosIx := b.str("time"), b.str("nanoseconds")
	// Only roots that exited at depth 0 are walked: complete invocations
	// under a root still open at capture end, force-closed, or parked in a
	// suspended stack are counted by the summary but missing here.
	for _, it := range a.Items {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			b.walk(-1, it.Node)
		}
	}
	// A capture the hardened decoder had to repair carries its corruption
	// accounting as a profile comment (`go tool pprof` prints it under
	// "Comment:"). Interned before the string table is emitted; clean
	// captures intern nothing, so their bytes are unchanged.
	commentIx := int64(-1)
	if a.Stats.CorruptRecords > 0 {
		commentIx = b.str(fmt.Sprintf("decode: %d corrupt records, %d repaired timestamps, %d resyncs",
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
	for _, ix := range b.samples {
		locs = locs[:0]
		for q := ix; q >= 0; q = b.paths[q].parent {
			locs = append(locs, b.paths[q].loc)
		}
		smp := &b.paths[ix]
		var s protoBuf
		s.packedUint64(sampleLocationID, locs)
		s.packedInt64(sampleValue, []int64{smp.calls, smp.ns})
		p.bytesField(profSample, s.b)
	}
	for i := range b.funcs {
		id := uint64(i + 1)
		var line protoBuf
		line.uint64Field(lineFunctionID, id)
		var loc protoBuf
		loc.uint64Field(locID, id)
		loc.bytesField(locLine, line.b)
		p.bytesField(profLocation, loc.b)
	}
	for i, name := range b.funcs {
		nameIx := b.strings[name]
		var fn protoBuf
		fn.uint64Field(fnID, uint64(i+1))
		fn.int64Field(fnName, nameIx)
		fn.int64Field(fnSystemName, nameIx)
		p.bytesField(profFunction, fn.b)
	}
	for _, s := range b.strtab {
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
