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
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// MarshalPprof encodes the analysis's call-path profile as an uncompressed
// pprof protobuf profile. Sample values are [calls/count,
// time/nanoseconds]; each sample is one unique reconstructed call stack,
// its time the accumulated net (self) time of the invocations with that
// stack. Functions, locations and samples keep the profile's
// first-encounter order, one location per function. `go tool pprof -top`
// therefore shows flat = the summary report's net column and cum = its
// elapsed column, except that invocations under a root frame that never
// exited (open at capture end, force-closed, or in a suspended context) are
// not in the profile. The output is deterministic byte for byte. It is
// sized exactly before encoding, and every message goes through two
// reused scratch buffers, so the allocations do not grow with the profile.
// WritePprof stores it, uncompressed, in the gzip container of a file.
func MarshalPprof(a *analyze.Analysis, opts PprofOptions) []byte {
	period := cmp.Or(opts.PeriodNS, 1000)
	prof := a.Profile()
	funcs, paths, samples := prof.Funcs(), prof.Paths(), prof.Samples()
	// The string table in insertion order, the type/unit strings first so
	// the table layout is stable regardless of function names.
	strIx, strs := make(map[string]int64, len(funcs)+6), make([]string, 0, len(funcs)+6)
	str := func(s string) int64 {
		if _, ok := strIx[s]; !ok {
			strIx[s], strs = int64(len(strs)), append(strs, s)
		}
		return strIx[s]
	}
	str("")
	callsIx, countIx, timeIx, nanosIx := str("calls"), str("count"), str("time"), str("nanoseconds")
	for _, name := range funcs {
		str(name)
	}
	// A capture the hardened decoder had to repair carries its corruption
	// accounting as a profile comment (`go tool pprof` prints it under
	// "Comment:"). Interned before the string table is emitted; clean
	// captures intern nothing and leave the index 0, which the encoding
	// omits, so their bytes are unchanged.
	var commentIx int64
	if a.Stats.CorruptRecords > 0 {
		commentIx = str(fmt.Sprintf("decode: %d corrupt records, %d repaired timestamps, %d resyncs",
			a.Stats.CorruptRecords, a.Stats.RepairedTimestamps, a.Stats.Resyncs))
	}

	// The output's exact size, so that it is allocated once.
	size := bytesLen(intLen(callsIx)+intLen(countIx)) + 2*bytesLen(intLen(timeIx)+intLen(nanosIx)) +
		intLen(int64(a.Elapsed())) + intLen(period) + intLen(commentIx)
	for _, ix := range samples {
		locs := 0
		for q := ix; q >= 0; q = paths[q].Parent {
			locs += varintLen(uint64(paths[q].Fn))
		}
		vals := varintLen(uint64(paths[ix].Calls)) + varintLen(uint64(paths[ix].NS))
		size += bytesLen(bytesLen(locs) + bytesLen(vals))
	}
	for i, name := range funcs {
		id := intLen(int64(i + 1))
		size += bytesLen(id+bytesLen(id)) + bytesLen(id+2*intLen(strIx[name])) // location, function
	}
	for _, s := range strs {
		size += bytesLen(len(s))
	}

	// Each message goes through msg (its packed fields through packed) to p.
	p := protoBuf{b: make([]byte, 0, size)}
	var msg, packed protoBuf
	vt := func(typ, unit int64) []byte {
		msg.b = msg.b[:0]
		msg.int64Field(vtType, typ)
		msg.int64Field(vtUnit, unit)
		return msg.b
	}
	p.bytesField(profSampleType, vt(callsIx, countIx))
	p.bytesField(profSampleType, vt(timeIx, nanosIx))
	for _, ix := range samples {
		packed.b = packed.b[:0]
		for q := ix; q >= 0; q = paths[q].Parent { // leaf first
			packed.varint(uint64(paths[q].Fn))
		}
		msg.b = msg.b[:0]
		msg.bytesField(sampleLocationID, packed.b)
		packed.b = packed.b[:0]
		packed.varint(uint64(paths[ix].Calls))
		packed.varint(uint64(paths[ix].NS))
		msg.bytesField(sampleValue, packed.b)
		p.bytesField(profSample, msg.b)
	}
	for i := range funcs {
		packed.b = packed.b[:0]
		packed.int64Field(lineFunctionID, int64(i+1))
		msg.b = msg.b[:0]
		msg.int64Field(locID, int64(i+1))
		msg.bytesField(locLine, packed.b)
		p.bytesField(profLocation, msg.b)
	}
	for i, name := range funcs {
		msg.b = msg.b[:0]
		msg.int64Field(fnID, int64(i+1))
		msg.int64Field(fnName, strIx[name])
		msg.int64Field(fnSystemName, strIx[name])
		p.bytesField(profFunction, msg.b)
	}
	for _, s := range strs {
		msg.b = append(msg.b[:0], s...)
		p.bytesField(profStringTable, msg.b)
	}
	// time_nanos stays zero, so it is left out: the capture's timeline is
	// virtual, and a wall timestamp would break byte-identical output.
	p.int64Field(profDurationNanos, int64(a.Elapsed()))
	p.bytesField(profPeriodType, vt(timeIx, nanosIx))
	p.int64Field(profPeriod, period)
	p.int64Field(profComment, commentIx)
	return p.b
}

// WritePprof writes the pprof profile in the gzip container `go tool
// pprof` expects, stored, not compressed: exactly the bytes
// gzip.NewWriterLevel(w, gzip.NoCompression) writes over MarshalPprof's
// payload, in one Write. compress/flate sets up about 650 KB of state at
// every level, and level 6 took over four times as long as the encoding
// to shrink an 8–38 KB payload (EXPERIMENTS.md, E35). The file is the
// payload plus 28 bytes: 8.3 KB for a 4 s netrecv-long capture (3.6 KB
// at level 6), 38 KB for a 2 s proday capture (13.4 KB).
func WritePprof(w io.Writer, a *analyze.Analysis, opts PprofOptions) error {
	_, err := w.Write(storedGzip(MarshalPprof(a, opts)))
	return err
}

// storedGzip wraps payload in a gzip stream (RFC 1952) of stored deflate
// blocks (RFC 1951): a 10-byte header with no name and no modification
// time, non-final blocks of at most 65 535 bytes, an empty final block,
// then the payload's CRC-32 and length.
func storedGzip(payload []byte) []byte {
	const maxBlock = 1<<16 - 1
	n := len(payload)
	b := make([]byte, 0, 10+n+5*((n+maxBlock-1)/maxBlock+1)+8)
	b = append(b, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff)
	for i := 0; i < n; i += maxBlock {
		k := min(n-i, maxBlock)
		b = append(b, 0, byte(k), byte(k>>8), ^byte(k), ^byte(k>>8))
		b = append(b, payload[i:i+k]...)
	}
	b = append(b, 1, 0, 0, 0xff, 0xff)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}
