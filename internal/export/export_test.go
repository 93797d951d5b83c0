package export

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

// netrecvAnalysis profiles the netrecv scenario at a fixed seed and
// returns the full reconstruction — the same capture the root package's
// golden exporter tests use.
func netrecvAnalysis(t *testing.T, seed uint64, d sim.Time) *analyze.Analysis {
	t.Helper()
	return scenarioAnalysis(t, "netrecv", seed, workload.Params{Duration: d}, core.ProfileConfig{})
}

// scenarioAnalysis profiles one registered scenario at seed under cfg.
func scenarioAnalysis(t *testing.T, name string, seed uint64, p workload.Params, cfg core.ProfileConfig) *analyze.Analysis {
	t.Helper()
	sc, ok := workload.FindScenario(name)
	if !ok {
		t.Fatalf("%s scenario not registered", name)
	}
	m := core.NewMachine(kernel.Config{Seed: seed})
	if sc.Setup != nil {
		if err := sc.Setup(m, p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.NewSession(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := sc.Run(m, p); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	return s.Analyze()
}

// ---- minimal pprof proto parser (test-only): just enough of the wire
// format to read back what MarshalPprof emits. ----

type protoReader struct {
	b []byte
	t *testing.T
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for i := 0; ; i++ {
		if len(r.b) == 0 {
			r.t.Fatal("truncated varint")
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << (7 * i)
		if c&0x80 == 0 {
			return v
		}
	}
}

// field returns the next (field number, varint value or bytes payload).
func (r *protoReader) field() (int, uint64, []byte) {
	key := r.varint()
	switch key & 7 {
	case 0:
		return int(key >> 3), r.varint(), nil
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.t.Fatalf("truncated bytes field of %d", n)
		}
		p := r.b[:n]
		r.b = r.b[n:]
		return int(key >> 3), 0, p
	default:
		r.t.Fatalf("unexpected wire type %d", key&7)
		return 0, 0, nil
	}
}

func (r *protoReader) packed(p []byte) []uint64 {
	sub := &protoReader{b: p, t: r.t}
	var out []uint64
	for len(sub.b) > 0 {
		out = append(out, sub.varint())
	}
	return out
}

type parsedProfile struct {
	strtab    []string
	fnName    map[uint64]string // function id -> name
	locFn     map[uint64]uint64 // location id -> function id
	samples   [][]uint64        // location ids, leaf first
	values    [][]int64
	duration  int64
	period    int64
	sampleTyp []string // "type/unit" per sample value slot
}

func parsePprof(t *testing.T, raw []byte) *parsedProfile {
	t.Helper()
	p := &parsedProfile{fnName: map[uint64]string{}, locFn: map[uint64]uint64{}}
	var fnIDs []uint64
	var fnNameIx []int64
	var types [][2]int64
	r := &protoReader{b: raw, t: t}
	for len(r.b) > 0 {
		f, v, p2 := r.field()
		switch f {
		case 1: // sample_type
			sub := &protoReader{b: p2, t: t}
			var typ, unit int64
			for len(sub.b) > 0 {
				sf, sv, _ := sub.field()
				switch sf {
				case 1:
					typ = int64(sv)
				case 2:
					unit = int64(sv)
				}
			}
			types = append(types, [2]int64{typ, unit})
		case 2: // sample
			sub := &protoReader{b: p2, t: t}
			var locs []uint64
			var vals []int64
			for len(sub.b) > 0 {
				sf, _, sp := sub.field()
				switch sf {
				case 1:
					locs = sub.packed(sp)
				case 2:
					for _, u := range sub.packed(sp) {
						vals = append(vals, int64(u))
					}
				}
			}
			p.samples = append(p.samples, locs)
			p.values = append(p.values, vals)
		case 4: // location
			sub := &protoReader{b: p2, t: t}
			var id, fnID uint64
			for len(sub.b) > 0 {
				sf, sv, sp := sub.field()
				switch sf {
				case 1:
					id = sv
				case 4: // line
					line := &protoReader{b: sp, t: t}
					for len(line.b) > 0 {
						lf, lv, _ := line.field()
						if lf == 1 {
							fnID = lv
						}
					}
				}
			}
			p.locFn[id] = fnID
		case 5: // function
			sub := &protoReader{b: p2, t: t}
			var id uint64
			var nameIx int64
			for len(sub.b) > 0 {
				sf, sv, _ := sub.field()
				switch sf {
				case 1:
					id = sv
				case 2:
					nameIx = int64(sv)
				}
			}
			fnIDs = append(fnIDs, id)
			fnNameIx = append(fnNameIx, nameIx)
		case 6: // string_table
			p.strtab = append(p.strtab, string(p2))
		case 10:
			p.duration = int64(v)
		case 12:
			p.period = int64(v)
		}
	}
	for i, id := range fnIDs {
		ix := fnNameIx[i]
		if ix < 0 || int(ix) >= len(p.strtab) {
			t.Fatalf("function %d name index %d out of range", id, ix)
		}
		p.fnName[id] = p.strtab[ix]
	}
	for _, ty := range types {
		p.sampleTyp = append(p.sampleTyp, p.strtab[ty[0]]+"/"+p.strtab[ty[1]])
	}
	return p
}

// flatCum folds the samples into per-function flat (leaf) and cumulative
// (anywhere in stack, counted once per sample) nanosecond totals.
func (p *parsedProfile) flatCum() (flat, cum map[string]int64) {
	flat = map[string]int64{}
	cum = map[string]int64{}
	for i, locs := range p.samples {
		ns := p.values[i][1]
		if len(locs) > 0 {
			flat[p.name(locs[0])] += ns
		}
		seen := map[string]bool{}
		for _, l := range locs {
			n := p.name(l)
			if !seen[n] {
				seen[n] = true
				cum[n] += ns
			}
		}
	}
	return flat, cum
}

func (p *parsedProfile) name(loc uint64) string { return p.fnName[p.locFn[loc]] }

// The profile parses back to exactly the summary report's accounting:
// flat = net, sample calls = timed calls, duration = elapsed.
func TestPprofMatchesSummary(t *testing.T) {
	a := netrecvAnalysis(t, 42, 60*sim.Millisecond)
	raw := MarshalPprof(a, PprofOptions{})
	p := parsePprof(t, raw)

	if got, want := strings.Join(p.sampleTyp, ","), "calls/count,time/nanoseconds"; got != want {
		t.Fatalf("sample types %q, want %q", got, want)
	}
	if p.strtab[0] != "" {
		t.Fatalf("string_table[0] = %q, want empty", p.strtab[0])
	}
	if p.duration != int64(a.Elapsed()) {
		t.Fatalf("duration_nanos = %d, want %d", p.duration, int64(a.Elapsed()))
	}
	if p.period != 1000 {
		t.Fatalf("period = %d, want 1000", p.period)
	}

	flat, _ := p.flatCum()
	calls := map[string]int64{}
	for i, locs := range p.samples {
		if len(locs) > 0 {
			calls[p.name(locs[0])] += p.values[i][0]
		}
	}
	for _, s := range a.Functions() {
		if s.CtxSwitch {
			continue
		}
		if got := flat[s.Name]; got != int64(s.Net) {
			t.Errorf("%s: flat %d ns, summary net %d ns", s.Name, got, int64(s.Net))
		}
		if got := calls[s.Name]; got != int64(s.TimedCalls) {
			t.Errorf("%s: %d sampled calls, summary timed calls %d", s.Name, got, s.TimedCalls)
		}
	}
	// The flat total is the summary's net total: everything the timed
	// (complete) frames ran. Frames still open at capture end occupy run
	// time but are untimed, so the profile can only undershoot run time.
	var total, net int64
	for _, v := range flat {
		total += v
	}
	for _, s := range a.Functions() {
		net += int64(s.Net)
	}
	if total != net {
		t.Fatalf("sum of flat = %d ns, summary net total %d ns", total, net)
	}
	if total > int64(a.RunTime()) {
		t.Fatalf("sum of flat = %d ns exceeds accumulated run time %d ns", total, int64(a.RunTime()))
	}
}

// The acceptance criterion: `go tool pprof -top` lists the same top-5
// functions as the paper-style net-time report for the golden netrecv
// seed. pprof sorts by flat, the report by net, and the exporter makes
// flat = net, so the order must agree exactly.
func TestPprofTopMatchesReport(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	a := netrecvAnalysis(t, 42, 60*sim.Millisecond)

	dir := t.TempDir()
	path := filepath.Join(dir, "netrecv.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePprof(f, a, PprofOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=5", path)
	cmd.Env = append(os.Environ(), "PPROF_NO_BROWSER=1", "HOME="+dir, "XDG_CONFIG_HOME="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}

	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		// Rows look like: "flat flat% sum% cum cum% name".
		if len(fields) == 6 && strings.HasSuffix(fields[1], "%") && strings.HasSuffix(fields[4], "%") {
			got = append(got, fields[5])
		}
	}
	var want []string
	for _, s := range a.Functions() {
		if s.CtxSwitch {
			continue
		}
		want = append(want, s.Name)
		if len(want) == 5 {
			break
		}
	}
	if len(got) != 5 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("pprof top-5 %v, report top-5 %v\nfull output:\n%s", got, want, out)
	}
}

// WritePprof output is a valid gzip stream wrapping MarshalPprof bytes.
func TestWritePprofGzips(t *testing.T) {
	a := netrecvAnalysis(t, 42, 5*sim.Millisecond)
	var buf bytes.Buffer
	if err := WritePprof(&buf, a, PprofOptions{}); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, MarshalPprof(a, PprofOptions{})) {
		t.Fatal("gzipped payload differs from MarshalPprof")
	}
}

// gzipNoCompression is what compress/gzip writes around payload at
// NoCompression: the reference storedGzip must reproduce.
func gzipNoCompression(t *testing.T, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw, err := gzip.NewWriterLevel(&b, gzip.NoCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// storedGzip writes compress/gzip's NoCompression bytes on both sides of
// every stored-block boundary: empty, one byte, one short of a block, one
// block, one past it, two blocks, three blocks and a tail. Each output
// reads back through gzip.NewReader, which checks the CRC-32 and length,
// and fills the buffer storedGzip sized for it.
func TestStoredGzipMatchesStdlib(t *testing.T) {
	const block = 65535
	for _, n := range []int{0, 1, block - 1, block, block + 1, 2 * block, 3*block + 7} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i ^ i>>8)
		}
		got := storedGzip(payload)
		if want := gzipNoCompression(t, payload); !bytes.Equal(got, want) {
			t.Errorf("%d-byte payload: storedGzip wrote %d bytes, compress/gzip %d; they differ", n, len(got), len(want))
			continue
		}
		if cap(got) != len(got) {
			t.Errorf("%d-byte payload: %d bytes in a buffer of %d", n, len(got), cap(got))
		}
		zr, err := gzip.NewReader(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%d-byte payload: %v", n, err)
		}
		back, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("%d-byte payload read back as %d bytes (%v)", n, len(back), err)
		}
	}
}

// MarshalPprof sizes its output exactly and encodes every message through
// two reused scratch buffers, so it allocates a small constant number of
// times however many samples the profile holds.
func TestMarshalPprofAllocs(t *testing.T) {
	const maxAllocs = 16
	for _, ms := range []int64{5, 400} {
		a := netrecvAnalysis(t, 42, sim.Time(ms)*sim.Millisecond)
		var b []byte
		allocs := testing.AllocsPerRun(5, func() { b = MarshalPprof(a, PprofOptions{}) })
		samples := len(a.Profile().Samples())
		if allocs > maxAllocs {
			t.Errorf("%d ms capture, %d samples: MarshalPprof allocates %.0f times, want <= %d", ms, samples, allocs, maxAllocs)
		}
		if cap(b) != len(b) {
			t.Errorf("%d ms capture: %d bytes in a buffer of %d, not sized exactly", ms, len(b), cap(b))
		}
		t.Logf("%d ms capture: %d samples, %d bytes, %.0f allocations", ms, samples, len(b), allocs)
	}
}

// ---- Chrome trace ----

// traceEvent mirrors the subset of trace_event fields the exporter emits.
type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int64                  `json:"tid"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	S    string                 `json:"s"`
	Args map[string]interface{} `json:"args"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

func decodeTrace(t *testing.T, a *analyze.Analysis) *traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, a); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return &tf
}

// Every reconstructed frame becomes one complete event; the counts and
// totals agree with the analysis. WriteChromeTrace's law holds on every
// scenario, one-shot and drained: per function, the X events not marked
// complete:false number its TimedCalls, and the drain and drain loss
// instants number the segments.
func TestChromeTraceEvents(t *testing.T) {
	type run struct {
		name string
		a    *analyze.Analysis
	}
	runs := []run{{"netrecv seed 42", netrecvAnalysis(t, 42, 20*sim.Millisecond)}}
	p := workload.Params{Duration: 500 * sim.Millisecond}
	for _, name := range []string{"netrecv-long", "proday", "mixed", "forkexec"} {
		runs = append(runs,
			run{name + " one-shot", scenarioAnalysis(t, name, 1, p, core.ProfileConfig{})},
			run{name + " drained", scenarioAnalysis(t, name, 1, p, core.ProfileConfig{Mode: core.CaptureContinuous})})
	}
	for _, r := range runs {
		a := r.a
		tf := decodeTrace(t, a)
		if tf.DisplayTimeUnit != "ms" {
			t.Fatalf("%s: displayTimeUnit %q", r.name, tf.DisplayTimeUnit)
		}
		enters, inlines := 0, 0
		for _, it := range a.Items() {
			switch it.Kind {
			case analyze.TraceEnter:
				enters++
			case analyze.TraceInline:
				inlines++
			}
		}
		durs, instants, metas, drains := 0, 0, 0, 0
		timed := map[string]int{}
		tids := map[int64]bool{}
		for _, ev := range tf.TraceEvents {
			switch ev.Ph {
			case "X":
				durs++
				tids[ev.Tid] = true
				if ev.Dur < 0 {
					t.Fatalf("%s: negative duration on %q", r.name, ev.Name)
				}
				if ev.Args["complete"] != false {
					timed[ev.Name]++
				}
			case "i":
				instants++
				if ev.Name == TraceEventDrain || ev.Name == TraceEventDrainLoss {
					drains++
				}
			case "M":
				metas++
			}
		}
		if durs != enters {
			t.Fatalf("%s: %d duration events, %d frames in the trace", r.name, durs, enters)
		}
		if instants != inlines+len(a.Segments) { // a clean capture has no decode-fault instant
			t.Fatalf("%s: %d instants, %d inline marks and %d segments", r.name, instants, inlines, len(a.Segments))
		}
		if drains != len(a.Segments) {
			t.Fatalf("%s: %d drain instants, %d segments", r.name, drains, len(a.Segments))
		}
		for _, f := range a.Functions() {
			if timed[f.Name] != f.TimedCalls {
				t.Errorf("%s: %s has %d complete X events, %d timed calls", r.name, f.Name, timed[f.Name], f.TimedCalls)
			}
			delete(timed, f.Name)
		}
		for name, n := range timed {
			t.Errorf("%s: %d complete X events for %s, which the summary lacks", r.name, n, name)
		}
		if metas == 0 {
			t.Fatalf("%s: no metadata events", r.name)
		}
		if a.Switches > 0 && len(tids) < 2 {
			t.Fatalf("%s: capture has %d context switches but all frames share %d tid(s)", r.name, a.Switches, len(tids))
		}
		t.Logf("%s: %d functions, %d X events, %d segments", r.name, len(a.Functions()), durs, len(a.Segments))
	}
}

// The acceptance criterion: a drain-mode run's trace contains exactly one
// global instant per segment boundary, lossy ones named "drain loss".
func TestChromeTraceDrainBoundaries(t *testing.T) {
	tags, err := tagfile.ParseString("a/500\nb/502\nc/504\n")
	if err != nil {
		t.Fatal(err)
	}
	capOf := func(pairs ...[2]uint32) hw.Capture {
		var c hw.Capture
		for _, p := range pairs {
			c.Records = append(c.Records, hw.Record{Tag: uint16(p[0]), Stamp: p[1] & hw.TimerMask})
		}
		return c
	}
	// Segment 1 ends lossy with a and b open; segment 2 is clean; segment 3
	// closes the capture.
	seg1 := capOf([2]uint32{500, 0}, [2]uint32{502, 10})
	seg1.Dropped = 3
	seg1.Overflowed = true
	seg2 := capOf([2]uint32{504, 100}, [2]uint32{505, 130})
	seg3 := capOf([2]uint32{504, 200}, [2]uint32{505, 230})
	a := analyze.Stitch([]hw.Capture{seg1, seg2, seg3}, tags, analyze.ReconstructOptions{})

	tf := decodeTrace(t, a)
	var clean, lossy int
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "i" || ev.S != "g" {
			continue
		}
		switch ev.Name {
		case TraceEventDrain:
			clean++
		case TraceEventDrainLoss:
			lossy++
			if got := ev.Args["dropped_strobes"].(float64); got != 3 {
				t.Fatalf("lossy boundary dropped_strobes = %v, want 3", got)
			}
			if got := ev.Args["force_closed_frames"].(float64); got != 2 {
				t.Fatalf("lossy boundary force_closed_frames = %v, want 2", got)
			}
		}
	}
	if lossy != 1 || clean != 2 {
		t.Fatalf("boundary instants: %d lossy, %d clean; want 1 lossy, 2 clean (one per segment)", lossy, clean)
	}
}

// ---- status server ----

func TestStatusServer(t *testing.T) {
	srv := NewStatusServer()
	srv.SetScenario("netrecv")
	srv.SetState("running")
	srv.OnSessionProgress(core.Progress{
		NowUS:  12000,
		Armed:  true,
		Mode:   core.CaptureContinuous,
		Stored: 512, Depth: 1024, FillPct: 50,
		Segments: 3, SegmentRecords: 3000, Dropped: 7,
	})
	srv.OnSweepProgress(sweep.Progress{
		Scenario: "netrecv", Seeds: 8, Started: 3, Done: 2,
		Seed: 11, Finished: true, Segments: 5, Dropped: 2,
	})

	req := func(path string) (string, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String(), rec.Header().Get("Content-Type")
	}
	body, ctype := req("/status.json")
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Scenario != "netrecv" || snap.State != "running" {
		t.Fatalf("snapshot header %+v", snap)
	}
	if snap.Session == nil || !snap.Session.Armed || snap.Session.Mode != core.CaptureContinuous {
		t.Fatalf("session status %+v", snap.Session)
	}
	if snap.Session.FillPct != 50 || snap.Session.Dropped != 7 {
		t.Fatalf("session fill/drops %+v", snap.Session)
	}
	if snap.Sweep == nil || snap.Sweep.Done != 2 || snap.Sweep.Seeds != 8 {
		t.Fatalf("sweep status %+v", snap.Sweep)
	}

	html, ctype := req("/")
	if !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("content type %q", ctype)
	}
	for _, want := range []string{"netrecv", "512 / 1024 (50.0%)", "dropped strobes", "2 / 8"} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML view missing %q:\n%s", want, html)
		}
	}
}

// A continuous-capture session drives the progress hook through arm,
// drain polls and disarm, and the status server ends up with the true
// totals.
func TestStatusServerLiveSession(t *testing.T) {
	sc, ok := workload.FindScenario("netrecv")
	if !ok {
		t.Fatal("netrecv scenario not registered")
	}
	srv := NewStatusServer()
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:  core.CaptureContinuous,
		Depth: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.SetProgress(func(p core.Progress) {
		fired++
		srv.OnSessionProgress(p)
	})
	s.Arm()
	if _, err := sc.Run(m, workload.Params{Duration: 100 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	if fired < 3 {
		t.Fatalf("progress hook fired %d times, want arm + polls + disarm", fired)
	}
	st := srv.Snapshot().Session
	if st == nil || st.Armed {
		t.Fatalf("final session status %+v", st)
	}
	if st.Segments != len(s.Segments()) {
		t.Fatalf("status saw %d segments, session has %d", st.Segments, len(s.Segments()))
	}
	want := 0
	for _, seg := range s.Segments() {
		want += seg.Capture.Len()
	}
	if st.SegmentRecords != want {
		t.Fatalf("status saw %d drained records, segments hold %d", st.SegmentRecords, want)
	}
}

// Timeseries returns the current time-series document (what
// /timeseries.json serves).
func (s *StatusServer) Timeseries() Timeseries {
	return s.ts.Load().document()
}
