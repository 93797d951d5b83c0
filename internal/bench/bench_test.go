package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunQuick exercises the whole suite in its quick configuration: every
// hot path present, sane figures, and the JSON artifact round-trips.
func TestRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite in -short mode")
	}
	rep, err := Run(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, Schema)
	}
	want := []string{"decode/steady", "decode/full", "decode/drained", "capture/drain", "capture/analyze", "sweep/multiseed", "scenario/proday", "fleet/ingest",
		"pgo/plan", "serve/status_cached", "serve/status_uncached", "serve/sse_fanout", "export/pprof"}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for _, name := range want {
		b, ok := rep.Find(name)
		if !ok {
			t.Fatalf("missing benchmark %q", name)
		}
		if b.Records <= 0 || b.Iters <= 0 {
			t.Errorf("%s: empty measurement: %+v", name, b)
		}
		if b.NsPerRecord <= 0 || b.RecordsPerSec <= 0 {
			t.Errorf("%s: non-positive timing: %+v", name, b)
		}
		if b.AllocsPerRecord < 0 {
			t.Errorf("%s: negative allocs: %+v", name, b)
		}
		t.Logf("%-16s %8d records  %9.1f ns/rec  %12.0f rec/s  %7.3f allocs/rec  %8.1f B/rec",
			b.Name, b.Records, b.NsPerRecord, b.RecordsPerSec, b.AllocsPerRecord, b.BytesPerRecord)
	}

	// The decode benchmarks chew a full card RAM.
	if b, _ := rep.Find("decode/steady"); b.Records != 16384 {
		t.Errorf("decode/steady records = %d, want 16384", b.Records)
	}

	// Round-trip through the JSON artifact.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(rep.Benchmarks) {
		t.Fatalf("round-trip lost benchmarks: %d != %d", len(back.Benchmarks), len(rep.Benchmarks))
	}
	if regs := Compare(rep, back, 0); len(regs) != 0 {
		t.Fatalf("report does not compare clean against itself: %v", regs)
	}
}

// TestCompare drives the regression gate over synthetic reports.
func TestCompare(t *testing.T) {
	old := &Report{Schema: Schema, Benchmarks: []Result{
		{Name: "decode/steady", NsPerRecord: 100, AllocsPerRecord: 0},
		{Name: "decode/full", NsPerRecord: 200, AllocsPerRecord: 1.0},
		{Name: "gone", NsPerRecord: 50},
	}}
	fresh := &Report{Schema: Schema, Benchmarks: []Result{
		{Name: "decode/steady", NsPerRecord: 110, AllocsPerRecord: 0.01}, // within 15% + epsilon
		{Name: "decode/full", NsPerRecord: 200, AllocsPerRecord: 1.0},
		{Name: "new-path", NsPerRecord: 999},
	}}
	if regs := Compare(old, fresh, 0); len(regs) != 0 {
		t.Fatalf("clean comparison flagged: %v", regs)
	}

	fresh.Benchmarks[0].NsPerRecord = 120 // +20%
	fresh.Benchmarks[1].AllocsPerRecord = 1.3
	regs := Compare(old, fresh, 0)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	// Worst first: allocs +30% sorts above ns +20%.
	if regs[0].Name != "decode/full" || regs[0].Metric != "allocs_per_record" {
		t.Errorf("worst regression = %+v", regs[0])
	}
	if regs[1].Name != "decode/steady" || regs[1].Metric != "ns_per_record" {
		t.Errorf("second regression = %+v", regs[1])
	}

	// A path that was allocation-free must stay that way regardless of the
	// relative tolerance (0 * anything is 0).
	fresh.Benchmarks[0].NsPerRecord = 100
	fresh.Benchmarks[1].AllocsPerRecord = 1.0
	fresh.Benchmarks[0].AllocsPerRecord = 0.5
	regs = Compare(old, fresh, 0)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_record" || regs[0].Name != "decode/steady" {
		t.Fatalf("alloc-free regression not caught: %v", regs)
	}

	// A WallNoisy benchmark gets the widened wall-clock tolerance (3× the
	// gate) but no slack at all on its exact allocation figures.
	old.Benchmarks = append(old.Benchmarks,
		Result{Name: "sweep/multiseed", NsPerRecord: 100, AllocsPerRecord: 0.4, WallNoisy: true})
	fresh.Benchmarks[0] = Result{Name: "decode/steady", NsPerRecord: 100, AllocsPerRecord: 0}
	fresh.Benchmarks = append(fresh.Benchmarks,
		Result{Name: "sweep/multiseed", NsPerRecord: 140, AllocsPerRecord: 0.4, WallNoisy: true})
	if regs := Compare(old, fresh, 0); len(regs) != 0 {
		t.Fatalf("wall-noisy +40%% inside widened tolerance flagged: %v", regs)
	}
	fresh.Benchmarks[len(fresh.Benchmarks)-1].NsPerRecord = 150 // past 3×15%
	fresh.Benchmarks[len(fresh.Benchmarks)-1].AllocsPerRecord = 0.6
	regs = Compare(old, fresh, 0)
	if len(regs) != 2 {
		t.Fatalf("wall-noisy gross regression not caught on both metrics: %v", regs)
	}

	// Schema mismatch on read.
	path := filepath.Join(t.TempDir(), "bad.json")
	raw, _ := json.Marshal(map[string]any{"schema": "other/1"})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}
