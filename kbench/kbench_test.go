package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, ok := percentile(xs, 99)
	if !ok || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (%d beyond, ok %v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[:999], 99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples reported with %d beyond; want withheld at 9", beyond)
	}
	if v, beyond, ok := percentile(xs[:20], 50); !ok || v != 10 || beyond != 10 {
		t.Fatalf("p50 of 1..20 = %v (%d beyond, ok %v), want 10 with 10 beyond", v, beyond, ok)
	}
	if _, _, ok := percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples has only 9 beyond it but was reported")
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPerRecord(t *testing.T) {
	if got := perRecord(3*time.Millisecond, 4000); got != 750 {
		t.Fatalf("3 ms over 4000 records = %v ns/record, want 750", got)
	}
	if got := perRecord(time.Second, 0); got != 0 {
		t.Fatalf("no records gave %v ns/record, want 0", got)
	}
	// Seeds that capture different record counts at the same per-record
	// cost compare equal.
	if a, b := perRecord(120*time.Millisecond, 160000), perRecord(135*time.Millisecond, 180000); a != b {
		t.Fatalf("equal per-record costs read %v and %v", a, b)
	}
}

func TestAtReference(t *testing.T) {
	// A repeat that ran while the calibration took twice the reference
	// time ran on a host half as fast: its times halve.
	if got := atReference(300*time.Millisecond, 2*calibReference); got != 150*time.Millisecond {
		t.Fatalf("300 ms on a half-speed host = %v at reference speed, want 150ms", got)
	}
	if got := atReference(300*time.Millisecond, calibReference); got != 300*time.Millisecond {
		t.Fatalf("300 ms at reference speed reads %v", got)
	}
	if got := atReference(300*time.Millisecond, 0); got != 300*time.Millisecond {
		t.Fatalf("no calibration changed 300 ms to %v", got)
	}
}

func TestOutputCheckCatchesOneByte(t *testing.T) {
	summary := []byte("Elapsed time = 4 sec 3 us (168254 tags)\n")
	pprof := []byte{0x1f, 0x8b, 0x08, 0x00, 0x01, 0x02}
	var c outputCheck
	if err := c.observe(digests(map[string][]byte{"summary": summary, "pprof": pprof})); err != nil {
		t.Fatal(err)
	}
	same := map[string][]byte{"summary": append([]byte(nil), summary...), "pprof": append([]byte(nil), pprof...)}
	if err := c.observe(digests(same)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	for i := range pprof {
		bad := append([]byte(nil), pprof...)
		bad[i] ^= 0x01
		if err := c.observe(digests(map[string][]byte{"summary": summary, "pprof": bad})); err == nil {
			t.Fatalf("flipping one bit of pprof byte %d went unnoticed", i)
		}
	}
	if err := c.observe(digests(map[string][]byte{"summary": summary})); err == nil {
		t.Fatal("a repeat missing an output went unnoticed")
	}
}

// TestOpenLoopCountsFromSchedule stalls the server once: the requests due
// during the stall wait behind it, and their latency, counted from when
// they were due, carries the wait even though the server answers them
// at once.
func TestOpenLoopCountsFromSchedule(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Header().Set("ETag", `"st-1"`)
		if r.Header.Get("If-None-Match") == `"st-1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	o := &openLoop{client: client, url: srv.URL, period: 10 * time.Millisecond, conns: 1}

	stop := make(chan struct{})
	done := make(chan []statusSample)
	go func() { done <- o.run(stop) }()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	samples := <-done

	if len(samples) < 10 {
		t.Fatalf("only %d requests in 500 ms at 100/s", len(samples))
	}
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	// Request 2 (the third) stalls; request 3 was due 10 ms later and
	// waited for it, so its latency holds most of the stall.
	if got := samples[2].latency; got < stall {
		t.Errorf("stalled request latency %v, want at least %v", got, stall)
	}
	if got := samples[3].latency; got < stall-20*time.Millisecond {
		t.Errorf("request queued behind the stall reports %v, want about %v", got, stall-10*time.Millisecond)
	}
	if got := samples[3].late; got < stall-20*time.Millisecond {
		t.Errorf("request queued behind the stall was sent %v late, want about %v", got, stall-10*time.Millisecond)
	}
	// Well after the stall the loop has caught up again.
	if last := samples[len(samples)-1]; last.latency > stall/2 {
		t.Errorf("last request still %v behind schedule", last.latency)
	}
}

// TestSpecsMatchBenchmarkJSON holds the workloads and metric lists this
// program prints to the ones BENCHMARK.json declares.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, kbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, kbench %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, kbench %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, kbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndSpecs)
	compare("per_layer", doc.PerLayer, perLayerSpecs)
}
