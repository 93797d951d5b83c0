// The serving-tier concurrency battery: SSE fan-out under 100-client
// churn against a live capture, /timeseries.json byte-identity
// regardless of who is watching, live profile endpoints matching the
// offline writers byte for byte, and a multi-client hammer over every
// endpoint at once.
package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/fleet"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// errShortStream marks a stream that ended (eviction, server shutdown)
// before the reader's quota — a protocol-clean outcome some tests
// tolerate and the churn test treats as fatal.
var errShortStream = errors.New("stream ended early")

// sseRead consumes one /events stream: it requires the snapshot event
// first, then reads `quota` hub events checking the SSE ids are strictly
// increasing, and disconnects. A stream that ends cleanly before the
// quota returns an error wrapping errShortStream.
func sseRead(url string, quota int) error {
	resp, err := http.Get(url + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("/events content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sawSnapshot := false
	lastID := int64(-1)
	got := 0
	for got < quota && sc.Scan() {
		line := sc.Text()
		if !sawSnapshot && strings.HasPrefix(line, "event: ") {
			if line != "event: snapshot" {
				return fmt.Errorf("first event %q, want the snapshot", line)
			}
			sawSnapshot = true
			continue
		}
		if strings.HasPrefix(line, "id: ") {
			id, err := strconv.ParseInt(line[len("id: "):], 10, 64)
			if err != nil {
				return fmt.Errorf("bad SSE id line %q: %v", line, err)
			}
			if id <= lastID {
				return fmt.Errorf("SSE ids not strictly increasing: %d after %d", id, lastID)
			}
			lastID = id
			got++
		}
	}
	if !sawSnapshot {
		return fmt.Errorf("%w without a snapshot event (read %d events): %v", errShortStream, got, sc.Err())
	}
	if got < quota {
		return fmt.Errorf("%w after %d/%d events: %v", errShortStream, got, quota, sc.Err())
	}
	return nil
}

// The headline churn test: a live capture publishing progress while two
// waves of 50 SSE clients connect, read differing numbers of events and
// disconnect mid-capture. The capture loop must never stall (it finishes
// promptly after stop, with a clean drain), no prompt reader may be
// evicted, and the subscriber set must drain back to zero once the
// clients are gone.
func TestSSEFanoutChurn(t *testing.T) {
	srv := NewStatusServer()
	srv.SetEventBuffer(8192) // prompt readers must never trip eviction
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var stop atomic.Bool
	var cycles atomic.Int64
	capErr := make(chan error, 1)
	go func() {
		// One short capture per cycle on a fresh machine — the shape of a
		// periodic profiling job, and every NetReceive needs its own
		// netstack.
		for seed := uint64(7); !stop.Load(); seed++ {
			m := core.NewMachine(kernel.Config{Seed: seed})
			s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 1024})
			if err != nil {
				capErr <- err
				return
			}
			s.SetProgress(srv.OnSessionProgress)
			s.Arm()
			if _, err := workload.NetReceive(m, 2*sim.Millisecond); err != nil {
				capErr <- err
				return
			}
			s.Disarm()
			if err := s.DrainErr(); err != nil {
				capErr <- err
				return
			}
			cycles.Add(1)
			time.Sleep(time.Millisecond) // throttle so subscribers keep pace
		}
		capErr <- nil
	}()

	const wave = 50
	errs := make(chan error, 2*wave)
	for _, n := range []int{wave, wave} { // second wave reconnects mid-capture
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := sseRead(hs.URL, 1+i%13); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
	}

	stop.Store(true)
	select {
	case err := <-capErr:
		if err != nil {
			t.Fatalf("capture loop: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("capture loop stalled: did not finish after stop")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cycles.Load() == 0 {
		t.Fatal("capture loop never completed a cycle")
	}
	if st := srv.HubStats(); st.SlowDropped != 0 || st.Published == 0 {
		t.Fatalf("hub stats %+v: prompt readers must not be evicted, events must flow", st)
	}
	// Handlers notice the disconnects and unsubscribe.
	deadline := time.Now().Add(10 * time.Second)
	for srv.HubStats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still registered after all clients left", srv.HubStats().Subscribers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("churn: %d capture cycles, %d events fanned out", cycles.Load(), srv.HubStats().Published)
}

// fleetTimeseries runs a seeded fleet with the serving hooks attached
// and `subs` SSE clients watching, and returns the final
// /timeseries.json bytes.
func fleetTimeseries(t *testing.T, machines []fleet.MachineConfig, staging, subs int) []byte {
	t.Helper()
	srv := NewStatusServer()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for i := 0; i < subs; i++ {
		resp, err := http.Get(hs.URL + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		go io.Copy(io.Discard, resp.Body)
	}
	if _, err := fleet.Run(fleet.Config{
		Machines:   machines,
		Window:     20 * sim.Millisecond,
		Staging:    staging,
		OnProgress: srv.OnFleetProgress,
		OnWindow:   srv.OnFleetWindow,
	}); err != nil {
		t.Fatal(err)
	}
	return statusGet(t, srv, "/timeseries.json").Body.Bytes()
}

// The determinism contract, strong form: with a single machine and a
// staging bound of one, appends and commits strictly alternate, so the
// whole document — load series included — is byte-identical however many
// subscribers are watching (ring.go states the contract).
func TestTimeseriesDeterministicAcrossSubscribers(t *testing.T) {
	one := []fleet.MachineConfig{
		{ID: 0, Seed: 777, Scenario: "netrecv", Params: workload.Params{Duration: 60 * sim.Millisecond}, Depth: 512},
	}
	base := fleetTimeseries(t, one, 1, 0)
	if !bytes.Contains(base, []byte(`"seq"`)) {
		t.Fatalf("fixture fleet produced an empty timeseries:\n%s", base)
	}
	for _, subs := range []int{3, 25} {
		if got := fleetTimeseries(t, one, 1, subs); !bytes.Equal(got, base) {
			t.Errorf("timeseries bytes differ with %d subscribers:\n%s\nwant:\n%s", subs, got, base)
		}
	}
}

// The determinism contract, general form: window close order is fixed
// for any fleet (a PR-8 guarantee), so the windows ring is identical for
// any staging bound and subscriber load, even when the load series
// interleaving varies.
func TestTimeseriesWindowsDeterministicMultiMachine(t *testing.T) {
	machines := []fleet.MachineConfig{
		{ID: 0, Seed: 2001, Scenario: "netrecv", Params: workload.Params{Duration: 80 * sim.Millisecond}, Depth: 512},
		{ID: 1, Seed: 2002, Scenario: "netrecv", Params: workload.Params{Duration: 80 * sim.Millisecond}, Depth: 512, ClockHz: 2_000_000},
		{ID: 2, Seed: 2003, Scenario: "mixed", Params: workload.Params{Duration: 80 * sim.Millisecond}, Depth: 1024},
	}
	windowsOf := func(raw []byte) string {
		var doc Timeseries
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, w := range doc.Windows {
			fmt.Fprintf(&b, "%d %d %d %d %d %s %.3f\n", w.Seq, w.Index, w.Records, w.Segments, w.Dropped, w.TopFn, w.TopFnPct)
		}
		if b.Len() == 0 {
			t.Fatal("fleet closed no windows")
		}
		return b.String()
	}
	base := windowsOf(fleetTimeseries(t, machines, 0, 0))
	if got := windowsOf(fleetTimeseries(t, machines, 2, 8)); got != base {
		t.Errorf("windows ring differs with staging 2 and 8 subscribers:\n%s\nwant:\n%s", got, base)
	}
}

// The live profile endpoints are the offline writers, served: /pprof
// bytes are exactly MarshalPprof of the published analysis and
// /trace.json exactly WriteChromeTrace — both 404 until a publish.
func TestLiveProfileEndpointsMatchWriters(t *testing.T) {
	srv := NewStatusServer()
	for _, path := range []string{"/pprof", "/trace.json"} {
		if rec := statusGet(t, srv, path); rec.Code != 404 {
			t.Fatalf("GET %s before publish = %d, want 404", path, rec.Code)
		}
	}

	a := netrecvAnalysis(t, 42, 60*sim.Millisecond)
	srv.PublishAnalysis(a)

	rec := statusGet(t, srv, "/pprof")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("GET /pprof = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if want := MarshalPprof(a, PprofOptions{}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/pprof served %d bytes, MarshalPprof produced %d — not identical", rec.Body.Len(), len(want))
	}

	rec = statusGet(t, srv, "/trace.json")
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /trace.json = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var want bytes.Buffer
	if err := WriteChromeTrace(&want, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("/trace.json served %d bytes, WriteChromeTrace wrote %d — not identical", rec.Body.Len(), want.Len())
	}
}

// A full analysis builds its trace on first use, exactly once, whoever
// asks first: one published Session.Analyze result, read at once from 8
// goroutines — /trace.json and /pprof over HTTP, Items and CallGraph in
// process, each goroutine starting at a different one — gives every
// caller the same bodies and the same trace slice. The -race leg of
// scripts/check.sh runs this.
func TestLazyTraceBuiltOnce(t *testing.T) {
	srv := NewStatusServer()
	a := netrecvAnalysis(t, 42, 20*sim.Millisecond)
	srv.PublishAnalysis(a)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	type reads struct {
		trace, pprof []byte
		first        *analyze.TraceItem
		graph        string
		err          error
	}
	get := func(path string) ([]byte, error) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	const clients = 8
	got := make([]reads, clients)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func(i int, r *reads) {
			defer wg.Done()
			start.Wait()
			ops := []func() error{
				func() (err error) { r.trace, err = get("/trace.json"); return err },
				func() (err error) { r.pprof, err = get("/pprof"); return err },
				func() error {
					if items := a.Items(); len(items) > 0 {
						r.first = &items[0]
					}
					return nil
				},
				func() error { r.graph = a.CallGraph().String(); return nil },
			}
			for k := range ops {
				if err := ops[(i+k)%len(ops)](); err != nil {
					r.err = err
					return
				}
			}
		}(i, &got[i])
	}
	start.Done()
	wg.Wait()

	var trace bytes.Buffer
	if err := WriteChromeTrace(&trace, a); err != nil {
		t.Fatal(err)
	}
	want := reads{
		trace: trace.Bytes(),
		pprof: MarshalPprof(a, PprofOptions{}),
		first: &a.Items()[0],
		graph: a.CallGraph().String(),
	}
	for i, r := range got {
		switch {
		case r.err != nil:
			t.Errorf("client %d: %v", i, r.err)
		case !bytes.Equal(r.trace, want.trace):
			t.Errorf("client %d: /trace.json served %d bytes, WriteChromeTrace wrote %d", i, len(r.trace), len(want.trace))
		case !bytes.Equal(r.pprof, want.pprof):
			t.Errorf("client %d: /pprof served %d bytes, MarshalPprof %d", i, len(r.pprof), len(want.pprof))
		case r.first != want.first:
			t.Errorf("client %d: Items returned a different trace", i)
		case r.graph != want.graph:
			t.Errorf("client %d: call graph differs", i)
		}
	}
}

// The multi-client race audit: a live session and a stream of fleet
// hooks mutate the server while clients hammer every endpoint —
// conditional status polls, timeseries reads, the HTML page, profile
// fetches and SSE streams, plus publish/re-publish of the analysis.
// The -race leg of scripts/check.sh runs this; any unsynchronized
// access in the serving tier trips it.
func TestServingMultiClientLiveSession(t *testing.T) {
	srv := NewStatusServer()
	srv.SetEventBuffer(4096)
	srv.PublishAnalysis(netrecvAnalysis(t, 42, 20*sim.Millisecond))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Live sessions feeding OnSessionProgress, one short capture per
	// cycle (NetReceive needs a fresh netstack each time).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := uint64(11); !stop.Load(); seed++ {
			m := core.NewMachine(kernel.Config{Seed: seed})
			s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 512})
			if err != nil {
				errs <- err
				return
			}
			s.SetProgress(srv.OnSessionProgress)
			s.Arm()
			if _, err := workload.NetReceive(m, sim.Millisecond); err != nil {
				errs <- err
				return
			}
			s.Disarm()
			if err := s.DrainErr(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Fleet hooks firing from a second producer, as in a fleet run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			srv.OnFleetProgress(fleet.Progress{SegmentsStaged: i + 1, SegmentsCommitted: i, Backlog: 1})
			srv.OnFleetWindow(windowAt(i))
			time.Sleep(time.Millisecond)
		}
	}()

	// Re-publishing the analysis races the profile endpoints.
	a2 := netrecvAnalysis(t, 43, 20*sim.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			srv.PublishAnalysis(a2)
			time.Sleep(time.Millisecond)
		}
	}()

	// Clients: conditional status polls plus reads of every other endpoint.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for !stop.Load() {
				rec := condGet(t, srv, "/status.json", etag)
				if rec.Code == 200 {
					etag = rec.Header().Get("ETag")
				}
				for _, path := range []string{"/timeseries.json", "/", "/pprof", "/trace.json"} {
					if rec := statusGet(t, srv, path); rec.Code != 200 {
						errs <- fmt.Errorf("GET %s = %d mid-run", path, rec.Code)
						return
					}
				}
			}
		}()
	}

	// Two SSE clients churning against the live feed. A short stream
	// (eviction under load) is a legitimate outcome here; protocol
	// violations are not.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := sseRead(hs.URL, 5); err != nil && !errors.Is(err, errShortStream) {
					errs <- err
					return
				}
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	// An SSE reader that connected just before stop is still waiting for
	// its event quota; keep a wind-down publisher running until everyone
	// has drained so nobody waits on a silent hub.
	done := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				srv.OnSessionProgress(progressAt(1_000_000 + i))
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
