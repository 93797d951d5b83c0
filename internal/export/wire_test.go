// The serving tier's wire format, pinned byte for byte. Real producers
// drive the hooks wherever a short run reaches the state (a faulted
// continuous netrecv session, a one-worker sweep, a one-machine fleet at
// staging bound 1), and synthetic calls cover the two states no short
// run reaches (one-shot mode with drain errors, a window with no top
// function). After each phase the test records what a client sees: the
// /status.json, / and /timeseries.json bodies, the /events snapshot
// payload, and every hub event's name and data. ETags are opaque and are
// not recorded.
//
// Regenerate after an intentional wire change with:
//
//	go test ./internal/export/ -run TestServingWireGolden -update
package export

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/fleet"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// wireLog accumulates the golden transcript, one section per phase.
type wireLog struct {
	srv *StatusServer
	sub *Subscription
	b   strings.Builder
}

// phase records the served bodies and the events published since the
// last phase. byName groups the events by name, each name in its own
// publish order: a fleet run's window and load events come from
// different goroutines, so only each name's own sequence is
// deterministic.
func (w *wireLog) phase(t *testing.T, name string, byName bool) {
	t.Helper()
	fmt.Fprintf(&w.b, "==== %s\n", name)
	status := statusGet(t, w.srv, "/status.json").Body.Bytes()
	w.section("/status.json", string(status))
	w.roundTrip(t, status)
	w.section("/", statusGet(t, w.srv, "/").Body.String())
	w.section("/timeseries.json", statusGet(t, w.srv, "/timeseries.json").Body.String())
	w.section("/events snapshot", w.eventsSnapshot(t))

	var names []string
	events := map[string][]string{}
	for drained := false; !drained; {
		select {
		case ev, ok := <-w.sub.C:
			if !ok {
				t.Fatalf("%s: the recording subscriber was evicted", name)
			}
			key := ""
			if byName {
				key = ev.Name
			}
			if _, seen := events[key]; !seen {
				names = append(names, key)
			}
			events[key] = append(events[key], ev.Name+" "+string(ev.Data))
		default:
			drained = true
		}
	}
	sort.Strings(names)
	for _, n := range names {
		title := "events"
		if n != "" {
			title += " " + n
		}
		w.section(title, strings.Join(events[n], "\n")+"\n")
	}
}

func (w *wireLog) section(title, body string) {
	fmt.Fprintf(&w.b, "---- %s\n%s", title, body)
	if !strings.HasSuffix(body, "\n") {
		w.b.WriteString("\n")
	}
}

// roundTrip decodes a served /status.json into StatusSnapshot and
// encodes it again the way the server renders it: the bytes must not
// move, so the snapshot type reads back everything it serves.
func (w *wireLog) roundTrip(t *testing.T, body []byte) {
	t.Helper()
	var snap StatusSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode /status.json: %v\n%s", err, body)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), body) {
		t.Fatalf("/status.json does not round-trip through StatusSnapshot:\n--- served\n%s--- re-encoded\n%s", body, b.Bytes())
	}
}

// eventsSnapshot serves /events to a client whose context is already
// done: the handler writes its snapshot event and returns at the first
// wait, and nothing publishes meanwhile.
func (w *wireLog) eventsSnapshot(t *testing.T) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil).WithContext(ctx))
	body, ok := strings.CutPrefix(rec.Body.String(), "event: snapshot\ndata: ")
	if !ok {
		t.Fatalf("/events did not open with a snapshot:\n%s", rec.Body.String())
	}
	return body
}

func TestServingWireGolden(t *testing.T) {
	srv := NewStatusServer()
	srv.SetEventBuffer(1 << 14)
	w := &wireLog{srv: srv, sub: srv.Subscribe()}
	defer w.sub.Close()
	w.phase(t, "idle", false)

	srv.SetScenario("netrecv")
	srv.SetState("running")
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:   core.CaptureContinuous,
		Depth:  512,
		Faults: &faults.Config{Seed: 9, Rate: 0.02, ReadoutRate: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fullest core.Progress
	s.SetProgress(func(p core.Progress) {
		if p.Stored > fullest.Stored {
			fullest = p
		}
		srv.OnSessionProgress(p)
	})
	s.Arm()
	if _, err := workload.NetReceive(m, 40*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	w.phase(t, "faulted continuous session", false)

	// No short run reaches one-shot mode with failed drains (a one-shot
	// session never drains): replay the fullest real snapshot as one.
	oneShot := fullest
	oneShot.Mode = core.CaptureOneShot
	oneShot.DrainErrs = 2
	srv.OnSessionProgress(oneShot)
	w.phase(t, "one-shot session with drain errors", false)

	srv.SetScenario("forkexec")
	if _, err := sweep.Run(sweep.Config{
		Scenario:   "forkexec",
		Seeds:      []uint64{3, 4},
		Parallel:   1,
		Params:     workload.Params{Duration: 20 * sim.Millisecond},
		Profile:    core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 1024},
		OnProgress: srv.OnSweepProgress,
	}); err != nil {
		t.Fatal(err)
	}
	w.phase(t, "one-worker sweep", false)

	srv.SetScenario("fleet")
	if _, err := fleet.Run(fleet.Config{
		Machines: []fleet.MachineConfig{{
			Seed:     900,
			Scenario: "netrecv",
			Params:   workload.Params{Duration: 50 * sim.Millisecond},
			Depth:    512,
		}},
		Window:     10 * sim.Millisecond,
		Staging:    1,
		OnProgress: srv.OnFleetProgress,
		OnWindow:   srv.OnFleetWindow,
	}); err != nil {
		t.Fatal(err)
	}
	w.phase(t, "one-machine fleet", true)

	// A window no machine committed into has no top function; a short
	// fleet run closes none.
	srv.OnFleetWindow(fleet.WindowSummary{Index: 99, StartUS: 990000, EndUS: 1000000})
	srv.SetState("done")
	w.phase(t, "empty window, done", false)

	path := filepath.Join("testdata", "serving_wire.golden")
	got := w.b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, wl := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if g != wl {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", path, i+1, g, wl)
		}
	}
}
