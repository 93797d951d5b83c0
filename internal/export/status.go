package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/fleet"
	"kprof/internal/sim"
	"kprof/internal/sweep"
)

// The live serving tier: an HTTP server fed by the progress hooks on
// core.Session, sweep.Config and fleet.Config, built to fan one live
// capture out to many concurrent clients without ever touching the
// measured path. Four mechanisms carry it (see DESIGN.md, "Live serving
// tier"):
//
//   - /status.json and / render whatever the hooks last reported, through
//     a generation-counter ETag cache (cache.go): pollers revalidate with
//     If-None-Match and in steady state get 304s that cost no render and
//     no lock;
//   - /events pushes every progress and aggregate delta over SSE through
//     a bounded fan-out hub (hub.go) — slow subscribers are dropped, with
//     accounting, never waited on;
//   - /timeseries.json serves a fixed-capacity ring of recent fleet
//     window summaries and ingest load samples (ring.go), the trend view
//     a client joining mid-run has otherwise missed;
//   - /pprof and /trace.json render the published live analysis through
//     the exporters (pprof.go, trace.go): the -trace file's bytes, and the
//     payload the -pprof file stores inside its gzip container.

// StatusSnapshot is everything /status.json serves. Its session, sweep
// and fleet sections are the producers' own progress structs, whose JSON
// tags are the wire format.
type StatusSnapshot struct {
	// Scenario and State describe the run as a whole; State is free-form
	// ("running", "done", ...) and set by the driver via SetState.
	Scenario string `json:"scenario,omitempty"`
	State    string `json:"state"`
	// Session, Sweep and Fleet are the last snapshot each hook received,
	// present once the hook has fired at least once.
	Session *core.Progress  `json:"session,omitempty"`
	Sweep   *sweep.Progress `json:"sweep,omitempty"`
	Fleet   *fleet.Progress `json:"fleet,omitempty"`
	// Serving is the SSE hub's fan-out accounting, present once /events
	// has seen any activity.
	Serving *HubStats `json:"serving,omitempty"`
}

// StatusServer serves the live capture status. Zero value is not usable;
// call NewStatusServer. Wire it up with
//
//	srv := export.NewStatusServer()
//	session.SetProgress(srv.OnSessionProgress)   // and/or
//	sweepCfg.OnProgress = srv.OnSweepProgress    // and/or
//	fleetCfg.OnProgress = srv.OnFleetProgress
//	fleetCfg.OnWindow = srv.OnFleetWindow
//	url, stop, err := srv.Start(":6060")
//
// All methods are safe for concurrent use: the hooks run on simulation or
// worker goroutines while HTTP handlers read. Each hook keeps its own copy
// of the producer's snapshot (the argument it was passed) and swaps the
// section's pointer to it under the lock — handlers and SSE marshaling
// only ever read published snapshots, never ones still being written.
// Every hook then publishes its event and invalidates /status.json
// through one path (update), so a publish, which moves the serving
// section, always moves the status ETag too.
type StatusServer struct {
	mu       sync.RWMutex
	snap     StatusSnapshot
	analysis *analyze.Analysis

	mux *http.ServeMux
	hub *hub
	ts  atomic.Pointer[timeseries]

	// One ETag generation per cacheable endpoint; every mutator bumps
	// the generations of the resources it affects (see cache.go).
	statusRes cachedResource
	tsRes     cachedResource
	pprofRes  cachedResource
	traceRes  cachedResource
}

// NewStatusServer returns a server with an empty snapshot and State
// "idle".
func NewStatusServer() *StatusServer {
	s := &StatusServer{snap: StatusSnapshot{State: "idle"}}
	s.statusRes.prefix = "st-"
	s.tsRes.prefix = "ts-"
	s.pprofRes.prefix = "pp-"
	s.traceRes.prefix = "tr-"
	// Subscriber-set changes alter the "serving" section, so they
	// invalidate the status resource.
	s.hub = newHub(s.statusRes.invalidate)
	s.ts.Store(newTimeseries(DefaultWindowRing, DefaultLoadRing))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/status.json", s.serveJSON)
	s.mux.HandleFunc("/timeseries.json", s.serveTimeseries)
	s.mux.HandleFunc("/events", s.serveEvents)
	s.mux.HandleFunc("/pprof", s.servePprof)
	s.mux.HandleFunc("/trace.json", s.serveTrace)
	s.mux.HandleFunc("/", s.serveHTML)
	return s
}

// SetScenario records the scenario name shown in the status.
func (s *StatusServer) SetScenario(name string) {
	s.update("state", func(snap *StatusSnapshot) any {
		snap.Scenario = name
		return runState{snap.Scenario, snap.State}
	})
}

// SetState records the run state ("running", "done", ...).
func (s *StatusServer) SetState(state string) {
	s.update("state", func(snap *StatusSnapshot) any {
		snap.State = state
		return runState{snap.Scenario, snap.State}
	})
}

// runState is the "state" event: the run's identity.
type runState struct {
	Scenario string `json:"scenario,omitempty"`
	State    string `json:"state"`
}

// update is every hook's path into the served state: it runs store on
// the snapshot under the lock, publishes the event store returns (nil
// publishes nothing) when anyone is subscribed, and invalidates
// /status.json last. A publish moves the serving section's
// events_published, so the invalidate must follow it: a render landing
// between an invalidate and the publish would cache the old count under
// the new generation.
func (s *StatusServer) update(name string, store func(*StatusSnapshot) any) {
	s.mu.Lock()
	ev := store(&s.snap)
	s.mu.Unlock()
	if ev != nil && s.hub.active() {
		data, _ := json.Marshal(ev)
		s.hub.publish(name, data)
	}
	s.statusRes.invalidate()
}

// OnSessionProgress is a core.Session progress hook: pass it to
// Session.SetProgress.
func (s *StatusServer) OnSessionProgress(p core.Progress) {
	s.update("session", func(snap *StatusSnapshot) any {
		snap.Session = &p
		return &p
	})
}

// OnSweepProgress is a sweep progress hook: assign it to
// sweep.Config.OnProgress.
func (s *StatusServer) OnSweepProgress(p sweep.Progress) {
	s.update("sweep", func(snap *StatusSnapshot) any {
		snap.Sweep = &p
		return &p
	})
}

// OnFleetProgress is a fleet ingest-pipeline hook: assign it to
// fleet.Config.OnProgress. It runs under the staging store's lock, so it
// only records the snapshot and returns.
func (s *StatusServer) OnFleetProgress(p fleet.Progress) {
	// The load ring coalesces: only staged/committed transitions become
	// points, and the point carries only interleaving-independent fields
	// (see ring.go's determinism contract). SSE "fleet" events follow the
	// same gate so a watched run streams one delta per real transition.
	lp, moved := s.ts.Load().pushLoad(LoadPoint{
		Staged:    p.SegmentsStaged,
		Committed: p.SegmentsCommitted,
		Backlog:   p.Backlog,
		Records:   p.RecordsCommitted,
		Dropped:   p.Dropped,
	})
	if moved {
		s.tsRes.invalidate()
	}
	s.update("fleet", func(snap *StatusSnapshot) any {
		snap.Fleet = &p
		if !moved {
			return nil
		}
		return lp
	})
}

// Snapshot returns a copy of the current status, including the SSE
// hub's accounting once it has seen any activity.
func (s *StatusServer) Snapshot() StatusSnapshot {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	if hs := s.hub.stats(); hs != (HubStats{}) {
		snap.Serving = &hs
	}
	return snap
}

// Handler returns the HTTP handler serving / (HTML), /status.json,
// /timeseries.json, /events (SSE), /pprof and /trace.json.
func (s *StatusServer) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":6060") and serves the status in a
// background goroutine. It returns the reachable URL and a stop function
// that closes the listener.
func (s *StatusServer) Start(addr string) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.mux}
	go srv.Serve(l)
	return "http://" + l.Addr().String(), srv.Close, nil
}

func (s *StatusServer) renderStatus() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
	return b.Bytes()
}

func (s *StatusServer) serveJSON(w http.ResponseWriter, r *http.Request) {
	s.statusRes.serve(w, r, "application/json", s.renderStatus)
}

func (s *StatusServer) serveHTML(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><meta charset=\"utf-8\">")
	fmt.Fprint(w, "<meta http-equiv=\"refresh\" content=\"1\"><title>kprof status</title>")
	fmt.Fprint(w, "<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}")
	fmt.Fprint(w, "td,th{border:1px solid #999;padding:.3em .8em;text-align:right}th{text-align:left}</style>")
	fmt.Fprint(w, "</head><body><h1>kprof</h1>")
	fmt.Fprintf(w, "<p>scenario <b>%s</b> — state <b>%s</b> — <a href=\"/status.json\">status.json</a>"+
		" · <a href=\"/timeseries.json\">timeseries.json</a> · <a href=\"/events\">events</a>"+
		" · <a href=\"/pprof\">pprof</a> · <a href=\"/trace.json\">trace.json</a></p>",
		html.EscapeString(snap.Scenario), html.EscapeString(snap.State))
	if hs := snap.Serving; hs != nil {
		fmt.Fprintf(w, "<p>serving: %d subscriber(s), %d event(s) pushed, %d slow client(s) dropped</p>",
			hs.Subscribers, hs.Published, hs.SlowDropped)
	}
	if st := snap.Session; st != nil {
		fmt.Fprint(w, "<h2>capture</h2><table>")
		fmt.Fprintf(w, "<tr><th>virtual time</th><td>%s</td></tr>", sim.Time(st.NowUS)*sim.Microsecond)
		fmt.Fprintf(w, "<tr><th>mode</th><td>%s</td></tr>", html.EscapeString(st.Mode.String()))
		fmt.Fprintf(w, "<tr><th>armed</th><td>%v</td></tr>", st.Armed)
		fmt.Fprintf(w, "<tr><th>card fill</th><td>%d / %d (%.1f%%)</td></tr>", st.Stored, st.Depth, st.FillPct)
		fmt.Fprintf(w, "<tr><th>overflow LED</th><td>%v</td></tr>", st.Overflowed)
		fmt.Fprintf(w, "<tr><th>drained segments</th><td>%d</td></tr>", st.Segments)
		fmt.Fprintf(w, "<tr><th>drained records</th><td>%d</td></tr>", st.SegmentRecords)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		if st.FaultsInjected > 0 {
			fmt.Fprintf(w, "<tr><th>faults injected</th><td>%d</td></tr>", st.FaultsInjected)
		}
		if st.DrainErrs > 0 {
			fmt.Fprintf(w, "<tr><th>failed drains</th><td>%d</td></tr>", st.DrainErrs)
		}
		fmt.Fprint(w, "</table>")
	}
	if st := snap.Fleet; st != nil {
		fmt.Fprint(w, "<h2>fleet</h2><table>")
		fmt.Fprintf(w, "<tr><th>machines done</th><td>%d / %d</td></tr>", st.MachinesDone, st.Machines)
		fmt.Fprintf(w, "<tr><th>segments committed</th><td>%d / %d staged (%d backlog)</td></tr>",
			st.SegmentsCommitted, st.SegmentsStaged, st.Backlog)
		fmt.Fprintf(w, "<tr><th>records committed</th><td>%d</td></tr>", st.RecordsCommitted)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		fmt.Fprintf(w, "<tr><th>watermark</th><td>%s</td></tr>", sim.Time(st.WatermarkUS)*sim.Microsecond)
		fmt.Fprintf(w, "<tr><th>windows closed</th><td>%d</td></tr>", st.WindowsClosed)
		fmt.Fprint(w, "</table>")
	}
	if doc := s.ts.Load().document(); len(doc.Windows) > 0 || len(doc.Load) > 0 {
		fmt.Fprint(w, "<h2>trend</h2><table>")
		if n := len(doc.Windows); n > 0 {
			recs := make([]int, n)
			for i, p := range doc.Windows {
				recs[i] = p.Records
			}
			last := doc.Windows[n-1]
			fmt.Fprintf(w, "<tr><th>window records</th><td>%s (%d windows, last: %d records", sparkline(recs), doc.WindowsTotal, last.Records)
			if last.TopFn != "" {
				fmt.Fprintf(w, ", top %s %.1f%%", html.EscapeString(last.TopFn), last.TopFnPct)
			}
			fmt.Fprint(w, ")</td></tr>")
		}
		if n := len(doc.Load); n > 0 {
			backlog := make([]int, n)
			for i, p := range doc.Load {
				backlog[i] = p.Backlog
			}
			fmt.Fprintf(w, "<tr><th>ingest backlog</th><td>%s (%d samples, now %d)</td></tr>",
				sparkline(backlog), doc.LoadTotal, doc.Load[n-1].Backlog)
		}
		fmt.Fprint(w, "</table>")
	}
	if st := snap.Sweep; st != nil {
		fmt.Fprint(w, "<h2>sweep</h2><table>")
		fmt.Fprintf(w, "<tr><th>scenario</th><td>%s</td></tr>", html.EscapeString(st.Scenario))
		fmt.Fprintf(w, "<tr><th>seeds done</th><td>%d / %d (%d in flight)</td></tr>",
			st.Done, st.Seeds, st.Started-st.Done)
		fmt.Fprintf(w, "<tr><th>last seed</th><td>%d</td></tr>", st.Seed)
		fmt.Fprintf(w, "<tr><th>drain segments</th><td>%d</td></tr>", st.Segments)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "</body></html>")
}
