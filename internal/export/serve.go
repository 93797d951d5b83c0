package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"kprof/internal/analyze"
	"kprof/internal/fleet"
)

// The serving half of StatusServer beyond the original poll endpoint:
// the SSE push stream (/events), the time-series ring (/timeseries.json),
// and the live profile exporters (/pprof, /trace.json), all fed by the
// same progress hooks and all revalidating through the generation-counter
// ETag cache (cache.go).

// SetEventBuffer sets the per-subscriber event buffer for subsequent
// /events subscribers (existing subscribers keep theirs). A subscriber
// that falls n events behind is evicted; the default is
// DefaultEventBuffer.
func (s *StatusServer) SetEventBuffer(n int) {
	if n < 1 {
		n = 1
	}
	s.hub.mu.Lock()
	s.hub.buffer = n
	s.hub.mu.Unlock()
}

// SetRingCap sets the time-series ring capacities (windows and load
// points retained). Call it before the run: it replaces the rings, so
// points already recorded are discarded. Zero or negative capacities
// select the defaults.
func (s *StatusServer) SetRingCap(windows, load int) {
	if windows < 1 {
		windows = DefaultWindowRing
	}
	if load < 1 {
		load = DefaultLoadRing
	}
	s.ts.Store(newTimeseries(windows, load))
	s.tsRes.invalidate()
}

// PublishAnalysis publishes a finished analysis as the live profile:
// /pprof and /trace.json render from it until the next publish. The
// analysis must be immutable once published (the driver publishes its
// final analysis and keeps rendering reports from it — both only read).
func (s *StatusServer) PublishAnalysis(a *analyze.Analysis) {
	s.mu.Lock()
	s.analysis = a
	s.mu.Unlock()
	s.pprofRes.invalidate()
	s.traceRes.invalidate()
}

// OnFleetWindow is a fleet window-close hook: assign it to
// fleet.Config.OnWindow. Each closed window becomes a point in the
// /timeseries.json windows ring and (when subscribers are connected) a
// "window" SSE event. Like OnFleetProgress it runs under the staging
// store's lock, so it only records the point and returns.
func (s *StatusServer) OnFleetWindow(ws fleet.WindowSummary) {
	p := WindowPoint{
		Index:    ws.Index,
		StartUS:  ws.StartUS,
		EndUS:    ws.EndUS,
		Machines: ws.Machines,
		Segments: ws.Segments,
		Records:  ws.Records,
		Dropped:  ws.Dropped,
	}
	if len(ws.Top) > 0 {
		p.TopFn = ws.Top[0].Name
		p.TopFnPct = ws.Top[0].PctNetMean
		p.TopFnNetUS = ws.Top[0].NetUSMean
	}
	p = s.ts.Load().pushWindow(p)
	s.tsRes.invalidate()
	s.update("window", func(*StatusSnapshot) any { return p })
}

// HubStats returns the SSE hub's lifetime accounting.
func (s *StatusServer) HubStats() HubStats {
	return s.hub.stats()
}

// Subscribe registers an in-process event subscriber — the same bounded
// fan-out an /events client gets, without the HTTP layer (the serving
// benchmark and embedding drivers consume it). Receive from the
// subscription's C until done, then Close it; if C closes first, the hub
// evicted the subscriber as too slow.
func (s *StatusServer) Subscribe() *Subscription {
	return s.hub.subscribe()
}

func (s *StatusServer) renderTimeseries() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(s.ts.Load().document())
	return b.Bytes()
}

func (s *StatusServer) serveTimeseries(w http.ResponseWriter, r *http.Request) {
	s.tsRes.serve(w, r, "application/json", s.renderTimeseries)
}

// publishedAnalysis returns the live profile, or nil before any publish.
func (s *StatusServer) publishedAnalysis() *analyze.Analysis {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.analysis
}

func (s *StatusServer) servePprof(w http.ResponseWriter, r *http.Request) {
	a := s.publishedAnalysis()
	if a == nil {
		http.Error(w, "no profile published yet", http.StatusNotFound)
		return
	}
	s.pprofRes.serve(w, r, "application/octet-stream", func() []byte {
		return MarshalPprof(s.publishedAnalysis(), PprofOptions{})
	})
}

func (s *StatusServer) serveTrace(w http.ResponseWriter, r *http.Request) {
	a := s.publishedAnalysis()
	if a == nil {
		http.Error(w, "no profile published yet", http.StatusNotFound)
		return
	}
	s.traceRes.serve(w, r, "application/json", func() []byte {
		var b bytes.Buffer
		WriteChromeTrace(&b, s.publishedAnalysis())
		return b.Bytes()
	})
}

// serveEvents is the SSE stream: an initial "snapshot" event with the
// full current status, then every hub event as it is published. The
// handler goroutine is the only place that blocks on this client — the
// hub's non-blocking publish keeps the capture-side hooks isolated from
// it, and a client that stalls long enough to fill its buffer is evicted
// (its channel closes and the handler returns).
func (s *StatusServer) serveEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.hub.subscribe()
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	snap, _ := json.Marshal(s.Snapshot())
	if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", snap); err != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Evicted as a slow client; the stream just ends.
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, ev.Data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
