package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// Serving-tier benchmarks: the cost of watching a capture. Three rows,
// all with request (or event delivery) as the unit, so NsPerRecord reads
// as ns/request and RecordsPerSec as requests/sec:
//
//   - serve/status_cached: steady-state /status.json revalidation — every
//     request presents the current ETag and earns a 304 off the
//     generation counter, no render, no snapshot lock.
//   - serve/status_uncached: every request preceded by a progress hook, so
//     every response is a full re-render and marshal of the snapshot. The
//     cached/uncached ratio is the cache's value; EXPERIMENTS.md E22
//     tracks it.
//   - serve/sse_fanout: publishing through the bounded hub to a standing
//     crowd of in-process subscribers; the unit is one delivered event.

// nullRW is a ResponseWriter that only counts, so the rows measure the
// serving tier rather than a recorder's buffer management.
type nullRW struct {
	h    http.Header
	code int
	n    int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullRW) WriteHeader(code int)        { w.code = code }

// serveBenchmarks appends the serving-tier rows to the report. The
// fixture is a short production-day capture whose progress hooks feed a
// live StatusServer, exactly as cmd/kprof wires it.
func serveBenchmarks(cfg Config, rep *Report) error {
	srv := export.NewStatusServer()
	srv.SetScenario("proday")
	params := workload.Params{Duration: 100 * sim.Millisecond, Conns: 50, Rate: 300}
	m := core.NewMachine(kernel.Config{Seed: cfg.seed()})
	if err := workload.ProdaySetup(m, params); err != nil {
		return err
	}
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:  core.CaptureContinuous,
		Depth: 4096,
		Drain: core.DrainConfig{Recycle: true},
	})
	if err != nil {
		return err
	}
	var last core.Progress
	s.SetProgress(func(p core.Progress) { last = p; srv.OnSessionProgress(p) })
	s.Arm()
	_, err = workload.Proday(m, params)
	s.Disarm()
	if err != nil {
		return err
	}
	if err := s.DrainErr(); err != nil {
		return err
	}
	if last.Gen == 0 {
		return fmt.Errorf("bench: serve fixture saw no progress")
	}

	// Request count per pass is identical in quick and full mode so the
	// per-request allocation figures compare exactly; only the pass
	// counts shrink.
	h := srv.Handler()
	const requests = 5000
	statusIters, sseIters := 8, 6
	if cfg.Quick {
		statusIters, sseIters = 2, 2
	}

	// serve/status_cached: prime the cache once, then revalidate with the
	// current tag. The server is not mutated between requests, so every
	// one is the 304 fast path.
	w := &nullRW{h: make(http.Header)}
	req := httptest.NewRequest("GET", "/status.json", nil)
	h.ServeHTTP(w, req)
	etag := w.h.Get("ETag")
	if etag == "" || w.n == 0 {
		return fmt.Errorf("bench: priming GET served no ETag/body")
	}
	req.Header.Set("If-None-Match", etag)
	cachedPass := func() {
		for i := 0; i < requests; i++ {
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusNotModified {
				panic(fmt.Sprintf("bench: cached GET answered %d, want 304", w.code))
			}
		}
	}
	cachedRes := measure("serve/status_cached", requests, 2, statusIters, cachedPass)
	cachedRes.WallNoisy = true
	rep.Benchmarks = append(rep.Benchmarks, cachedRes)

	// serve/status_uncached: a progress hook lands before every request,
	// so every response re-renders the snapshot.
	reqU := httptest.NewRequest("GET", "/status.json", nil)
	uncachedPass := func() {
		for i := 0; i < requests; i++ {
			srv.OnSessionProgress(last)
			w.code, w.n = 0, 0
			h.ServeHTTP(w, reqU)
			if w.n == 0 {
				panic("bench: uncached GET served no body")
			}
		}
	}
	uncachedRes := measure("serve/status_uncached", requests, 2, statusIters, uncachedPass)
	uncachedRes.WallNoisy = true
	rep.Benchmarks = append(rep.Benchmarks, uncachedRes)

	// serve/sse_fanout: one pass subscribes the crowd, publishes the event
	// stream through the hub (buffers sized so nobody is evicted — the
	// eviction path is the hub test battery's business, not a throughput
	// row), and disconnects. Records counts deliveries: subscribers ×
	// events. Its allocations come from process-wide MemStats over two
	// passes, whose run-to-run spread is larger than one allocation per
	// pass: 1 034.5–1 040.5 per pass over seven runs on a 2-vCPU VM,
	// against 1 032.1–1 032.3 for the pass counted alone (E34). The row
	// cannot show a change of one allocation per pass.
	// Crowd size and event count are identical in quick and full mode —
	// per-delivery allocation figures must compare exactly across
	// configurations; only the pass count shrinks.
	const subs, events = 50, 400
	ssePass := func() {
		fan := export.NewStatusServer()
		fan.SetEventBuffer(events + 1)
		crowd := make([]*export.Subscription, subs)
		for i := range crowd {
			crowd[i] = fan.Subscribe()
		}
		for i := 0; i < events; i++ {
			fan.OnSessionProgress(last)
		}
		if st := fan.HubStats(); st.SlowDropped != 0 || st.Published != uint64(events) {
			panic(fmt.Sprintf("bench: sse pass dropped subscribers or lost events: %+v", st))
		}
		for _, sub := range crowd {
			sub.Close()
		}
	}
	sseRes := measure("serve/sse_fanout", subs*events, 1, sseIters, ssePass)
	sseRes.WallNoisy = true
	rep.Benchmarks = append(rep.Benchmarks, sseRes)

	return nil
}
