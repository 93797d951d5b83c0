// ETag/If-None-Match conformance battery for the cached endpoints, plus
// the cache-coherence hammer: concurrent conditional readers against a
// live mutator must never observe time running backwards.
package export

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kprof/internal/fleet"
	"kprof/internal/sim"
	"kprof/internal/sweep"
)

func TestETagMatch(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{`"st-3"`, `"st-3"`, true},
		{`"st-2"`, `"st-3"`, false},
		{`*`, `"st-3"`, true},
		{`W/"st-3"`, `"st-3"`, true},
		{`"zz", "st-3"`, `"st-3"`, true},
		{`"zz" , W/"st-3"`, `"st-3"`, true},
		{`"zz", "yy"`, `"st-3"`, false},
		{``, `"st-3"`, false},
		{`st-3`, `"st-3"`, false}, // unquoted is not the same entity tag
	}
	for _, c := range cases {
		if got := etagMatch(c.header, c.etag); got != c.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}

// condGet performs a conditional GET with an optional If-None-Match.
func condGet(t *testing.T, srv *StatusServer, path, inm string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// The conformance matrix, run against every cached endpoint with that
// endpoint's own mutator: fresh GET → 200+ETag; revalidation with the
// current tag (exact, weak, listed, wildcard) → 304 with no body; a
// stale or garbage tag → 200; after a mutation the old tag → 200 with a
// different ETag and different bytes; repeated unconditional GETs with
// no mutation are byte-identical (the cache serves one render).
func TestETagConformanceMatrix(t *testing.T) {
	a1 := netrecvAnalysis(t, 1, 40*sim.Millisecond)
	a2 := netrecvAnalysis(t, 2, 60*sim.Millisecond)

	endpoints := []struct {
		path   string
		setup  func(*StatusServer)
		mutate func(*StatusServer)
	}{
		{
			path:   "/status.json",
			setup:  func(s *StatusServer) { s.OnSessionProgress(progressAt(1)) },
			mutate: func(s *StatusServer) { s.OnSessionProgress(progressAt(2)) },
		},
		{
			path:   "/timeseries.json",
			setup:  func(s *StatusServer) { s.OnFleetWindow(windowAt(0)) },
			mutate: func(s *StatusServer) { s.OnFleetWindow(windowAt(1)) },
		},
		{
			path:   "/pprof",
			setup:  func(s *StatusServer) { s.PublishAnalysis(a1) },
			mutate: func(s *StatusServer) { s.PublishAnalysis(a2) },
		},
		{
			path:   "/trace.json",
			setup:  func(s *StatusServer) { s.PublishAnalysis(a1) },
			mutate: func(s *StatusServer) { s.PublishAnalysis(a2) },
		},
	}

	for _, ep := range endpoints {
		t.Run(ep.path, func(t *testing.T) {
			srv := NewStatusServer()
			ep.setup(srv)

			fresh := condGet(t, srv, ep.path, "")
			etag := fresh.Header().Get("ETag")
			if fresh.Code != 200 || etag == "" || fresh.Body.Len() == 0 {
				t.Fatalf("fresh GET: code %d, etag %q, %d bytes", fresh.Code, etag, fresh.Body.Len())
			}
			if cc := fresh.Header().Get("Cache-Control"); cc != "no-cache" {
				t.Fatalf("Cache-Control %q, want no-cache (revalidate, don't reuse)", cc)
			}

			// Every way a client can present the current tag earns a 304.
			for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
				rec := condGet(t, srv, ep.path, inm)
				if rec.Code != 304 || rec.Body.Len() != 0 {
					t.Fatalf("If-None-Match %q: code %d, %d body bytes, want empty 304", inm, rec.Code, rec.Body.Len())
				}
				if rec.Header().Get("ETag") != etag {
					t.Fatalf("304 carried ETag %q, want %q", rec.Header().Get("ETag"), etag)
				}
			}

			// A tag the server never issued is a miss.
			if rec := condGet(t, srv, ep.path, `"never-issued"`); rec.Code != 200 || rec.Body.Len() == 0 {
				t.Fatalf("garbage tag: code %d, %d bytes, want full 200", rec.Code, rec.Body.Len())
			}

			// Unmutated re-renders are byte-identical: the cache is serving
			// one render, not re-marshaling per request.
			if again := condGet(t, srv, ep.path, ""); again.Body.String() != fresh.Body.String() {
				t.Fatal("two GETs with no mutation in between returned different bytes")
			}

			// After a mutation the old tag is stale: full 200, new ETag,
			// different bytes.
			ep.mutate(srv)
			rec := condGet(t, srv, ep.path, etag)
			if rec.Code != 200 {
				t.Fatalf("stale tag after mutation: code %d, want 200", rec.Code)
			}
			if rec.Header().Get("ETag") == etag {
				t.Fatal("mutation did not move the ETag")
			}
			if rec.Body.String() == fresh.Body.String() {
				t.Fatal("mutation did not change the body")
			}
		})
	}
}

// Subscribing to /events changes /status.json (the serving section
// appears), so it must invalidate the status cache — as must the
// subscriber leaving.
func TestSubscribeInvalidatesStatus(t *testing.T) {
	srv := NewStatusServer()
	etag := condGet(t, srv, "/status.json", "").Header().Get("ETag")

	sub := srv.Subscribe()
	rec := condGet(t, srv, "/status.json", etag)
	if rec.Code != 200 {
		t.Fatalf("status after subscribe: code %d with old tag, want 200", rec.Code)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Serving == nil || snap.Serving.Subscribers != 1 {
		t.Fatalf("serving section %+v, want 1 subscriber", snap.Serving)
	}

	etag = rec.Header().Get("ETag")
	sub.Close()
	rec = condGet(t, srv, "/status.json", etag)
	if rec.Code != 200 {
		t.Fatalf("status after unsubscribe: code %d with old tag, want 200", rec.Code)
	}
}

// Every publish moves /status.json's serving section, so every hook that
// publishes must invalidate it: with a subscriber connected, a client
// revalidating the tag it held before the hook gets a fresh body whose
// events_published is the hub's count.
func TestServingStatusFreshAfterPublish(t *testing.T) {
	srv := NewStatusServer()
	sub := srv.Subscribe()
	defer sub.Close()
	hooks := []struct {
		name string
		call func()
	}{
		{"SetScenario", func() { srv.SetScenario("netrecv") }},
		{"SetState", func() { srv.SetState("running") }},
		{"OnSessionProgress", func() { srv.OnSessionProgress(progressAt(1)) }},
		{"OnSweepProgress", func() { srv.OnSweepProgress(sweep.Progress{Seeds: 2, Started: 1}) }},
		{"OnFleetProgress", func() { srv.OnFleetProgress(fleet.Progress{SegmentsStaged: 1, Backlog: 1}) }},
		{"OnFleetWindow", func() { srv.OnFleetWindow(fleet.WindowSummary{Index: 1, Records: 10}) }},
	}
	etag := condGet(t, srv, "/status.json", "").Header().Get("ETag")
	for _, h := range hooks {
		h.call()
		rec := condGet(t, srv, "/status.json", etag)
		if rec.Code != 200 {
			t.Fatalf("after %s: code %d with the previous tag, want 200", h.name, rec.Code)
		}
		var snap StatusSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if want := srv.HubStats().Published; snap.Serving == nil || snap.Serving.Published != want {
			t.Fatalf("after %s: serving section %+v, hub has published %d", h.name, snap.Serving, want)
		}
		etag = rec.Header().Get("ETag")
	}
}

// The coherence hammer: one writer advancing the session snapshot,
// many readers doing conditional GETs in a tight loop. Each reader must
// see a non-decreasing stored count (a cached body must never be older
// than one the same reader already saw), and once the writer stops, the
// next unconditional GET shows the final state and its tag revalidates
// as a 304 until the next mutation.
func TestCacheCoherenceUnderConcurrentMutation(t *testing.T) {
	const (
		writes  = 400
		readers = 8
	)
	srv := NewStatusServer()
	srv.OnSessionProgress(progressAt(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastStored, etag := -1, ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := condGet(t, srv, "/status.json", etag)
				switch rec.Code {
				case 304:
					// Nothing changed for us; keep the tag.
				case 200:
					etag = rec.Header().Get("ETag")
					var snap StatusSnapshot
					if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
						errs <- err
						return
					}
					if snap.Session == nil {
						errs <- fmt.Errorf("session section vanished mid-run")
						return
					}
					if snap.Session.Stored < lastStored {
						errs <- fmt.Errorf("stored went backwards: %d after %d", snap.Session.Stored, lastStored)
						return
					}
					lastStored = snap.Session.Stored
				default:
					errs <- fmt.Errorf("unexpected status %d", rec.Code)
					return
				}
			}
		}()
	}

	for i := 1; i <= writes; i++ {
		srv.OnSessionProgress(progressAt(i))
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let readers interleave
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent state: the final write is visible, and its tag holds a 304
	// until the next mutation.
	final := condGet(t, srv, "/status.json", "")
	var snap StatusSnapshot
	if err := json.Unmarshal(final.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Session.Stored != writes {
		t.Fatalf("final stored %d, want %d", snap.Session.Stored, writes)
	}
	etag := final.Header().Get("ETag")
	if rec := condGet(t, srv, "/status.json", etag); rec.Code != 304 {
		t.Fatalf("quiescent revalidation: code %d, want 304", rec.Code)
	}
	srv.OnSessionProgress(progressAt(writes + 1))
	if rec := condGet(t, srv, "/status.json", etag); rec.Code != 200 {
		t.Fatalf("post-mutation revalidation: code %d, want 200", rec.Code)
	}
}
