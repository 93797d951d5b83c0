package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kprof/internal/core"
	"kprof/internal/export"
)

// Live-status load: one open-loop client polling /status.json at a fixed
// rate over at most two connections, and one SSE subscriber on /events.

const (
	statusRate    = 1000 // /status.json requests per second
	statusConns   = 2
	statusTimeout = 2 * time.Second
	// Microbenchmark sizes for the uncached and revalidated renders.
	renderRequests      = 2000
	revalidatedRequests = 20000
)

// statusSample is one /status.json request of the open loop.
type statusSample struct {
	// latency runs from the request's scheduled send time to the end of
	// its response body; late is how far behind schedule it was sent.
	latency, late time.Duration
	err           error
}

// openLoop sends GETs to url on a fixed schedule: request i is due at
// start + i*period whatever happened to earlier ones. conns workers share
// the schedule, so a stalled response delays the requests queued behind
// it, and their latency, counted from the schedule, shows the stall.
// Every other request revalidates the last ETag its worker saw.
type openLoop struct {
	client *http.Client
	url    string
	period time.Duration
	conns  int
}

// run issues requests until stop closes and returns them in schedule
// order.
func (o *openLoop) run(stop <-chan struct{}) []statusSample {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	done := make(map[int64]statusSample)
	var wg sync.WaitGroup
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(i) * o.period)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-stop:
						t.Stop()
						return
					case <-t.C:
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				sent := time.Now()
				revalidate := ""
				if i%2 == 1 {
					revalidate = etag
				}
				tag, err := o.get(revalidate)
				if tag != "" {
					etag = tag
				}
				s := statusSample{latency: time.Since(due), late: sent.Sub(due), err: err}
				mu.Lock()
				done[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out := make([]statusSample, 0, len(done))
	for i := int64(0); i < next.Load(); i++ {
		if s, ok := done[i]; ok {
			out = append(out, s)
		}
	}
	return out
}

// get issues one GET, revalidating etag when it is non-empty, and reads
// the body to its end. Only 200 and 304 count as success.
func (o *openLoop) get(etag string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, o.url, nil)
	if err != nil {
		return "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := o.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Header.Get("ETag"), nil
}

// liveServer is the -http wiring of one repeat: an export.StatusServer on
// a loopback port, its open-loop poller and one SSE subscriber.
type liveServer struct {
	srv      *export.StatusServer
	stopSrv  func() error
	loop     openLoop
	loopStop chan struct{}
	loopDone chan []statusSample

	sseCancel context.CancelFunc
	sseDone   chan error
	// last is the latest session progress a traced repeat saw; the
	// render measurement replays it.
	last core.Progress
}

func startLive(scenario string) (*liveServer, error) {
	srv := export.NewStatusServer()
	srv.SetScenario(scenario)
	url, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{
		srv:     srv,
		stopSrv: stop,
		loop: openLoop{
			client: &http.Client{
				Timeout: statusTimeout,
				Transport: &http.Transport{
					MaxConnsPerHost:     statusConns,
					MaxIdleConnsPerHost: statusConns,
					DisableCompression:  true,
				},
			},
			url:    url + "/status.json",
			period: time.Second / statusRate,
			conns:  statusConns,
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.sseCancel = cancel
	l.sseDone = make(chan error, 1)
	ready := make(chan error, 1)
	go func() { l.sseDone <- readEvents(ctx, url+"/events", ready) }()
	if err := <-ready; err != nil {
		cancel()
		<-l.sseDone
		stop()
		return nil, fmt.Errorf("sse subscribe: %w", err)
	}
	return l, nil
}

// readEvents subscribes to the SSE stream, signals ready once the first
// response headers arrive, and reads events until ctx is cancelled. When
// the hub evicts it as a slow client the stream ends, and it subscribes
// again, as a browser's EventSource does.
func readEvents(ctx context.Context, url string, ready chan<- error) error {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for first := true; ; first = false {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		var resp *http.Response
		if err == nil {
			resp, err = client.Do(req)
		}
		if first {
			ready <- err
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		br := bufio.NewReader(resp.Body)
		for err == nil || err == bufio.ErrBufferFull {
			_, err = br.ReadSlice('\n')
		}
		resp.Body.Close()
		if ctx.Err() != nil {
			return nil
		}
	}
}

func (l *liveServer) startClient() {
	l.loopStop = make(chan struct{})
	l.loopDone = make(chan []statusSample, 1)
	go func() { l.loopDone <- l.loop.run(l.loopStop) }()
}

// stopClient stops the poller and returns the successful requests'
// latencies and lateness in ms, the failed request count, and why the
// first few failed.
func (l *liveServer) stopClient() (lat, late []float64, failed int, problems []string) {
	close(l.loopStop)
	for _, s := range <-l.loopDone {
		if s.err != nil {
			failed++
			if len(problems) < 3 {
				problems = append(problems, "status request: "+s.err.Error())
			}
			continue
		}
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
	}
	return lat, late, failed, problems
}

// close disconnects the SSE subscriber, measures the uncached and the
// revalidated /status.json render through the server's handler, and
// stops the server.
func (l *liveServer) close(layers map[string]float64) error {
	l.sseCancel()
	sseErr := <-l.sseDone
	l.loop.client.CloseIdleConnections()
	if layers != nil && l.last.Gen > 0 {
		render, revalidated, err := measureStatus(l.srv, l.last)
		if err != nil {
			l.stopSrv()
			return err
		}
		layers["export.status_render_us"] = us(render)
		layers["export.status_304_ns"] = float64(revalidated.Nanoseconds())
	}
	if err := l.stopSrv(); err != nil {
		return err
	}
	if sseErr != nil {
		return fmt.Errorf("sse subscriber: %w", sseErr)
	}
	return nil
}

// nullRW is a ResponseWriter that keeps only the status and body size,
// so the render figures time the serving tier, not a recorder's buffers.
type nullRW struct {
	h    http.Header
	code int
	n    int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullRW) WriteHeader(code int)        { w.code = code }

// measureStatus times /status.json through Handler().ServeHTTP: the
// median uncached render (a progress hook lands, untimed, before each
// request) and the mean revalidated 304.
func measureStatus(srv *export.StatusServer, p core.Progress) (render, revalidated time.Duration, err error) {
	h := srv.Handler()
	req, err := http.NewRequest(http.MethodGet, "/status.json", nil)
	if err != nil {
		return 0, 0, err
	}
	renders := make([]float64, renderRequests)
	w := &nullRW{h: make(http.Header)}
	for i := range renders {
		srv.OnSessionProgress(p)
		w.code, w.n = 0, 0
		t := time.Now()
		h.ServeHTTP(w, req)
		renders[i] = float64(time.Since(t))
		if w.n == 0 {
			return 0, 0, fmt.Errorf("uncached /status.json served no body")
		}
	}
	etag := w.h.Get("ETag")
	rreq, err := http.NewRequest(http.MethodGet, "/status.json", nil)
	if err != nil {
		return 0, 0, err
	}
	rreq.Header.Set("If-None-Match", etag)
	t := time.Now()
	for i := 0; i < revalidatedRequests; i++ {
		w.code = 0
		h.ServeHTTP(w, rreq)
		if w.code != http.StatusNotModified {
			return 0, 0, fmt.Errorf("revalidated /status.json answered %d, want 304", w.code)
		}
	}
	return time.Duration(median(renders)), time.Since(t) / revalidatedRequests, nil
}
