package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"falcon/internal/model"
	"falcon/internal/service"
)

// The load generator is a closed loop: each connection sends its next
// request when the previous reply has arrived. Callers of POST /match/one
// are pipeline workers that wait for the answer, and on two shared cores an
// open-loop schedule at sub-millisecond spacing measures the timer.

// spanHeader carries the client span's id to the traced server wrapper.
const spanHeader = "X-Bench-Span"

// connections is min(nproc, 4): never more client goroutines than CPUs.
func connections() int { return min(runtime.NumCPU(), 4) }

// liveServer is service.New() behind a real 127.0.0.1 listener.
type liveServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func startServer(artifact []byte, tr *tracer) (*liveServer, error) {
	art, err := model.LoadArtifact(bytes.NewReader(artifact))
	if err != nil {
		return nil, err
	}
	svc := service.New()
	if err := svc.Publish(art); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = svc
	if tr != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			parent, _ := strconv.Atoi(req.Header.Get(spanHeader)) // absent or malformed: a root span
			id := tr.begin("service.ServeHTTP", parent)
			svc.ServeHTTP(w, req)
			tr.end(id)
		})
	}
	s := &liveServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serve goroutine.
func (s *liveServer) stop(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // graceful shutdown timed out; drop what is left
	}
	<-s.done
}

// traffic is the request stream: one pre-built body per training-table A
// row, sent in an order shuffled by the seed, with the rows each artifact
// generation must answer.
type traffic struct {
	bodies   [][]byte
	order    []int
	wantNew  [][]int
	wantPrev [][]int
}

func (r *run) buildTraffic(m *matchOut) (*traffic, error) {
	names := r.base.A.Schema.Names()
	t := &traffic{
		bodies:   make([][]byte, r.base.A.Len()),
		wantNew:  rowSets(m.res.Matches, r.base.A.Len()),
		wantPrev: r.prev.rows,
	}
	if len(t.wantPrev) != len(t.bodies) {
		return nil, fmt.Errorf("set-up recorded %d rows, table A has %d", len(t.wantPrev), len(t.bodies))
	}
	for i, tu := range r.base.A.Tuples {
		rec := make(map[string]string, len(names))
		for c, name := range names {
			rec[name] = tu.Values[c]
		}
		body, err := json.Marshal(map[string]any{"record": rec})
		if err != nil {
			return nil, err
		}
		t.bodies[i] = body
	}
	t.order = rand.New(rand.NewSource(r.seed)).Perm(len(t.bodies))
	return t, nil
}

// reqSample is one request's outcome.
type reqSample struct {
	end time.Duration // completion, from the start of the drive
	lat time.Duration
}

// loadOut is one drive's measurements.
type loadOut struct {
	elapsed time.Duration
	samples []reqSample // correct replies only
	swaps   []time.Duration
	bad     int
}

// latencies lists the correct replies' latencies in microseconds.
func (l *loadOut) latencies() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = float64(s.lat.Nanoseconds()) / 1e3
	}
	return out
}

// matchReply is the part of the POST /match/one reply the check reads.
type matchReply struct {
	Matches []struct {
		BRow int `json:"b_row"`
	} `json:"matches"`
}

// swapper issues PUT /artifacts/current, alternating the two generations.
type swapper struct {
	client    *http.Client
	url       string
	artifacts [2][]byte
	n         int
}

func (s *swapper) swap() (time.Duration, error) {
	body := s.artifacts[s.n%2]
	s.n++
	req, err := http.NewRequest(http.MethodPut, s.url+"/artifacts/current", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	t0 := now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	d := since(t0)
	_ = resp.Body.Close() // fully read; nothing left to lose
	if cerr != nil {
		return 0, cerr
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("PUT /artifacts/current: %s", resp.Status)
	}
	return d, nil
}

// drive runs the closed loop for dur on connections() keep-alive
// connections, each request under a client span when tr is set. With
// swapEvery > 0, connection 0 also issues a swap in-line each time that
// interval has passed, so replies may come from either generation. A reply is
// checked after its latency is recorded.
func (r *run) drive(s *liveServer, t *traffic, tr *tracer, dur, swapEvery time.Duration, sw *swapper) *loadOut {
	conns := connections()
	outs := make([]loadOut, conns)
	start := now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.samples = make([]reqSample, 0, 1<<16)
			tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			if c == 0 && sw != nil {
				sw.client = client
			}
			nextSwap := swapEvery
			var buf bytes.Buffer
			for k := c; ; k += conns {
				el := since(start)
				if el >= dur {
					return
				}
				if c == 0 && swapEvery > 0 && el >= nextSwap {
					nextSwap += swapEvery
					d, err := sw.swap()
					r.countSwap(out, d, err)
				}
				row := t.order[k%len(t.order)]
				lat, err := post(tr, client, s.url, t.bodies[row], &buf)
				if err == nil {
					err = checkReply(buf.Bytes(), t.wantNew[row], t.wantPrev[row], swapEvery > 0)
				}
				if err != nil {
					out.bad++
					if out.bad == 1 {
						r.note("request for row %d: %v", row, err)
					}
					continue
				}
				out.samples = append(out.samples, reqSample{end: since(start), lat: lat})
			}
		}(c)
	}
	wg.Wait()
	total := &loadOut{elapsed: since(start)}
	for i := range outs {
		total.samples = append(total.samples, outs[i].samples...)
		total.swaps = append(total.swaps, outs[i].swaps...)
		total.bad += outs[i].bad
	}
	r.attempted += len(total.samples) + total.bad
	r.failed += total.bad
	return total
}

// idleSwaps issues n swaps back to back on an otherwise idle server.
func (r *run) idleSwaps(sw *swapper, n int) []time.Duration {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	sw.client = &http.Client{Transport: tp}
	out := &loadOut{}
	for i := 0; i < n; i++ {
		d, err := sw.swap()
		r.countSwap(out, d, err)
	}
	return out.swaps
}

func (r *run) countSwap(out *loadOut, d time.Duration, err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.failf("swap: %v", err)
		return
	}
	out.swaps = append(out.swaps, d)
}

// note records a failure description from a client goroutine.
func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// post sends one POST /match/one and reads the whole reply into buf; the
// latency covers both.
func post(tr *tracer, client *http.Client, url string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/match/one", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin("POST /match/one", 0)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := now()
	resp, err := client.Do(req)
	if err != nil {
		tr.end(id)
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := since(t0)
	tr.end(id)
	_ = resp.Body.Close() // fully read; nothing left to lose
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return lat, nil
}

// checkReply verifies that the reply's b_row set is the batch row set for the
// request's A row under the served generation (either one while swapping).
func checkReply(raw []byte, wantNew, wantPrev []int, either bool) error {
	var reply matchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	got := make([]int, len(reply.Matches))
	for i, m := range reply.Matches {
		got[i] = m.BRow
	}
	slices.Sort(got)
	if slices.Equal(got, wantNew) || (either && slices.Equal(got, wantPrev)) {
		return nil
	}
	return fmt.Errorf("b_rows %v, batch run says %v", got, wantNew)
}

// serveOut is what the serve phase measured.
type serveOut struct {
	qps, p50us, p99us float64
	requests          int
	windows           int
	swaps             []time.Duration
}

// serveWindow is the length of the slices the measured traffic is cut into;
// http_p99_us is the median of their p99s, so one scheduler stall moves one
// window, not the metric.
const serveWindow = 500 * time.Millisecond

// inlineSwapEvery spaces the swapping workload's in-line PUTs: about thirty
// swaps in a 15-second run, under a tenth of connection 0's time.
const inlineSwapEvery = 300 * time.Millisecond

// idleSwapCount is how many back-to-back swaps the non-swapping workloads
// time after their traffic.
const idleSwapCount = 16

// servePhase publishes the trained artifact on a real listener, warms the
// server, drives the closed loop for the budget and measures swap latency —
// in-line on connection 0 for the swapping workload, on the idle server
// afterwards for the others.
func (r *run) servePhase(ctx context.Context, m *matchOut, budget time.Duration) (*serveOut, error) {
	t, err := r.buildTraffic(m)
	if err != nil {
		return nil, err
	}
	s, err := startServer(m.artifact, r.tr)
	if err != nil {
		return nil, err
	}
	defer s.stop(ctx)
	sw := &swapper{url: s.url, artifacts: [2][]byte{r.prev.artifact, m.artifact}}

	warm := min(budget/6, time.Second)
	budget = max(budget-warm, serveWindow)
	r.drive(s, t, r.tr, warm, 0, nil)
	runtime.GC()

	var swapEvery time.Duration
	if r.w.swapInline {
		swapEvery = inlineSwapEvery
	}
	load := r.drive(s, t, r.tr, budget, swapEvery, sw)
	out := &serveOut{requests: len(load.samples), swaps: load.swaps}
	if !r.w.swapInline {
		out.swaps = r.idleSwaps(sw, idleSwapCount)
	}
	if len(load.samples) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d failed)", load.bad)
	}
	out.qps = float64(len(load.samples)) / load.elapsed.Seconds()
	all := load.latencies()
	nWin := max(int(budget/serveWindow), 1)
	byWin := make([][]float64, nWin)
	for i, sm := range load.samples {
		wi := min(int(sm.end/serveWindow), nWin-1)
		byWin[wi] = append(byWin[wi], all[i])
	}
	out.p50us = median(all)
	var p99s []float64
	for _, ws := range byWin {
		if len(ws) >= 100 {
			p99s = append(p99s, quantile(ws, 0.99))
		}
	}
	if len(p99s) == 0 {
		p99s = []float64{quantile(all, 0.99)}
	}
	out.windows = len(p99s)
	out.p99us = median(p99s)
	return out, nil
}
