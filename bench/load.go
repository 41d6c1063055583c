package main

// The load generator: one process, at most maxConns connections. Closed loops
// run one script per client (each analyst waits for the answer before asking
// again); the open loop sends on a schedule whatever the server does and
// times every request from its due time.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// call is one HTTP request to send.
type call struct {
	Kind   string
	Method string // "" = GET
	URL    string // path and query, relative to the fleet's base
	Body   []byte
	Keep   bool // keep the answer's body for the correctness checks
	Req    *request
}

// answer is what came back.
type answer struct {
	Body []byte
	Err  error
}

// ok reports whether the answer counts as a success: transport fine, 2xx,
// neither partial nor degraded.
func (a answer) ok() bool { return a.Err == nil }

// sample is one timed request.
type sample struct {
	Kind  string
	Lat   time.Duration
	Bytes int
	OK    bool
}

// kept is an answer held back for checking.
type kept struct {
	Call call
	Body []byte
}

// recorder collects one client's samples; clients never share one. buf is
// the client's read buffer: answers are read into it again and again, so a
// window that moves megabytes a second leaves the harness no garbage to
// collect in the middle of somebody's latency.
type recorder struct {
	buf     bytes.Buffer
	samples []sample
	kept    []kept
	errs    []string
	open    []openLoopSample
}

func (r *recorder) note(c call, a answer, lat time.Duration) {
	r.samples = append(r.samples, sample{Kind: c.Kind, Lat: lat, Bytes: len(a.Body), OK: a.ok()})
	if !a.ok() && len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s %s: %v", c.Kind, c.URL, a.Err))
	}
	if c.Keep && a.ok() {
		r.kept = append(r.kept, kept{Call: c, Body: bytes.Clone(a.Body)})
	}
}

// windowResult is everything a measured window produced.
type windowResult struct {
	Samples []sample
	Kept    []kept
	Errs    []string
	Open    []openLoopSample
	Elapsed time.Duration
}

func merge(recs []*recorder, elapsed time.Duration) *windowResult {
	w := &windowResult{Elapsed: elapsed}
	for _, r := range recs {
		w.Samples = append(w.Samples, r.samples...)
		w.Kept = append(w.Kept, r.kept...)
		w.Errs = append(w.Errs, r.errs...)
		w.Open = append(w.Open, r.open...)
	}
	return w
}

// latencies returns the latencies (ms) of the ok samples of one kind, or of
// all kinds when kind is "".
func (w *windowResult) latencies(kind string) []float64 {
	var out []float64
	for _, s := range w.Samples {
		if s.OK && (kind == "" || s.Kind == kind) {
			out = append(out, ms(s.Lat))
		}
	}
	return out
}

func (w *windowResult) okCount() int {
	n := 0
	for _, s := range w.Samples {
		if s.OK {
			n++
		}
	}
	return n
}

// do sends one call and reads the whole answer into a buffer of its own.
func (f *fleet) do(c call) answer {
	var buf bytes.Buffer
	return f.doInto(c, &buf)
}

// doInto sends one call and reads the whole answer into buf; the answer's
// body is valid until buf is used again. An answer marked X-Partial or
// X-Degraded is a failure: the workloads are sized so none should be.
func (f *fleet) doInto(c call, into *bytes.Buffer) answer {
	method := c.Method
	if method == "" {
		method = http.MethodGet
	}
	var body io.Reader
	if c.Body != nil {
		body = bytes.NewReader(c.Body)
	}
	req, err := http.NewRequest(method, f.base+c.URL, body)
	if err != nil {
		return answer{Err: err}
	}
	if c.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return answer{Err: err}
	}
	defer resp.Body.Close()
	into.Reset()
	_, err = into.ReadFrom(resp.Body)
	buf := into.Bytes()
	a := answer{Body: buf, Err: err}
	switch {
	case err != nil:
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		a.Err = fmt.Errorf("status %d: %.200s", resp.StatusCode, buf)
	case resp.Header.Get("X-Partial") != "":
		a.Err = fmt.Errorf("partial answer")
	case resp.Header.Get("X-Degraded") != "":
		a.Err = fmt.Errorf("degraded answer (%s)", resp.Header.Get("X-Degraded"))
	case len(buf) == 0:
		a.Err = fmt.Errorf("empty body")
	}
	return a
}

// issueFunc sends a call, records it, and returns the answer to the script.
// The answer's body is the client's read buffer: valid until the client
// issues its next call.
type issueFunc func(call) answer

// closedLoop runs script once per client concurrently until each returns.
// Scripts check the deadline themselves between requests (or chains), so a
// started unit of work always completes and Elapsed covers it.
func closedLoop(f *fleet, clients int, script func(client int, issue issueFunc)) *windowResult {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range recs {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			script(c, func(cl call) answer {
				if f.explain {
					cl = withExplain(cl)
				}
				t0 := time.Now()
				a := f.doInto(cl, &rec.buf)
				rec.note(cl, a, time.Since(t0))
				return a
			})
		}(c)
	}
	wg.Wait()
	return merge(recs, time.Since(start))
}

// streamLoop is the plain closed loop: every client takes the next call of a
// shared stream until the window ends.
func streamLoop(f *fleet, clients int, window time.Duration, next func() call) *windowResult {
	var mu sync.Mutex
	deadline := time.Now().Add(window)
	return closedLoop(f, clients, func(_ int, issue issueFunc) {
		for time.Now().Before(deadline) {
			mu.Lock()
			c := next()
			mu.Unlock()
			issue(c)
		}
	})
}

// countLoop sends exactly the given calls through a closed loop: warm-up and
// replays, where the amount of work rather than the time is fixed.
func countLoop(f *fleet, clients int, calls []call) *windowResult {
	i := 0
	var mu sync.Mutex
	return closedLoop(f, clients, func(_ int, issue issueFunc) {
		for {
			mu.Lock()
			if i >= len(calls) {
				mu.Unlock()
				return
			}
			c := calls[i]
			i++
			mu.Unlock()
			issue(c)
		}
	})
}

// openLoop sends calls[i] at due[i] seconds after the start over maxConns
// connections. A request waits for a free connection if both are busy; that
// wait, like the service time, is charged to the request from its due time.
func openLoop(f *fleet, due []float64, calls []call) *windowResult {
	recs := make([]*recorder, maxConns)
	var (
		mu sync.Mutex
		i  int
		wg sync.WaitGroup
	)
	start := time.Now()
	for c := range recs {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for {
				mu.Lock()
				if i >= len(calls) {
					mu.Unlock()
					return
				}
				k := i
				i++
				mu.Unlock()
				s := openLoopSample{
					Due:  time.Duration(due[k] * float64(time.Second)),
					Free: time.Since(start),
				}
				sleepUntil(start, s.Due)
				s.Sent = time.Since(start)
				a := f.doInto(calls[k], &rec.buf)
				s.Done = time.Since(start)
				rec.note(calls[k], a, s.Latency())
				rec.open = append(rec.open, s)
			}
		}(recs[c])
	}
	wg.Wait()
	return merge(recs, time.Since(start))
}

// spinBefore is how long before a due time the open loop stops sleeping and
// starts yielding instead: a sleeping goroutine wakes up to a millisecond
// late, which would be charged to the server as latency.
const spinBefore = 2 * time.Millisecond

// sleepUntil returns when due has passed since start, within microseconds.
func sleepUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start) - spinBefore; wait > 0 {
		time.Sleep(wait)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}
