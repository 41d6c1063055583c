// Open-loop load engine (fabbench/Lancet style): requests fire at
// scheduled times drawn from an arrival process, regardless of how fast
// the server answers. Two latencies are recorded per request:
//
//   - corrected — completion minus *scheduled* arrival. If the generator
//     (or a full outstanding window) delays the send, that stall counts
//     against the server, which is exactly the coordinated-omission
//     correction: a closed-loop generator would silently absorb it.
//   - service — completion minus actual send, the server-only view.
//
// The outstanding-request window (-max-outstanding) bounds this process's
// resources, not the offered load: an arrival that finds the window full
// is still *sent late* rather than dropped, so its corrected latency
// carries the full queueing penalty.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// openLoopOptions configures one open-loop measurement phase.
type openLoopOptions struct {
	rate           float64 // offered arrivals per second
	duration       time.Duration
	arrival        string // poisson | uniform | fixed
	mix            *reqMix
	maxOutstanding int
	seed           int64
}

// kindStat aggregates one request kind's outcomes.
type kindStat struct {
	Sent     int `json:"sent"`
	OK       int `json:"ok"`
	Degraded int `json:"degraded"` // subset of OK answered via brownout
	Shed429  int `json:"shed_429"`
	Shed503  int `json:"shed_503"`
	Errors   int `json:"errors"`
}

// openResult is one open-loop phase's report.
type openResult struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"` // OK responses per second
	ElapsedS    float64 `json:"elapsed_s"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Degraded    int     `json:"degraded"`
	Shed429     int     `json:"shed_429"`
	Shed503     int     `json:"shed_503"`
	Errors      int     `json:"errors"`
	// Availability is the fraction of arrivals that got *an* HTTP answer
	// (success or a well-formed shed) rather than a transport failure.
	Availability float64 `json:"availability"`
	// Corrected percentiles measure completion minus scheduled arrival
	// (coordinated-omission corrected); service percentiles measure
	// completion minus actual send.
	CorrectedP50MS float64 `json:"corrected_p50_ms"`
	CorrectedP95MS float64 `json:"corrected_p95_ms"`
	CorrectedP99MS float64 `json:"corrected_p99_ms"`
	ServiceP50MS   float64 `json:"service_p50_ms"`
	ServiceP95MS   float64 `json:"service_p95_ms"`
	ServiceP99MS   float64 `json:"service_p99_ms"`

	ByKind map[string]*kindStat `json:"by_kind"`
}

// badFrac is the fraction of arrivals not answered 200 — shed, errored,
// or lost — the load the server failed to serve at this offered rate.
func (r *openResult) badFrac() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Sent-r.OK) / float64(r.Sent)
}

// recorder collects per-request outcomes under a mutex.
type recorder struct {
	mu        sync.Mutex
	byKind    map[string]*kindStat
	corrected []time.Duration
	service   []time.Duration
}

func newRecorder() *recorder { return &recorder{byKind: map[string]*kindStat{}} }

func (rec *recorder) stat(kind string) *kindStat {
	s := rec.byKind[kind]
	if s == nil {
		s = &kindStat{}
		rec.byKind[kind] = s
	}
	return s
}

func (rec *recorder) record(kind string, status int, degraded bool, corrected, service time.Duration, err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.stat(kind)
	s.Sent++
	switch {
	case err != nil:
		s.Errors++
	case status == http.StatusTooManyRequests:
		s.Shed429++
	case status == http.StatusServiceUnavailable:
		s.Shed503++
	case status == http.StatusOK:
		s.OK++
		if degraded {
			s.Degraded++
		}
		rec.corrected = append(rec.corrected, corrected)
		rec.service = append(rec.service, service)
	default:
		s.Errors++
	}
}

// openLoopPaths builds the per-kind request templates once per run.
type openLoopPaths struct {
	probe  string
	drills []string
	sweep  string
}

func (lg *loadgen) buildPaths(xvar, yvar string, fine int) openLoopPaths {
	common := fmt.Sprintf("dataset=%s&step=%d", url.QueryEscape(lg.dataset), lg.step)
	if lg.backend != "" {
		common += "&backend=" + url.QueryEscape(lg.backend)
	}
	t1 := lg.yLo + 0.6*(lg.yHi-lg.yLo)
	q1 := fmt.Sprintf("%s > %g", yvar, t1)
	p := openLoopPaths{
		// One fixed key: after the first computation every probe is a cache
		// hit and exercises the admission bypass.
		probe: fmt.Sprintf("/v1/hist1d?%s&var=%s&bins=64&q=%s",
			common, url.QueryEscape(yvar), url.QueryEscape(q1)),
		sweep: fmt.Sprintf("/v1/sweep2d?%s&x=%s&y=%s&xbins=32&ybins=32&q=%s",
			common, url.QueryEscape(xvar), url.QueryEscape(yvar), url.QueryEscape(q1)),
	}
	// Drill-downs cycle through distinct compound cuts so most are real
	// backend work, with enough repetition for a warm cache to matter.
	xmid := (lg.xLo + lg.xHi) / 2
	for i := 0; i < 32; i++ {
		frac := 0.5 + 0.4*float64(i)/31
		t := lg.yLo + frac*(lg.yHi-lg.yLo)
		q := fmt.Sprintf("%s > %g && %s > %g", yvar, t, xvar, xmid)
		p.drills = append(p.drills, fmt.Sprintf("/v1/hist2d?%s&x=%s&y=%s&xbins=%d&ybins=%d&q=%s",
			common, url.QueryEscape(xvar), url.QueryEscape(yvar), fine, fine, url.QueryEscape(q)))
	}
	return p
}

// doOpen issues one open-loop request and reports status, degraded
// marker and completion time.
func (lg *loadgen) doOpen(kind string, paths openLoopPaths, i int) (status int, degraded bool, err error) {
	var resp *http.Response
	switch kind {
	case kindProbe:
		resp, err = lg.client.Get(lg.base + paths.probe)
	case kindDrill:
		resp, err = lg.client.Get(lg.base + paths.drills[i%len(paths.drills)])
	case kindSweep:
		resp, err = lg.client.Get(lg.base + paths.sweep)
	default:
		return 0, false, fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	_, cerr := io.Copy(io.Discard, resp.Body)
	if cerr != nil {
		return resp.StatusCode, false, cerr
	}
	return resp.StatusCode, resp.Header.Get("X-Degraded") != "", nil
}

// runOpenLoop drives one phase at the configured offered rate.
func (lg *loadgen) runOpenLoop(opt openLoopOptions, paths openLoopPaths) (*openResult, error) {
	if opt.rate <= 0 {
		return nil, fmt.Errorf("open loop needs -rate > 0")
	}
	mean := time.Duration(float64(time.Second) / opt.rate)
	rng := rand.New(rand.NewSource(opt.seed))
	rec := newRecorder()
	// The window bounds concurrency, not load: a full window delays the
	// send, and the delay lands in the corrected latency.
	window := make(chan struct{}, opt.maxOutstanding)
	var wg sync.WaitGroup

	start := time.Now()
	next := start
	seq := 0
	for {
		gap, err := arrivalGap(rng, opt.arrival, mean)
		if err != nil {
			return nil, err
		}
		next = next.Add(gap)
		if next.Sub(start) > opt.duration {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		kind := opt.mix.pick(rng)
		scheduled := next
		i := seq
		seq++
		window <- struct{}{} // blocks when the window is full: a late send
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-window }()
			sent := time.Now()
			status, degraded, err := lg.doOpen(kind, paths, i)
			done := time.Now()
			rec.record(kind, status, degraded, done.Sub(scheduled), done.Sub(sent), err)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	res := &openResult{
		OfferedQPS: opt.rate,
		ElapsedS:   elapsed.Seconds(),
		ByKind:     rec.byKind,
	}
	for _, s := range rec.byKind {
		res.Sent += s.Sent
		res.OK += s.OK
		res.Degraded += s.Degraded
		res.Shed429 += s.Shed429
		res.Shed503 += s.Shed503
		res.Errors += s.Errors
	}
	if res.ElapsedS > 0 {
		res.AchievedQPS = float64(res.OK) / res.ElapsedS
	}
	if res.Sent > 0 {
		res.Availability = float64(res.Sent-res.Errors) / float64(res.Sent)
	}
	res.CorrectedP50MS = percentileMS(rec.corrected, 50)
	res.CorrectedP95MS = percentileMS(rec.corrected, 95)
	res.CorrectedP99MS = percentileMS(rec.corrected, 99)
	res.ServiceP50MS = percentileMS(rec.service, 50)
	res.ServiceP95MS = percentileMS(rec.service, 95)
	res.ServiceP99MS = percentileMS(rec.service, 99)
	return res, nil
}

func (r *openResult) print(w io.Writer) {
	fmt.Fprintf(w, "open loop: offered %.1f qps  achieved %.1f qps  elapsed %.1fs\n",
		r.OfferedQPS, r.AchievedQPS, r.ElapsedS)
	fmt.Fprintf(w, "sent %d  ok %d (degraded %d)  shed 429 %d  shed 503 %d  errors %d  availability %.3f\n",
		r.Sent, r.OK, r.Degraded, r.Shed429, r.Shed503, r.Errors, r.Availability)
	fmt.Fprintf(w, "corrected ms  p50 %.2f  p95 %.2f  p99 %.2f   (service p50 %.2f  p95 %.2f  p99 %.2f)\n",
		r.CorrectedP50MS, r.CorrectedP95MS, r.CorrectedP99MS,
		r.ServiceP50MS, r.ServiceP95MS, r.ServiceP99MS)
	// Sorted, so two reports of the same run read the same.
	kinds := make([]string, 0, len(r.ByKind))
	for kind := range r.ByKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		s := r.ByKind[kind]
		fmt.Fprintf(w, "  %-6s sent %-6d ok %-6d degraded %-5d 429 %-5d 503 %-5d err %d\n",
			kind, s.Sent, s.OK, s.Degraded, s.Shed429, s.Shed503, s.Errors)
	}
}
