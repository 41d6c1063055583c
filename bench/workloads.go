package main

// The five workloads. Each names its topology, warms a fresh fleet with a
// sub-stream the measured window never repeats, drives the window, and hands
// back what the correctness checks need.

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"
)

// workload is one traffic mix against one topology.
type workload struct {
	Name  string
	Why   string
	Fleet fleetKind
	Steps int // steps the traffic targets
	// Warm plays the warm-up; Window drives the measured window; Check runs
	// the post-window correctness checks and returns how many answers it
	// checked and which were wrong.
	Warm   func(r *run) error
	Window func(r *run) *windowResult
	Check  func(r *run, w *windowResult) (checked int, wrong []string)
}

const (
	clients    = 2   // closed-loop analysts, and the connection budget
	hotRate    = 100 // dash_hot arrivals per second
	warmStream = 24  // stream requests in an explore warm-up, after the touches
	checkN     = 25  // answers re-asked by a post-window check
	ingestTick = time.Second
	pollEvery  = 25 * time.Millisecond
)

var workloads = []*workload{
	{
		Name:  "explore_local",
		Why:   "never-repeating drill-down over 12 steps on one process: kernels, gathers and column reads do the work, caches and RPC none",
		Fleet: fleetLocal, Steps: d12Steps,
		Warm: exploreWarm, Window: exploreWindow, Check: checkScanAgrees,
	},
	{
		Name:  "explore_shard3",
		Why:   "the byte-identical stream on 3 shards + frontend: scatter/merge, gob RPC and the N-times replicated selection work dominate",
		Fleet: fleetShard3, Steps: d12Steps,
		Warm: exploreWarm, Window: exploreWindow, Check: checkLocalAgrees,
	},
	{
		Name:  "dash_hot",
		Why:   "open loop at 100 req/s over 48 cached panels, Zipf(1.1): parse, cache lookup and JSON encode are the whole cost",
		Fleet: fleetLocal, Steps: d12Steps,
		Warm: hotWarm, Window: hotWindow, Check: checkScanAgrees,
	},
	{
		Name:  "session_track",
		Why:   "one analyst: brush, 4 refinements, track, views, 12-step sweep per chain: positional gathers, bitmap algebra, ID lookups, serial step walks",
		Fleet: fleetLocal, Steps: d12Steps,
		Warm: sessionWarm, Window: sessionWindow, Check: checkSessions,
	},
	{
		Name:  "ingest_live",
		Why:   "reads beside one 50k-row ingest per second on a live copy: column writes, catalog commits, background index builds, invalidation",
		Fleet: fleetLive, Steps: liveBase,
		Warm: ingestWarm, Window: ingestWindow, Check: checkDurable,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// run is the state of one workload execution.
type run struct {
	p      paths
	prof   *profile
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool

	fleet   *fleet
	dataDir string

	stream *stream   // explore_*, ingest_live
	hot    *hotSet   // dash_hot
	chains *chainGen // session_track

	mu       sync.Mutex
	sessions []sessionOutcome // session_track: what each chain ended with
	acks     []ingestAck      // ingest_live: acknowledged steps
	lags     []float64        // ingest_live: commit ack -> indexed, ms
	quiet    []float64        // ingest_live: reader latencies before the writer starts, ms
	selBytes []float64        // session_track: stored size of each selection
}

// keep is how many of the window's first answers are held back for the
// checks; the traced pass keeps more, to measure the selectivity span.
func (r *run) keep() int {
	if r.trace {
		return 100
	}
	return 30
}

func reqCall(r request, keep bool) call {
	rc := r
	return call{Kind: r.Kind, URL: r.URL(), Keep: keep, Req: &rc}
}

func reqCalls(rs []request) []call {
	out := make([]call, len(rs))
	for i, r := range rs {
		out[i] = reqCall(r, false)
	}
	return out
}

// ---- explore_local / explore_shard3 ----

func exploreWarm(r *run) error {
	r.stream = newStream(r.seed, r.prof, exploreMix, r.w.Steps)
	return r.warm(append(r.touches(), reqCalls(r.stream.take(warmStream))...))
}

func exploreWindow(r *run) *windowResult {
	n := 0
	return streamLoop(r.fleet, clients, r.window, func() call {
		n++
		return reqCall(r.stream.next(), n <= r.keep())
	})
}

// ---- dash_hot ----

func hotWarm(r *run) error {
	r.hot = newHotSet(r.seed, r.prof, r.w.Steps)
	return r.warm(append(r.touches(), reqCalls(r.hot.Keys)...))
}

func hotWindow(r *run) *windowResult {
	sec := r.window.Seconds()
	due := arrivals(int(hotRate*sec), sec)
	calls := make([]call, len(due))
	seen := map[string]bool{}
	for i, k := range r.hot.sequence(len(due)) {
		// Keep the first answer of each panel, up to keep() panels.
		keep := !seen[k.URL()] && len(seen) < r.keep()
		seen[k.URL()] = true
		calls[i] = reqCall(k, keep)
	}
	return openLoop(r.fleet, due, calls)
}

// ---- session_track ----

// sessionOutcome is what a chain's last refinement reported, checked
// against /v1/query on the folded predicate after the window.
type sessionOutcome struct {
	Chain   chain
	Expr    string // the server's folded canonical predicate
	Matches uint64
	// TrackOK: every selected particle was found at the step it was
	// brushed on.
	TrackOK bool
}

// sessionWarm adds two whole chains to the touches: they pay the ID-index
// and sweep loads a count cannot reach.
func sessionWarm(r *run) error {
	r.chains = newChainGen(r.seed, r.prof, r.w.Steps)
	if err := r.warm(r.touches()); err != nil {
		return err
	}
	w := closedLoop(r.fleet, clients, func(_ int, issue issueFunc) { r.runChain(r.nextChain(), issue) })
	r.sessions = nil
	if len(w.Errs) > 0 {
		return fmt.Errorf("warm-up chain: %s", w.Errs[0])
	}
	return nil
}

// runChain plays one chain. It returns false if a step failed (the failure
// is already recorded as a failed sample).
func (r *run) runChain(c chain, issue issueFunc) bool {
	a := issue(call{Kind: kindSession, Method: "POST", URL: "/v1/session"})
	var info struct {
		ID string `json:"id"`
	}
	if !a.ok() || json.Unmarshal(a.Body, &info) != nil || info.ID == "" {
		return false
	}
	sid := "/v1/session/" + url.PathEscape(info.ID)
	defer issue(call{Kind: kindSession, Method: "DELETE", URL: sid})

	sel := func(kind, q, extra string) (selectBody, bool) {
		v := url.Values{"step": {strconv.Itoa(c.Step)}, "q": {q}}
		a := issue(call{Kind: kind, Method: "POST", URL: sid + "/select?" + v.Encode() + extra})
		var body selectBody
		if !a.ok() || json.Unmarshal(a.Body, &body) != nil {
			return body, false
		}
		return body, true
	}
	last, ok := sel(kindSelect, c.Brush, "")
	if !ok {
		return false
	}
	for _, d := range c.Deltas {
		if last, ok = sel(kindRefine, d, "&refine=and"); !ok {
			return false
		}
	}
	a = issue(call{Kind: kindTrack, Method: "POST", URL: sid + "/track"})
	var tr struct {
		IDs    int      `json:"ids"`
		Steps  []int    `json:"steps"`
		Counts []uint64 `json:"counts"`
	}
	if !a.ok() || json.Unmarshal(a.Body, &tr) != nil {
		return false
	}
	if !issue(call{Kind: kindViews, URL: sid + "/views"}).ok() {
		return false
	}
	sweep := request{Kind: kindSweep2D, Op: "sweep2d", Step: -1, Cond: last.Expr,
		X: "x", Y: "px", XBins: 256, YBins: 256, XLo: nan, XHi: nan, YLo: nan, YHi: nan}
	if !issue(reqCall(sweep, false)).ok() {
		return false
	}
	out := sessionOutcome{Chain: c, Expr: last.Expr, Matches: last.Matches,
		TrackOK: c.Step < len(tr.Counts) && tr.Counts[c.Step] == uint64(tr.IDs)}
	r.mu.Lock()
	r.sessions = append(r.sessions, out)
	r.selBytes = append(r.selBytes, float64(last.SizeBytes))
	r.mu.Unlock()
	return true
}

// selectBody is the part of serve.SessionSelectBody the harness reads.
type selectBody struct {
	Expr      string `json:"expr"`
	Matches   uint64 `json:"matches"`
	SizeBytes int64  `json:"size_bytes"`
}

func (r *run) nextChain() chain {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chains.next()
}

func sessionWindow(r *run) *windowResult {
	// One analyst: two chains at once make each other's refinements wait
	// behind sweeps, and the median request then sits in that contended
	// tail, 23 % apart between runs.
	deadline := time.Now().Add(r.window)
	return closedLoop(r.fleet, 1, func(_ int, issue issueFunc) {
		for time.Now().Before(deadline) {
			r.runChain(r.nextChain(), issue)
		}
	})
}

// ---- ingest_live ----

// ingestAck is the part of serve.IngestResponse the durability check needs.
type ingestAck struct {
	Step int    `json:"step"`
	Rows uint64 `json:"rows"`
}

// stepsBody is the part of serve.StepsBody the harness reads.
type stepsBody struct {
	Steps  int `json:"steps"`
	Detail []struct {
		Step       int    `json:"step"`
		Rows       uint64 `json:"rows"`
		IndexState string `json:"index_state"`
	} `json:"detail"`
}

func ingestWarm(r *run) error {
	r.stream = newStream(r.seed, r.prof, ingestMix, r.w.Steps)
	return r.warm(append(r.touches(), reqCalls(r.stream.take(warmStream))...))
}

func (r *run) stepsDetail() (stepsBody, error) {
	var sb stepsBody
	a := r.fleet.do(call{URL: "/v1/steps?detail=1"})
	if !a.ok() {
		return sb, a.Err
	}
	return sb, json.Unmarshal(a.Body, &sb)
}

func ingestWindow(r *run) *windowResult {
	if r.trace {
		// The reader alone, for ingest.reader_slowdown's denominator.
		quiet := streamLoop(r.fleet, 1, time.Second, func() call { return reqCall(r.stream.next(), false) })
		r.quiet = quiet.staticLatencies()
	}
	deadline := time.Now().Add(r.window)
	n := 0
	return closedLoop(r.fleet, clients, func(client int, issue issueFunc) {
		if client == 0 { // the reader
			for time.Now().Before(deadline) {
				n++
				issue(reqCall(r.stream.next(), n <= r.keep()))
			}
			return
		}
		// The writer: one step per tick, then watch it until its index lands.
		for k := 0; ; k++ {
			tick := time.Now()
			if !tick.Add(ingestTick / 2).Before(deadline) {
				return
			}
			body, err := os.ReadFile(r.p.body(k % liveBodies))
			if err != nil {
				issue(call{Kind: kindIngest, Method: "POST", URL: "/v1/ingest?missing-body"})
				return
			}
			a := issue(call{Kind: kindIngest, Method: "POST", URL: "/v1/ingest", Body: body})
			acked := time.Now()
			var ack ingestAck
			if a.ok() && json.Unmarshal(a.Body, &ack) == nil {
				r.acks = append(r.acks, ack)
				for time.Now().Before(tick.Add(ingestTick)) {
					sb, err := r.stepsDetail()
					if err == nil && ack.Step < len(sb.Detail) && sb.Detail[ack.Step].IndexState == "indexed" {
						r.lags = append(r.lags, ms(time.Since(acked)))
						break
					}
					time.Sleep(pollEvery)
				}
			}
			if rest := time.Until(tick.Add(ingestTick)); rest > 0 {
				time.Sleep(rest)
			}
		}
	})
}

// prepare makes the directory the fleet serves: D12 itself, or a fresh
// private copy for the live workload.
func (r *run) prepare() error {
	if r.w.Fleet != fleetLive {
		r.dataDir = r.p.d12()
		return nil
	}
	r.dataDir = r.p.liveDir()
	return liveCopy(r.p, r.dataDir)
}

// touches returns the per-step counts that pay the lazy index loads.
func (r *run) touches() []call {
	return reqCalls(touchRequests(r.seed, r.prof, r.w.Steps))
}

// warm plays warm-up calls through the closed loop and fails if any did.
func (r *run) warm(calls []call) error {
	w := countLoop(r.fleet, clients, calls)
	if len(w.Errs) > 0 {
		return fmt.Errorf("warm-up: %s", w.Errs[0])
	}
	return nil
}
