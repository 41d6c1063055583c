package main

// The traced pass. Three sources feed the per-layer metrics:
//
//	window   the measured window itself, per kind (sources H and S)
//	replay   the workload's first requests asked again by one client against
//	         fresh, warmed fleets: once plain, once with ?debug=explain, whose
//	         totals are the counts (source X)
//	ladder   the same requests pushed through each layer's public functions
//	         inside this process, a span around every call (source L)
//
// Spans and counts are kept in memory and written to results/trace.json when
// the pass ends. Nothing here runs during an untraced pass.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is an index into the tracer's span list, -1 for a root.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	N       float64 `json:"n,omitempty"` // work done inside: values, words, rows, bytes
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer is the in-memory span list.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(req int, name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i, recording how much work n it covered.
func (t *tracer) end(i int, n float64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.spans[i].N = n
	t.mu.Unlock()
}

// self is span i's duration minus the part its direct children cover.
// Children of one parent never overlap here: the ladder is single-threaded.
func (t *tracer) self(i int) time.Duration {
	d := t.spans[i].dur()
	for _, c := range t.spans {
		if c.Parent == i {
			d -= c.dur()
		}
	}
	return d
}

// named returns the indexes of the spans with the given name.
func (t *tracer) named(name string) []int {
	var out []int
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// medianUS is the median duration of the named spans, in microseconds.
func (t *tracer) medianUS(name string) float64 {
	var d []float64
	for _, i := range t.named(name) {
		d = append(d, us(t.spans[i].dur()))
	}
	return median(d)
}

// perUnitNS is total nanoseconds over total work of the named spans.
func (t *tracer) perUnitNS(name string) float64 {
	var ns, n float64
	for _, i := range t.named(name) {
		ns += float64(t.spans[i].dur())
		n += t.spans[i].N
	}
	return ratio(ns, n)
}

// explainBody is the part of serve.ExplainBody the harness reads.
type explainBody struct {
	Outcome   string `json:"outcome"`
	Fragments []struct {
		Op     string  `json:"op"`
		Cached bool    `json:"cached"`
		EvalMS float64 `json:"eval_ms"`
	} `json:"fragments"`
	Totals struct {
		Rows            float64 `json:"rows_scanned"`
		ValuesRead      float64 `json:"values_read"`
		DataBytes       float64 `json:"data_bytes"`
		IndexBytes      float64 `json:"index_bytes"`
		IndexLoads      float64 `json:"index_loads"`
		BitmapOps       float64 `json:"bitmap_ops"`
		CandidateChecks float64 `json:"candidate_checks"`
	} `json:"totals"`
	AdmissionWaitMS float64 `json:"admission_wait_ms"`
}

// work is the amount of data a request touched, the numerator and
// denominator of shard.work_amplification.
func (e explainBody) work() float64 {
	return e.Totals.DataBytes + e.Totals.IndexBytes + e.Totals.Rows
}

// withExplain asks for the explain profile beside the answer.
func withExplain(c call) call {
	sep := "?"
	if strings.Contains(c.URL, "?") {
		sep = "&"
	}
	c.URL += sep + "debug=explain"
	c.Keep = true
	return c
}

// replayN is how many of the workload's first requests (chains, for
// session_track) the replays and the ladder use. The sharded fleet answers
// five times slower, so it gets fewer.
func (r *run) replayN() int {
	switch r.w.Name {
	case "explore_shard3":
		return 40
	case "session_track":
		return 8
	}
	return 100
}

// replay asks the workload's first requests of a fresh fleet of the given
// kind, warmed like the measured one, with a single client. It returns the
// window and, when explain is set, the explain profile of every answer that
// carried one.
func (r *run) replay(kind fleetKind, explain bool, tag string) (*windowResult, []explainBody, error) {
	sub := &run{p: r.p, prof: r.prof, w: r.w, seed: r.seed, window: r.window, trace: true}
	err := sub.bringUp(kind, r.w.Name+"-"+tag)
	if sub.fleet != nil {
		defer sub.fleet.stop()
	}
	if err != nil {
		return nil, nil, err
	}
	f := sub.fleet
	f.explain = explain
	var win *windowResult
	if r.w.Name == "session_track" {
		win = closedLoop(f, 1, func(_ int, issue issueFunc) {
			for i := 0; i < r.replayN(); i++ {
				sub.runChain(sub.nextChain(), issue)
			}
		})
	} else {
		win = countLoop(f, 1, sub.firstCalls(r.replayN()))
	}
	if len(win.Errs) > 0 {
		return nil, nil, fmt.Errorf("replay: %s", win.Errs[0])
	}
	var profiles []explainBody
	for _, k := range win.Kept {
		var body struct {
			Explain *explainBody `json:"explain"`
		}
		if json.Unmarshal(k.Body, &body) == nil && body.Explain != nil {
			profiles = append(profiles, *body.Explain)
		}
	}
	return win, profiles, nil
}

// firstCalls returns the first n calls of the measured stream; Warm must
// have run, so the stream stands right after the warm-up.
func (r *run) firstCalls(n int) []call {
	out := make([]call, 0, n)
	for i := 0; i < n; i++ {
		var q request
		if r.hot != nil {
			q = r.hot.Keys[i%len(r.hot.Keys)]
		} else {
			q = r.stream.next()
		}
		out = append(out, reqCall(q, true))
	}
	return out
}

// explainLayers folds explain profiles into the source-X metrics.
func explainLayers(ps []explainBody) map[string]float64 {
	out := map[string]float64{}
	if len(ps) == 0 {
		return out
	}
	n := float64(len(ps))
	var frags, twoPhase, wait, idxBytes, idxLoads, checks, ops, data, values, rows float64
	var stragglers []float64
	for _, p := range ps {
		frags += float64(len(p.Fragments))
		var evals []float64
		minmax := false
		for _, f := range p.Fragments {
			if f.Op == "minmax" {
				minmax = true
			} else if !f.Cached {
				evals = append(evals, f.EvalMS)
			}
		}
		if minmax {
			twoPhase++
		}
		if len(evals) >= 2 {
			s := sortedCopy(evals)
			if m := quantile(s, 0.5); m > 0 {
				stragglers = append(stragglers, s[len(s)-1]/m)
			}
		}
		wait += p.AdmissionWaitMS
		idxBytes += p.Totals.IndexBytes
		idxLoads += p.Totals.IndexLoads
		checks += p.Totals.CandidateChecks
		ops += p.Totals.BitmapOps
		data += p.Totals.DataBytes
		values += p.Totals.ValuesRead
		rows += p.Totals.Rows
	}
	out["plan.fragments_per_op"] = frags / n
	out["plan.two_phase_ratio"] = twoPhase / n
	out["serve.admission_wait_us"] = 1000 * wait / n
	out["fastbit.index_bytes_per_op"] = idxBytes / n
	out["fastbit.index_loads_per_op"] = idxLoads / n
	out["fastbit.candidate_checks_per_op"] = checks / n
	out["bitmap.ops_per_op"] = ops / n
	out["colstore.data_bytes_per_op"] = data / n
	out["colstore.gather_bytes_per_value"] = ratio(data, values)
	out["scan.rows_scanned_per_op"] = rows / n
	out["shard.straggler_ratio"] = median(stragglers)
	return out
}

// tracedPass produces every per-layer metric for a measured window.
func tracedPass(m *measured) (map[string]float64, error) {
	r := m.run
	out := m.windowLayers()

	plain, _, err := r.replay(r.w.Fleet, false, "replay")
	if err != nil {
		return nil, err
	}
	explained, profiles, err := r.replay(r.w.Fleet, true, "explain")
	if err != nil {
		return nil, err
	}
	for k, v := range explainLayers(profiles) {
		out[k] = v
	}
	pPlain, pExplain := median(plain.latencies("")), median(explained.latencies(""))
	out["obs.explain_overhead_frac"] = ratio(pExplain, pPlain) - 1

	if r.w.Fleet == fleetShard3 {
		// The same requests on one process: the work sharding multiplies.
		_, local, err := r.replay(fleetLocal, true, "explain-local")
		if err != nil {
			return nil, err
		}
		var sharded, single float64
		for _, p := range profiles {
			sharded += p.work()
		}
		for _, p := range local {
			single += p.work()
		}
		out["shard.work_amplification"] = ratio(sharded, single)
	}

	tr := newTracer()
	ladder, err := runLadder(r, tr, plain)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range ladder {
		out[k] = v
	}
	out["serve.miss_overhead_us"] = 1000*pPlain - out["plan.execute_us"]
	if r.w.Name == "dash_hot" || r.w.Name == "session_track" {
		// Cached answers and session calls never reach plan.Execute.
		out["serve.miss_overhead_us"] = 0
	}
	return out, writeTrace(r, tr, profiles)
}

// writeTrace stores the span list and the explain counts beside the logs.
func writeTrace(r *run, tr *tracer, profiles []explainBody) error {
	doc := struct {
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Spans    []span        `json:"spans"`
		Explain  []explainBody `json:"explain"`
	}{r.w.Name, r.seed, tr.spans, profiles}
	if err := os.MkdirAll(r.p.Results, 0o755); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(r.p.Results, "trace.json"), doc)
}
