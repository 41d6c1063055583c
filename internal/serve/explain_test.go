// Tests for the query-level EXPLAIN/ANALYZE surface, the federated
// /metrics exposition, and the SLO burn-rate flight recorder.
//
// The load-bearing property is the merge identity: the per-fragment cost
// breakdown in an explain must sum exactly to the query totals, for any
// shard split, either backend, and partial merges included — if the sums
// drift, the explain is attributing work to the wrong place.
package serve

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
)

// explainEnvelope decodes any endpoint body down to the fields the
// explain tests assert on.
type explainEnvelope struct {
	Outcome string       `json:"outcome"`
	Partial bool         `json:"partial"`
	Explain *ExplainBody `json:"explain"`
}

// sumFragments recomputes the totals from the per-fragment breakdown.
func sumFragments(frags []plan.FragProfile) obs.CostSnapshot {
	var t obs.CostSnapshot
	for _, f := range frags {
		t.Add(f.Cost)
	}
	return t
}

// checkMergeIdentity asserts the explain invariants that hold for every
// executed (non-cache-hit) request: fragments present, shard indices in
// range, and the totals exactly the sum of the fragment costs.
func checkMergeIdentity(t *testing.T, path string, eb *ExplainBody, wantShards int) {
	t.Helper()
	if eb == nil {
		t.Fatalf("%s: no explain in body", path)
	}
	if eb.Shards != wantShards {
		t.Errorf("%s: explain shards = %d, want %d", path, eb.Shards, wantShards)
	}
	if eb.FragmentCount != len(eb.Fragments) || eb.FragmentCount == 0 {
		t.Fatalf("%s: fragment_count = %d, len(fragments) = %d, want equal and > 0",
			path, eb.FragmentCount, len(eb.Fragments))
	}
	if got := sumFragments(eb.Fragments); got != eb.Totals {
		t.Errorf("%s: merge identity broken:\n  sum(fragments) = %+v\n  totals         = %+v",
			path, got, eb.Totals)
	}
	for _, f := range eb.Fragments {
		if f.Shard < 0 || f.Shard >= wantShards {
			t.Errorf("%s: fragment shard %d out of range [0,%d)", path, f.Shard, wantShards)
		}
		if f.Op == "" {
			t.Errorf("%s: fragment missing op: %+v", path, f)
		}
	}
	if eb.TraceID == "" {
		t.Errorf("%s: explain missing trace_id", path)
	}
}

// TestExplainMergeIdentity is the acceptance property: across shard
// splits {1, 2, 3, 5, 7} and both backends, ?debug=explain returns a
// per-fragment breakdown whose costs sum exactly to the query totals.
// Fragments divide the work: on fastbit, a fresh count candidate-checks
// the same rows in total however many shards split it.
func TestExplainMergeIdentity(t *testing.T) {
	checks := map[int]uint64{}
	for _, n := range []int{1, 2, 3, 5, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			fleet := startShardFleet(t, n, nil)
			_, fts := frontendServer(t, fleet)
			for _, backend := range []string{"fastbit", "scan"} {
				q := url.QueryEscape("px > 0.0003")
				paths := []string{
					"/v1/query?dataset=lwfa&step=1&backend=" + backend + "&debug=explain&q=" + q,
					"/v1/hist1d?dataset=lwfa&step=1&backend=" + backend + "&var=x&bins=16&debug=explain&q=" + q,
					"/v1/hist2d?dataset=lwfa&step=2&backend=" + backend + "&x=x&y=px&xbins=8&ybins=8&debug=explain&q=" + q,
				}
				for _, p := range paths {
					var body explainEnvelope
					if code, raw := get(t, fts, p, &body); code != 200 {
						t.Fatalf("%s: status %d: %s", p, code, raw)
					}
					checkMergeIdentity(t, p, body.Explain, n)
					if body.Explain.Outcome != "computed" {
						t.Errorf("%s: outcome %q, want computed", p, body.Explain.Outcome)
					}
				}
				// A fresh count has no caches to hide behind: it must charge
				// real work, whichever backend ran.
				var fresh explainEnvelope
				p := "/v1/query?dataset=lwfa&step=3&backend=" + backend + "&debug=explain&q=" +
					url.QueryEscape("px > 0.0006")
				if code, raw := get(t, fts, p, &fresh); code != 200 {
					t.Fatalf("%s: status %d: %s", p, code, raw)
				}
				if fresh.Explain.Totals.IsZero() {
					t.Errorf("%s: fresh %s query charged zero cost: %+v", p, backend, fresh.Explain)
				}
				if backend == "fastbit" {
					checks[n] = fresh.Explain.Totals.CandidateChecks
				}
			}
		})
	}
	for n, c := range checks {
		if c != checks[1] {
			t.Errorf("%d shards candidate-check %d rows in total, one shard %d", n, c, checks[1])
		}
	}
	if checks[1] == 0 {
		t.Error("a fresh fastbit count candidate-checked nothing; the sum property is vacuous")
	}
}

// TestExplainSweepIdentity extends the merge identity across steps: a
// sweep's explain attributes every fragment to its step, reads back in
// (step, shard, rows.lo) order however the concurrent steps finished, sums
// exactly to its totals — and those totals are the sum of the per-step
// /v1/hist2d explains. Each side runs on its own fresh fleet: costs depend
// on what a shard already has loaded and cached, so only cold-vs-cold is
// comparable.
func TestExplainSweepIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for _, backend := range []string{"fastbit", "scan"} {
			name := fmt.Sprintf("shards=%d/%s", n, backend)
			params := "dataset=lwfa&backend=" + backend + "&x=x&y=px&xbins=8&ybins=8&debug=explain&q=" +
				url.QueryEscape("px > 0.0003")

			_, sweepTS := frontendServer(t, startShardFleet(t, n, nil))
			var sweep Sweep2DBody
			p := "/v1/sweep2d?" + params
			if code, raw := get(t, sweepTS, p, &sweep); code != 200 {
				t.Fatalf("%s: %s: status %d: %s", name, p, code, raw)
			}
			checkMergeIdentity(t, name+" "+p, sweep.Explain, n)
			if sweep.Explain.Totals.IsZero() {
				t.Fatalf("%s: cold sweep charged zero cost", name)
			}
			frags := sweep.Explain.Fragments
			perStep := map[int]obs.CostSnapshot{}
			for i, f := range frags {
				c := perStep[f.Step]
				c.Add(f.Cost)
				perStep[f.Step] = c
				if i == 0 {
					continue
				}
				prev := frags[i-1]
				if f.Step < prev.Step || (f.Step == prev.Step && f.Shard < prev.Shard) ||
					(f.Step == prev.Step && f.Shard == prev.Shard && f.Rows[0] < prev.Rows[0]) {
					t.Fatalf("%s: fragments out of (step, shard, rows.lo) order at %d: %+v then %+v", name, i, prev, f)
				}
			}
			if len(perStep) != len(sweep.Steps) {
				t.Fatalf("%s: fragments name %d steps, sweep ran %d", name, len(perStep), len(sweep.Steps))
			}

			_, stepTS := frontendServer(t, startShardFleet(t, n, nil))
			var sum obs.CostSnapshot
			for _, step := range sweep.Steps {
				var body explainEnvelope
				p := fmt.Sprintf("/v1/hist2d?step=%d&%s", step, params)
				if code, raw := get(t, stepTS, p, &body); code != 200 {
					t.Fatalf("%s: %s: status %d: %s", name, p, code, raw)
				}
				checkMergeIdentity(t, name+" "+p, body.Explain, n)
				if body.Explain.Totals != perStep[step] {
					t.Errorf("%s: step %d: sweep fragments cost %+v, hist2d explain %+v",
						name, step, perStep[step], body.Explain.Totals)
				}
				sum.Add(body.Explain.Totals)
			}
			if sum != sweep.Explain.Totals {
				t.Errorf("%s: sweep totals are not the sum of the per-step explains:\n  sweep         = %+v\n  sum(hist2d)   = %+v",
					name, sweep.Explain.Totals, sum)
			}
		}
	}
}

// TestExplainMergeIdentityLocal: a single-process server (no scatter
// client) must produce the same explain shape through the local runner.
func TestExplainMergeIdentityLocal(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, backend := range []string{"fastbit", "scan"} {
		p := "/v1/query?backend=" + backend + "&debug=explain&q=" + url.QueryEscape("px > 0.0004")
		var body explainEnvelope
		if code, raw := get(t, ts, p, &body); code != 200 {
			t.Fatalf("%s: status %d: %s", p, code, raw)
		}
		checkMergeIdentity(t, p, body.Explain, 1)
		if body.Explain.Mode != "local" {
			t.Errorf("%s: mode %q, want local", p, body.Explain.Mode)
		}
		if body.Explain.Totals.IsZero() {
			t.Errorf("%s: local %s query charged zero cost", p, backend)
		}
	}
}

// TestExplainPartialMergeIdentity: the identity must survive a partial
// merge — dead-shard fragments appear in the breakdown with an error and
// zero cost, and the sums still match.
func TestExplainPartialMergeIdentity(t *testing.T) {
	fleet := startShardFleet(t, 3, nil)
	_, fts := frontendServer(t, fleet)
	fleet.kill[1]()

	p := "/v1/query?dataset=lwfa&step=0&debug=explain&q=" + url.QueryEscape("px > 0.0009")
	var body explainEnvelope
	if code, raw := get(t, fts, p, &body); code != 200 {
		t.Fatalf("status %d: %s", code, raw)
	}
	checkMergeIdentity(t, p, body.Explain, 3)
	eb := body.Explain
	if !eb.Partial || !body.Partial {
		t.Fatalf("dead shard did not mark partial: %+v", eb)
	}
	if len(eb.FailedShards) != 1 || eb.FailedShards[0] != 1 {
		t.Fatalf("failed_shards = %v, want [1]", eb.FailedShards)
	}
	var deadFrags int
	for _, f := range eb.Fragments {
		if f.Shard != 1 {
			continue
		}
		deadFrags++
		if f.Err == "" {
			t.Errorf("dead-shard fragment missing err: %+v", f)
		}
		if !f.Cost.IsZero() {
			t.Errorf("dead-shard fragment charged cost: %+v", f)
		}
	}
	if deadFrags == 0 {
		t.Fatalf("no fragment recorded for the dead shard: %+v", eb.Fragments)
	}
	if len(eb.Replicas) != 3 {
		t.Errorf("replica view has %d shards, want 3", len(eb.Replicas))
	}
}

// TestExplainCacheSources: a result-cache hit reports cache_source
// "result" with zero fragments and zero totals — no work, no cost.
func TestExplainCacheSources(t *testing.T) {
	s, ts := testServer(t, Config{})
	q := url.QueryEscape("px > 0.0007")
	// Warm the result cache without explain (the cache key ignores debug
	// parameters, so the explained request below hits the same entry).
	if code, raw := get(t, ts, "/v1/query?q="+q, nil); code != 200 {
		t.Fatalf("warm: %d %s", code, raw)
	}
	var body explainEnvelope
	if code, raw := get(t, ts, "/v1/query?debug=explain&q="+q, &body); code != 200 {
		t.Fatalf("hit: %d %s", code, raw)
	}
	eb := body.Explain
	if eb == nil {
		t.Fatal("no explain on cache hit")
	}
	if eb.Outcome != "hit" || eb.CacheSource != "result" {
		t.Fatalf("outcome %q cache_source %q, want hit/result", eb.Outcome, eb.CacheSource)
	}
	if eb.FragmentCount != 0 || !eb.Totals.IsZero() {
		t.Fatalf("cache hit reported work: %+v", eb)
	}
	if s.explains.Load() == 0 {
		t.Error("serve_explain_total not incremented")
	}

	// A brownout answer from a coarser cached resolution did no work either
	// — cache_source "coarse", zero fragments — but unlike the peek hit it
	// went through admission and holds an execution context, so it still
	// reports the budget it had left.
	s, ts = overloadedServer(t)
	if code, raw := get(t, ts, "/v1/hist1d?var=px&bins=8&q="+q, nil); code != 200 {
		t.Fatalf("warm coarse: %d %s", code, raw)
	}
	forceBrownout(s, true)
	defer occupySlot(t, s)()
	var coarse explainEnvelope
	if code, raw := get(t, ts, "/v1/hist1d?var=px&bins=16&debug=explain&q="+q, &coarse); code != 200 {
		t.Fatalf("coarse: %d %s", code, raw)
	}
	eb = coarse.Explain
	if eb == nil || eb.CacheSource != "coarse" || eb.Degraded != degradedCoarse {
		t.Fatalf("coarse brownout explain: %+v", eb)
	}
	if eb.FragmentCount != 0 || !eb.Totals.IsZero() || eb.BudgetLeftMS <= 0 {
		t.Fatalf("coarse brownout explain: fragments %d totals %+v budget_left_ms %v",
			eb.FragmentCount, eb.Totals, eb.BudgetLeftMS)
	}
}

// TestSlowEntryExecutionContext: slow-query entries must carry the plan
// shape (shards, fragments) and the cache-hit source so a slow partial
// scatter is distinguishable from a clean slow scan.
func TestSlowEntryExecutionContext(t *testing.T) {
	_, ts := testServer(t, Config{SlowThreshold: time.Nanosecond})
	q := url.QueryEscape("px > 0.0002")
	if code, raw := get(t, ts, "/v1/query?q="+q, nil); code != 200 {
		t.Fatalf("computed: %d %s", code, raw)
	}
	if code, raw := get(t, ts, "/v1/query?q="+q, nil); code != 200 {
		t.Fatalf("hit: %d %s", code, raw)
	}
	var entries []obs.SlowEntry
	if code, raw := get(t, ts, "/v1/debug/slow", &entries); code != 200 {
		t.Fatalf("slow: %d %s", code, raw)
	}
	var computed, hit *obs.SlowEntry
	for i := range entries {
		if entries[i].Endpoint != "query" {
			continue
		}
		if entries[i].CacheSource == "result" {
			hit = &entries[i]
		} else {
			computed = &entries[i]
		}
	}
	if computed == nil || hit == nil {
		t.Fatalf("missing computed/hit slow entries: %+v", entries)
	}
	if computed.Shards != 1 || computed.Fragments == 0 {
		t.Errorf("computed entry lacks plan shape: %+v", computed)
	}
	if hit.CacheSource != "result" {
		t.Errorf("hit entry cache_source = %q", hit.CacheSource)
	}
}

// TestFederatedMetrics: a scatter frontend's /metrics merges every shard
// worker's registry into one exposition, shard series labelled
// shard="N" and the frontend's own series unlabelled; ?exemplars=1
// attaches trace IDs to latency buckets.
func TestFederatedMetrics(t *testing.T) {
	fleet := startShardFleet(t, 2, nil)
	_, fts := frontendServer(t, fleet)
	// Traffic so histograms and the explain counter move.
	for _, p := range []string{
		"/v1/query?dataset=lwfa&step=0&debug=explain&q=" + url.QueryEscape("px > 0.0001"),
		"/v1/hist1d?dataset=lwfa&step=0&var=x&bins=8",
	} {
		if code, raw := get(t, fts, p, nil); code != 200 {
			t.Fatalf("%s: %d %s", p, code, raw)
		}
	}

	resp, err := fts.Client().Get(fts.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	raw := readAll(t, resp)
	for _, want := range []string{
		`shard="0"`, `shard="1"`, // federated shard series
		"serve_explain_total",
		`serve_slo_burn_rate{window="fast"}`,
		`serve_slo_burn_rate{window="slow"}`,
		"serve_slo_breaches_total",
		"serve_flight_captures_total",
		"serve_requests_total{", // frontend's own unlabelled series
		"# {trace_id=",          // exemplar on a latency bucket
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("federated /metrics missing %q", want)
		}
	}
	// The frontend's own request series must stay unlabelled by shard.
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, "serve_requests_total{") && strings.Contains(line, `shard=`) {
			t.Errorf("frontend series carries a shard label: %s", line)
		}
	}
}

// TestBurnBreachFlightCapture forces an SLO breach (nanosecond target,
// second-scale windows) and asserts the flight recorder spools a capture
// with the pprof evidence set.
func TestBurnBreachFlightCapture(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{
		SLO:          time.Nanosecond, // every request burns budget
		BurnFast:     time.Second,
		BurnSlow:     time.Second,
		BurnCooldown: time.Hour, // one capture per test
		ProfileDir:   dir,
		ProfileCPU:   50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/v1/query?q=%s", url.QueryEscape(fmt.Sprintf("px > 0.000%d", i+1)))
		if code, raw := get(t, ts, p, nil); code != 200 {
			t.Fatalf("%s: %d %s", p, code, raw)
		}
	}
	if s.burn.Breaches() == 0 {
		t.Fatal("forced breach did not register")
	}
	// The capture runs asynchronously (it holds the CPU profiler for
	// ProfileCPU); poll for it.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.Captures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight capture after forced breach")
		}
		time.Sleep(10 * time.Millisecond)
	}
	last := s.flight.LastCaptureDir()
	if last == "" || !strings.HasPrefix(filepath.Base(last), "capture-") {
		t.Fatalf("last capture dir = %q", last)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "meta.json", "slow.json"} {
		if _, err := os.Stat(filepath.Join(last, f)); err != nil {
			t.Errorf("capture missing %s: %v", f, err)
		}
	}
	meta, err := os.ReadFile(filepath.Join(last, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), "slo-burn") {
		t.Errorf("meta.json missing breach reason:\n%s", meta)
	}
}
