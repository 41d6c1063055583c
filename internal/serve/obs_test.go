package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// requestsTotal snapshots the serve_requests_total series as
// "endpoint/code" -> count.
func requestsTotal(s *Server) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range s.reg.Snapshot() {
		if m.Name == "serve_requests_total" {
			out[m.Labels["endpoint"]+"/"+m.Labels["code"]] = uint64(m.Value)
		}
	}
	return out
}

// diffRequests returns the series that grew between two snapshots.
func diffRequests(before, after map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// TestRequestCounterPerResponseClass drives one request through every
// response class the server can produce and asserts each increments
// exactly one serve_requests_total series — the right endpoint, the right
// code, exactly once — including the panic and admission-failure paths.
func TestRequestCounterPerResponseClass(t *testing.T) {
	q := url.QueryEscape("px > 0")
	cases := []struct {
		name string
		cfg  Config
		// setup prepares the failure condition and returns a teardown.
		setup func(t *testing.T, s *Server) func()
		// do issues the request; nil means a plain GET of path.
		do   func(t *testing.T, ts *httptest.Server, path string)
		path string
		want string // "endpoint/code"
		// extra asserts class-specific counters after the request.
		extra func(t *testing.T, s *Server)
	}{
		{name: "ok", path: "/v1/query?q=" + q, want: "query/200"},
		{name: "health", path: "/healthz", want: "healthz/200"},
		{name: "bad query", path: "/v1/query?q=" + url.QueryEscape("px >"), want: "query/400"},
		{name: "missing q", path: "/v1/query", want: "query/400"},
		{name: "unknown var", path: "/v1/query?q=" + url.QueryEscape("nope > 1"), want: "query/404"},
		{name: "unknown dataset", path: "/v1/query?dataset=zz&q=" + q, want: "query/404"},
		{name: "step out of range", path: "/v1/query?step=99&q=" + q, want: "query/404"},
		{name: "bad backend", path: "/v1/query?backend=zz&q=" + q, want: "query/400"},
		{name: "hist1d ok", path: "/v1/hist1d?var=px&bins=8", want: "hist1d/200"},
		{name: "hist1d bad bins", path: "/v1/hist1d?var=px&bins=0", want: "hist1d/400"},
		{
			name: "panic -> 500",
			setup: func(t *testing.T, s *Server) func() {
				s.mux.HandleFunc("/v1/boom", s.instrumented("boom", func(w http.ResponseWriter, r *http.Request) {
					panic("kaboom")
				}))
				return func() {}
			},
			path: "/v1/boom",
			want: "boom/500",
			extra: func(t *testing.T, s *Server) {
				if got := s.panics.Load(); got != 1 {
					t.Errorf("panics counter = %d, want 1", got)
				}
			},
		},
		{
			name: "queue full -> 429",
			cfg:  Config{Concurrency: 1, QueueDepth: -1},
			setup: func(t *testing.T, s *Server) func() {
				if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				return func() { s.gate.Release(0) }
			},
			path: "/v1/query?q=" + q,
			want: "query/429",
			extra: func(t *testing.T, s *Server) {
				if got := s.gate.ShedCount(ClassDrill); got != 1 {
					t.Errorf("drill shed count = %d, want 1", got)
				}
				if ra := s.gate.RetryAfter(ClassDrill); ra < 1 || ra > 30 {
					t.Errorf("Retry-After out of range: %d", ra)
				}
			},
		},
		{
			// Sweeps get half the queue share: with the queue disabled their
			// share is zero, so a held slot sheds them immediately.
			name: "sweep shed -> 429",
			cfg:  Config{Concurrency: 1, QueueDepth: -1},
			setup: func(t *testing.T, s *Server) func() {
				if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				return func() { s.gate.Release(0) }
			},
			path: "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8",
			want: "sweep2d/429",
			extra: func(t *testing.T, s *Server) {
				if got := s.gate.ShedCount(ClassSweep); got != 1 {
					t.Errorf("sweep shed count = %d, want 1", got)
				}
			},
		},
		{
			// Ingest is the lowest class; admission runs before the dataset
			// lookup, so a saturated gate sheds the append with 429 even on a
			// server with no live dataset.
			name: "ingest shed -> 429",
			cfg:  Config{Concurrency: 1, QueueDepth: -1},
			setup: func(t *testing.T, s *Server) func() {
				if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				return func() { s.gate.Release(0) }
			},
			do: func(t *testing.T, ts *httptest.Server, path string) {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed ingest missing Retry-After header")
				}
				resp.Body.Close()
			},
			path: "/v1/ingest?dataset=beam",
			want: "ingest/429",
			extra: func(t *testing.T, s *Server) {
				if got := s.gate.ShedCount(ClassIngest); got != 1 {
					t.Errorf("ingest shed count = %d, want 1", got)
				}
			},
		},
		{
			name: "queue deadline -> 503",
			cfg:  Config{Concurrency: 1, QueueDepth: 1, QueueTimeout: 10 * time.Millisecond},
			setup: func(t *testing.T, s *Server) func() {
				if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				return func() { s.gate.Release(0) }
			},
			path: "/v1/query?q=" + q,
			want: "query/503",
		},
		{
			name: "client gone in queue -> 499",
			cfg:  Config{Concurrency: 1, QueueDepth: 1},
			setup: func(t *testing.T, s *Server) func() {
				if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				return func() { s.gate.Release(0) }
			},
			do: func(t *testing.T, ts *httptest.Server, path string) {
				// The client abandons the request while it waits in the
				// admission queue; the server answers 499 to a closed
				// connection, so only the counter records the outcome.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
			},
			path: "/v1/query?q=" + q,
			want: "query/499",
			extra: func(t *testing.T, s *Server) {
				if got := s.canceled.Load(); got != 1 {
					t.Errorf("canceled counter = %d, want 1", got)
				}
			},
		},
		{
			name: "exec timeout -> 504",
			cfg:  Config{ExecTimeout: time.Nanosecond},
			path: "/v1/query?q=" + q,
			want: "query/504",
			extra: func(t *testing.T, s *Server) {
				if got := s.execTimeouts.Load(); got != 1 {
					t.Errorf("execTimeouts counter = %d, want 1", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, tc.cfg)
			if tc.setup != nil {
				defer tc.setup(t, s)()
			}
			before := requestsTotal(s)
			if tc.do != nil {
				tc.do(t, ts, tc.path)
			} else {
				resp, err := http.Get(ts.URL + tc.path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			// The 499 path counts after the client has already gone; give
			// the handler goroutine a moment to finish.
			var diff map[string]uint64
			deadline := time.Now().Add(2 * time.Second)
			for {
				diff = diffRequests(before, requestsTotal(s))
				if len(diff) > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if len(diff) != 1 || diff[tc.want] != 1 {
				t.Fatalf("request counter deltas = %v, want exactly {%s: 1}", diff, tc.want)
			}
			if tc.extra != nil {
				tc.extra(t, s)
			}
		})
	}
}

// TestTraceDebugEcho exercises the per-request trace: the X-Trace-Id
// header, the ?debug=trace span-tree echo, and the stage spans threaded
// through admission, parsing, the cache and the backend (via the carried
// flight context).
func TestTraceDebugEcho(t *testing.T) {
	_, ts := testServer(t, Config{})
	path := "/v1/hist2d?x=x&y=px&xbins=8&ybins=8&q=" + url.QueryEscape("px > 0") + "&debug=trace"
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("missing X-Trace-Id header")
	}
	var body Hist2DBody
	if err := jsonDecode(resp, &body); err != nil {
		t.Fatal(err)
	}
	if body.Trace == nil {
		t.Fatal("debug=trace did not echo a span tree")
	}
	if body.Trace.Name != "hist2d" {
		t.Errorf("root span %q, want hist2d", body.Trace.Name)
	}
	for _, want := range []string{"admission-wait", "plan-canonicalize", "cache-lookup"} {
		if body.Trace.Find(want) == nil {
			t.Errorf("span %q missing from trace:\n%+v", want, body.Trace)
		}
	}
	// Backend work runs under the cache flight's carried span, so the
	// fastbit/histogram stage spans must appear below cache-lookup.
	cl := body.Trace.Find("cache-lookup")
	if cl.Find("histogram-binning") == nil && cl.Find("bitmap-eval") == nil {
		t.Errorf("no backend stage spans under cache-lookup:\n%+v", cl)
	}
}

// TestSweep2DLocal runs the temporal sweep without a worker pool.
func TestSweep2DLocal(t *testing.T) {
	_, ts := testServer(t, Config{})
	var body Sweep2DBody
	code, raw := get(t, ts, "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&debug=trace", &body)
	if code != 200 {
		t.Fatalf("sweep2d: %d %s", code, raw)
	}
	if body.Mode != "local" || len(body.Steps) != 4 || len(body.Totals) != 4 {
		t.Fatalf("sweep body: %+v", body)
	}
	if body.Total == 0 {
		t.Fatal("sweep total = 0")
	}
	if body.Trace == nil || body.Trace.Find("sweep-step") == nil {
		t.Fatal("local sweep trace missing sweep-step spans")
	}
}

// TestSweep2DScatterTrace: a sweep on a scatter frontend with ?debug=trace
// returns one span tree in which every step's fragments carry the
// shard-side subtrees that came back over the RPC boundary — sweep-step →
// fragment → {rpc-worker, remote shard:hist2d}.
func TestSweep2DScatterTrace(t *testing.T) {
	fleet := startShardFleet(t, 2, nil)
	_, ts := frontendServer(t, fleet)

	// Conditional with an explicit range: every step scatters one hist2d
	// fragment per shard, with no min/max phase in front.
	var body Sweep2DBody
	code, raw := get(t, ts, "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&xlo=-1e12&xhi=1e12&ylo=-1e12&yhi=1e12&steps=0-3&debug=trace&q="+
		url.QueryEscape("px > 0.0003"), &body)
	if code != 200 {
		t.Fatalf("sweep2d: %d %s", code, raw)
	}
	if body.Mode != "scatter" || body.Partial || body.Total == 0 {
		t.Fatalf("sweep body: %+v", body)
	}
	if body.Trace == nil {
		t.Fatal("no trace echoed")
	}
	steps, frags := 0, 0
	body.Trace.Walk(func(step *obs.SpanData) {
		if step.Name != "sweep-step" {
			return
		}
		steps++
		step.Walk(func(frag *obs.SpanData) {
			if frag.Name != "fragment" {
				return
			}
			frags++
			if frag.Find("rpc-worker") == nil {
				t.Fatalf("fragment without an rpc-worker span:\n%+v", frag)
			}
			// The scatter client attaches the shard's subtree beside the
			// rpc-worker span, under the fragment it answers.
			remote := frag.Find("shard:hist2d")
			if remote == nil {
				t.Fatalf("fragment without the shard's remote span:\n%+v", frag)
			}
			if !remote.Remote {
				t.Error("shard:hist2d span not marked Remote")
			}
			if remote.Find("bitmap-eval") == nil {
				t.Error("shard-side stage spans missing from the remote subtree")
			}
		})
	})
	if steps != 4 || frags != 8 {
		t.Fatalf("sweep-step spans = %d, fragment spans under them = %d, want 4 and 8:\n%+v",
			steps, frags, body.Trace)
	}
}

// TestSlowQueryLog verifies that over-threshold requests land in
// /v1/debug/slow with their trace attached, and are counted.
func TestSlowQueryLog(t *testing.T) {
	s, ts := testServer(t, Config{SlowThreshold: time.Nanosecond})
	if code, raw := get(t, ts, "/v1/query?q="+url.QueryEscape("px > 0"), nil); code != 200 {
		t.Fatalf("query: %d %s", code, raw)
	}
	var entries []obs.SlowEntry
	if code, raw := get(t, ts, "/v1/debug/slow", &entries); code != 200 {
		t.Fatalf("slow: %d %s", code, raw)
	}
	var found *obs.SlowEntry
	for i := range entries {
		if entries[i].Endpoint == "query" {
			found = &entries[i]
		}
	}
	if found == nil {
		t.Fatalf("no query entry in slow log: %+v", entries)
	}
	if found.TraceID == "" || found.Status != 200 || found.Trace == nil {
		t.Errorf("slow entry incomplete: %+v", found)
	}
	if !strings.Contains(found.Detail, "q=") {
		t.Errorf("slow entry detail %q missing query string", found.Detail)
	}
	if s.metrics.slowQueries.Load() == 0 {
		t.Error("serve_slow_queries_total not incremented")
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and checks the
// Prometheus exposition carries at least one counter, gauge and latency
// histogram from every layer: serve, fastbit/scan, cluster.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Generate traffic through both backends so layer instruments move.
	for _, p := range []string{
		"/v1/query?q=" + url.QueryEscape("px > 0"),
		"/v1/query?backend=scan&q=" + url.QueryEscape("px > 0"),
	} {
		if code, raw := get(t, ts, p, nil); code != 200 {
			t.Fatalf("%s: %d %s", p, code, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	raw := readAll(t, resp)
	for _, want := range []string{
		// serve layer
		"serve_requests_total{", "serve_inflight_requests", "serve_request_seconds_bucket{",
		"serve_cache_hits_total", "serve_admitted_total{",
		// fastbit / scan layer
		"fastbit_eval_rows_total", "fastbit_candidate_check_fraction",
		"fastbit_eval_seconds_bucket{", "scan_rows_total", "scan_seconds_bucket{",
		// cluster layer (registered at package init even when idle)
		"cluster_rpc_calls_total", "cluster_unhealthy_workers",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatsBuildInfo checks the build/runtime identity block and the
// embedded registry snapshot in /v1/stats.
func TestStatsBuildInfo(t *testing.T) {
	_, ts := testServer(t, Config{})
	// The request counter series appears once a request has completed
	// (the middleware counts after the handler returns).
	if code, raw := get(t, ts, "/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	var body StatsBody
	if code, raw := get(t, ts, "/v1/stats", &body); code != 200 {
		t.Fatalf("stats: %d %s", code, raw)
	}
	b := body.Build
	if b.GoVersion == "" || b.GOMAXPROCS < 1 || b.Goroutines < 1 || b.UptimeSeconds < 0 {
		t.Fatalf("build info incomplete: %+v", b)
	}
	if len(body.Metrics) == 0 {
		t.Fatal("stats carries no metrics snapshot")
	}
	names := map[string]bool{}
	for _, m := range body.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"serve_requests_total", "serve_cache_hits_total", "cluster_rpc_calls_total"} {
		if !names[want] {
			t.Errorf("stats metrics missing %s", want)
		}
	}
}

func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
