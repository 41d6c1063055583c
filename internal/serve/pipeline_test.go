package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/session"
)

// pipeFixture is a server with everything the eight pipelined endpoints
// need: a dataset, a session holding a stored selection "sel" (seeded
// straight into the store, so it exists under any gate or timeout
// configuration), and — on a live server — the next timestep to ingest.
type pipeFixture struct {
	s       *Server
	ts      *httptest.Server
	dataset string
	sid     string
	ingest  []byte // nil on a static (frontend) fixture
}

// seedFixture creates the session and its stored selection over step 1.
func seedFixture(t *testing.T, f *pipeFixture) {
	t.Helper()
	f.s.mu.RLock()
	d := f.s.datasets[f.dataset]
	f.s.mu.RUnlock()
	sn := d.snap.Load()
	st, err := d.step(sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := bitmap.FromPositions(st.Rows(), []uint64{1, 5, 9, 40})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := query.Parse("px > 0")
	if err != nil {
		t.Fatal(err)
	}
	f.sid = f.s.sessions.Create().ID
	if err := f.s.sessions.Put(f.sid, session.Selection{
		Name: "sel", Dataset: f.dataset, Step: 1, Gen: sn.gen(1), Backend: "fastbit",
		Expr: query.Canonical(expr).String(), Bits: bits, Count: bits.Count(), Rows: st.Rows(),
	}); err != nil {
		t.Fatal(err)
	}
}

// livePipeFixture serves a 2-step live dataset under cfg. Every request is
// "slow" so its span tree lands in the slow log, error responses included.
func livePipeFixture(t *testing.T, cfg Config) *pipeFixture {
	t.Helper()
	cfg.SlowThreshold, cfg.Logger = time.Nanosecond, obs.NewLogger(io.Discard, "test")
	s, ts, simRun := liveServerCfg(t, cfg, 2, 3, LiveConfig{CatalogPoll: -1})
	f := &pipeFixture{s: s, ts: ts, dataset: "live"}
	seedFixture(t, f)
	var err error
	if f.ingest, err = json.Marshal(stepBody(t, simRun, 2)); err != nil {
		t.Fatal(err)
	}
	return f
}

// pipeEndpoint drives one pipelined endpoint.
type pipeEndpoint struct {
	name   string // instrumented() and explain label
	class  Class
	cached bool // the op has a result-cache key
	method string
	path   func(f *pipeFixture) string
}

var q0 = url.QueryEscape("px > 0")

var pipeEndpoints = []pipeEndpoint{
	{name: "query", class: ClassDrill, cached: true, method: "GET",
		path: func(*pipeFixture) string { return "/v1/query?step=1&q=" + q0 }},
	{name: "hist1d", class: ClassDrill, cached: true, method: "GET",
		path: func(*pipeFixture) string { return "/v1/hist1d?step=1&var=px&bins=8&q=" + q0 }},
	{name: "hist2d", class: ClassDrill, cached: true, method: "GET",
		path: func(*pipeFixture) string { return "/v1/hist2d?step=1&x=x&y=px&xbins=8&ybins=8&q=" + q0 }},
	{name: "sweep2d", class: ClassSweep, method: "GET",
		path: func(*pipeFixture) string { return "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&q=" + q0 }},
	{name: "session-select", class: ClassDrill, method: "POST",
		path: func(f *pipeFixture) string { return "/v1/session/" + f.sid + "/select?name=fresh&step=1&q=" + q0 }},
	{name: "session-track", class: ClassSweep, method: "POST",
		path: func(f *pipeFixture) string { return "/v1/session/" + f.sid + "/track?x=1" }},
	{name: "session-views", class: ClassSweep, method: "GET",
		path: func(f *pipeFixture) string { return "/v1/session/" + f.sid + "/views?bins=8" }},
	{name: "ingest", class: ClassIngest, method: "POST",
		path: func(*pipeFixture) string { return "/v1/ingest?dataset=live" }},
}

// pipeResult is what one request through the pipeline left behind.
type pipeResult struct {
	status int
	header http.Header
	body   map[string]any
	spans  *obs.SpanData
}

// do issues ep's request (extra is appended to the query string) and
// gathers the response, the request-counter delta and the span tree. A
// request whose client gives up (ctx) yields only what the server recorded.
func (f *pipeFixture) do(t *testing.T, ctx context.Context, ep pipeEndpoint, extra string) (pipeResult, map[string]uint64) {
	t.Helper()
	before := requestsTotal(f.s)
	seen := map[string]bool{}
	for _, e := range f.s.slowLog.Snapshot() {
		seen[e.TraceID] = true
	}
	var payload io.Reader
	if ep.name == "ingest" {
		payload = bytes.NewReader(f.ingest)
	}
	req, err := http.NewRequestWithContext(ctx, ep.method, f.ts.URL+ep.path(f)+extra, payload)
	if err != nil {
		t.Fatal(err)
	}
	var res pipeResult
	if resp, err := http.DefaultClient.Do(req); err == nil {
		defer resp.Body.Close()
		res.status, res.header = resp.StatusCode, resp.Header
		raw, _ := io.ReadAll(resp.Body)
		if resp.Header.Get("Content-Type") == "application/json" {
			if err := json.Unmarshal(raw, &res.body); err != nil {
				t.Fatalf("%s: decode %q: %v", ep.name, raw, err)
			}
		}
	} else if ctx.Err() == nil {
		t.Fatal(err)
	}
	// The server finishes a request its client abandoned on its own time.
	for deadline := time.Now().Add(2 * time.Second); res.spans == nil; time.Sleep(time.Millisecond) {
		for _, e := range f.s.slowLog.Snapshot() {
			if !seen[e.TraceID] && e.Endpoint == ep.name {
				res.spans = e.Trace
				if res.status == 0 {
					res.status = e.Status
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: request left no slow-log entry", ep.name)
		}
	}
	return res, diffRequests(before, requestsTotal(f.s))
}

// wantSpans asserts which pipeline stages a request passed through.
func wantSpans(t *testing.T, ep pipeEndpoint, res pipeResult, present, absent []string) {
	t.Helper()
	for _, name := range present {
		if res.spans.Find(name) == nil {
			t.Errorf("%s: span %q missing", ep.name, name)
		}
	}
	for _, name := range absent {
		if res.spans.Find(name) != nil {
			t.Errorf("%s: span %q present, want none", ep.name, name)
		}
	}
}

// wantCounted asserts the request was counted exactly once, under code.
func wantCounted(t *testing.T, ep pipeEndpoint, diff map[string]uint64, code string) {
	t.Helper()
	if key := ep.name + "/" + code; len(diff) != 1 || diff[key] != 1 {
		t.Errorf("%s: request counter deltas = %v, want exactly {%s: 1}", ep.name, diff, key)
	}
}

// TestPipelineUniform runs every pipelined endpoint through every way the
// pipeline can end a request and asserts they all end it the same way:
// status, headers, counters and the stage spans passed through. The
// endpoints differ only in the plans they build, so each scenario is one
// set of expectations, not eight.
func TestPipelineUniform(t *testing.T) {
	full := Config{Concurrency: 1, QueueDepth: -1}
	bg := context.Background()
	// stages lists the spans of a request that executed, by endpoint kind.
	stages := func(ep pipeEndpoint) []string {
		if ep.cached {
			return []string{"cache-peek", "admission-wait", "cache-lookup", "serialize"}
		}
		return []string{"admission-wait", "serialize"}
	}
	each := func(name string, fn func(t *testing.T, ep pipeEndpoint)) {
		t.Run(name, func(t *testing.T) {
			for _, ep := range pipeEndpoints {
				t.Run(ep.name, func(t *testing.T) { fn(t, ep) })
			}
		})
	}

	each("ok", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, Config{})
		res, diff := f.do(t, bg, ep, "")
		if res.status != 200 || res.header.Get("X-Trace-Id") == "" {
			t.Fatalf("status %d, X-Trace-Id %q: %v", res.status, res.header.Get("X-Trace-Id"), res.body)
		}
		wantCounted(t, ep, diff, "200")
		wantSpans(t, ep, res, stages(ep), nil)
		if _, has := res.body["outcome"]; has != ep.cached {
			t.Errorf("outcome key present = %v, want %v", has, ep.cached)
		}
	})

	each("peek hit bypasses a full gate", func(t *testing.T, ep pipeEndpoint) {
		if !ep.cached {
			t.Skip("no result-cache key: a full gate sheds it (the 429 row)")
		}
		f := livePipeFixture(t, full)
		if res, _ := f.do(t, bg, ep, ""); res.status != 200 {
			t.Fatalf("warmup: %d %v", res.status, res.body)
		}
		defer occupySlot(t, f.s)()
		res, diff := f.do(t, bg, ep, "")
		if res.status != 200 || res.body["outcome"] != "hit" || res.body["degraded"] != nil {
			t.Fatalf("cached probe under a full gate: %d %v", res.status, res.body)
		}
		wantCounted(t, ep, diff, "200")
		wantSpans(t, ep, res, []string{"cache-peek", "serialize"}, []string{"admission-wait", "cache-lookup"})
		if got := f.s.gate.ShedCount(ep.class); got != 0 {
			t.Errorf("shed count = %d, want 0", got)
		}
		// The bypass is per key, not a hole: the same request under another
		// backend is another key, and sheds.
		if res, _ := f.do(t, bg, ep, "&backend=scan"); res.status != http.StatusTooManyRequests {
			t.Errorf("uncached variant under a full gate: %d, want 429", res.status)
		}
	})

	each("429 + Retry-After", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, full)
		defer occupySlot(t, f.s)()
		res, diff := f.do(t, bg, ep, "")
		if res.status != http.StatusTooManyRequests || res.header.Get("Retry-After") == "" {
			t.Fatalf("status %d Retry-After %q, want 429 with one", res.status, res.header.Get("Retry-After"))
		}
		wantCounted(t, ep, diff, "429")
		wantSpans(t, ep, res, []string{"admission-wait"}, []string{"cache-lookup", "serialize"})
		if got := f.s.gate.ShedCount(ep.class); got != 1 {
			t.Errorf("serve_shed_total{class=%s} = %d, want 1", ep.class, got)
		}
	})

	each("503 queue timeout", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, Config{Concurrency: 1, QueueDepth: 4, QueueTimeout: 10 * time.Millisecond})
		defer occupySlot(t, f.s)()
		res, diff := f.do(t, bg, ep, "")
		if res.status != http.StatusServiceUnavailable || res.header.Get("Retry-After") == "" {
			t.Fatalf("status %d Retry-After %q, want 503 with one", res.status, res.header.Get("Retry-After"))
		}
		wantCounted(t, ep, diff, "503")
		wantSpans(t, ep, res, []string{"admission-wait"}, []string{"cache-lookup", "serialize"})
		if got := f.s.gate.ShedCount(ep.class); got != 1 {
			t.Errorf("serve_shed_total{class=%s} = %d, want 1", ep.class, got)
		}
	})

	each("499 client cancel", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, Config{Concurrency: 1, QueueDepth: 4, QueueTimeout: 300 * time.Millisecond})
		defer occupySlot(t, f.s)()
		// The client abandons the request while it waits in the admission
		// queue; the 499 goes to a closed connection, so the counters and
		// the slow log are the record.
		ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
		defer cancel()
		res, diff := f.do(t, ctx, ep, "")
		if ep.name == "ingest" {
			// net/http only watches a connection for disconnect once the
			// request body is consumed, and ingest is shed before its body
			// is read: the abandoned append waits out the queue like a
			// live one.
			if res.status != http.StatusServiceUnavailable {
				t.Fatalf("abandoned ingest: status %d, want 503", res.status)
			}
			return
		}
		if res.status != 499 {
			t.Fatalf("status %d, want 499", res.status)
		}
		wantCounted(t, ep, diff, "499")
		wantSpans(t, ep, res, []string{"admission-wait"}, []string{"cache-lookup", "serialize"})
		if got := f.s.canceled.Load(); got != 1 {
			t.Errorf("serve_canceled_total = %d, want 1", got)
		}
		if got := f.s.gate.ShedCount(ep.class); got != 0 {
			t.Errorf("an abandoned waiter counted as shed (%d)", got)
		}
	})

	each("504 exec timeout", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, Config{ExecTimeout: time.Nanosecond})
		res, diff := f.do(t, bg, ep, "")
		if ep.name == "ingest" {
			// An append is not abandoned midway: a half-written step is worse
			// than a late one, so its exec does not watch the deadline.
			if res.status != 200 {
				t.Fatalf("ingest under an expired deadline: %d %v", res.status, res.body)
			}
			return
		}
		if res.status != http.StatusGatewayTimeout {
			t.Fatalf("status %d %v, want 504", res.status, res.body)
		}
		wantCounted(t, ep, diff, "504")
		wantSpans(t, ep, res, []string{"admission-wait"}, []string{"serialize"})
		if got := f.s.execTimeouts.Load(); got != 1 {
			t.Errorf("serve_exec_timeouts_total = %d, want 1", got)
		}
	})

	each("partial is marked, never cached or stored", func(t *testing.T, ep pipeEndpoint) {
		if ep.name == "ingest" {
			t.Skip("ingest runs no plan, so nothing can come back partial")
		}
		fleet := startShardFleet(t, 3, nil)
		s, ts := frontendServerCfg(t, fleet, Config{SlowThreshold: time.Nanosecond, Logger: obs.NewLogger(io.Discard, "test")})
		f := &pipeFixture{s: s, ts: ts, dataset: "lwfa"}
		seedFixture(t, f)
		fleet.kill[1]()
		for round := 0; round < 2; round++ {
			res, diff := f.do(t, bg, ep, "")
			if res.status != 200 || res.header.Get("X-Partial") != "1" || res.body["partial"] != true {
				t.Fatalf("round %d: status %d X-Partial %q body %v", round, res.status, res.header.Get("X-Partial"), res.body)
			}
			if got, want := res.body["failed_shards"], []any{1.0}; !reflect.DeepEqual(got, want) {
				t.Errorf("failed_shards = %v, want %v", got, want)
			}
			wantCounted(t, ep, diff, "200")
			wantSpans(t, ep, res, stages(ep), nil)
			// Never cached: the second round computes again.
			if ep.cached && res.body["outcome"] != "computed" {
				t.Errorf("round %d: outcome %v, want computed", round, res.body["outcome"])
			}
			// Never stored: the session keeps no trace of it.
			if stored, has := res.body["stored"]; has && stored != false {
				t.Errorf("partial answer stored: %v", res.body)
			}
		}
		if _, ok := s.sessions.Selection(f.sid, "fresh"); ok {
			t.Error("partial selection became a stored selection")
		}
		if sel, _ := s.sessions.Selection(f.sid, "sel"); sel.Track != nil {
			t.Error("partial track stored on the selection")
		}
		if n := s.cache.Stats().Entries; n != 0 {
			t.Errorf("result cache holds %d entries after partial answers", n)
		}
	})

	each("explain=only", func(t *testing.T, ep pipeEndpoint) {
		f := livePipeFixture(t, Config{})
		res, diff := f.do(t, bg, ep, "&explain=only")
		if res.status != 200 || len(res.body) != 1 {
			t.Fatalf("status %d, body keys %v, want just explain", res.status, res.body)
		}
		eb, _ := res.body["explain"].(map[string]any)
		if eb["endpoint"] != ep.name || eb["trace_id"] != res.header.Get("X-Trace-Id") {
			t.Errorf("explain endpoint %v trace %v, want %s %s", eb["endpoint"], eb["trace_id"], ep.name, res.header.Get("X-Trace-Id"))
		}
		if left, _ := eb["budget_left_ms"].(float64); left <= 0 {
			t.Errorf("budget_left_ms = %v, want > 0 on an executed request", eb["budget_left_ms"])
		}
		wantCounted(t, ep, diff, "200")
		wantSpans(t, ep, res, stages(ep), nil)
		if got := f.s.explains.Load(); got != 1 {
			t.Errorf("serve_explain_total = %d, want 1", got)
		}
	})
}
