package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// forceBrownout pins the gate's brownout flag, as if pressure had been
// sustained across adjustment windows.
func forceBrownout(s *Server, on bool) {
	s.gate.mu.Lock()
	s.gate.forceBrownout = on
	s.gate.mu.Unlock()
}

// occupySlot takes the gate's only execution slot so every subsequent
// admit sheds; it returns the release.
func occupySlot(t *testing.T, s *Server) func() {
	t.Helper()
	if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatal(err)
	}
	return func() { s.gate.Release(0) }
}

// degradedTotal reads serve_degraded_total{mode=...} from the registry.
func degradedTotal(s *Server, mode string) float64 {
	for _, m := range s.reg.Snapshot() {
		if m.Name == "serve_degraded_total" && m.Labels["mode"] == mode {
			return m.Value
		}
	}
	return 0
}

// overloadedServer builds a server with one execution slot, no queue and
// brownout enabled — one held slot makes every histogram shed-eligible.
func overloadedServer(t *testing.T) (*Server, *httptest.Server) {
	return testServer(t, Config{Concurrency: 1, QueueDepth: -1, Brownout: true})
}

// TestBrownoutCoarseCache1D: with a coarser resolution of the same
// request already cached, a shed hist1d is answered from it — a degraded
// 200 with the X-Degraded header — instead of a 429.
func TestBrownoutCoarseCache1D(t *testing.T) {
	s, ts := overloadedServer(t)
	q := url.QueryEscape("px > 0")

	// Warm the cache at 8 bins while the server is healthy.
	var coarse Hist1DBody
	if code, raw := get(t, ts, "/v1/hist1d?var=px&bins=8&q="+q, &coarse); code != 200 {
		t.Fatalf("warmup: %d %s", code, raw)
	}

	forceBrownout(s, true)
	release := occupySlot(t, s)
	defer release()

	resp, err := http.Get(ts.URL + "/v1/hist1d?var=px&bins=16&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded request: %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degraded"); got != degradedCoarse {
		t.Fatalf("X-Degraded = %q, want %q", got, degradedCoarse)
	}
	var body Hist1DBody
	if err := jsonDecode(resp, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Degraded || body.DegradedMode != degradedCoarse {
		t.Fatalf("body degraded markers: %+v", body)
	}
	// The answer is the cached 8-bin histogram, not a fresh 16-bin one.
	if len(body.Counts) != len(coarse.Counts) || body.Total != coarse.Total {
		t.Fatalf("degraded answer differs from coarse cache: %d bins total %d, want %d bins total %d",
			len(body.Counts), body.Total, len(coarse.Counts), coarse.Total)
	}
	if degradedTotal(s, degradedCoarse) < 1 {
		t.Error("serve_degraded_total{mode=coarse-cache} not incremented")
	}
}

// TestBrownoutCoarseCache2D is the 2D rung-1 analogue: both axes halved
// in lockstep.
func TestBrownoutCoarseCache2D(t *testing.T) {
	s, ts := overloadedServer(t)
	var coarse Hist2DBody
	if code, raw := get(t, ts, "/v1/hist2d?x=x&y=px&xbins=8&ybins=8", &coarse); code != 200 {
		t.Fatalf("warmup: %d %s", code, raw)
	}
	forceBrownout(s, true)
	release := occupySlot(t, s)
	defer release()

	var body Hist2DBody
	code, raw := get(t, ts, "/v1/hist2d?x=x&y=px&xbins=16&ybins=16", &body)
	if code != 200 {
		t.Fatalf("degraded request: %d %s", code, raw)
	}
	if !body.Degraded || body.DegradedMode != degradedCoarse {
		t.Fatalf("body degraded markers: %+v", body)
	}
	if body.Total != coarse.Total || len(body.Counts) != len(coarse.Counts) {
		t.Fatalf("degraded 2D answer differs from coarse cache: %+v", body)
	}
}

// TestBrownoutIndexOnly1D: with nothing cached, the rescue recomputes the
// histogram purely in index space — boundary bins admitted wholesale — so
// the degraded total is an upper bound on the exact match count.
func TestBrownoutIndexOnly1D(t *testing.T) {
	s, ts := overloadedServer(t)
	q := url.QueryEscape("px > 0")

	// Learn the exact match count via /v1/query (cached under a different
	// operation key, so it cannot satisfy the histogram peek).
	var qb QueryBody
	if code, raw := get(t, ts, "/v1/query?q="+q, &qb); code != 200 {
		t.Fatalf("exact count: %d %s", code, raw)
	}
	if qb.Backend != "fastbit" {
		t.Skipf("test dataset not index-backed (backend %s)", qb.Backend)
	}

	forceBrownout(s, true)
	release := occupySlot(t, s)
	defer release()

	var body Hist1DBody
	code, raw := get(t, ts, "/v1/hist1d?var=px&bins=16&debug=explain&q="+q, &body)
	if code != 200 {
		t.Fatalf("degraded request: %d %s", code, raw)
	}
	if !body.Degraded || body.DegradedMode != degradedIndexOnly {
		t.Fatalf("body degraded markers: %+v", body)
	}
	// The rescue ran under the request's own profile and deadline: its
	// index work is one explain entry, and the budget is still reported.
	eb := body.Explain
	checkMergeIdentity(t, "index-only rescue", eb, 1)
	if eb.Degraded != degradedIndexOnly || eb.Totals.BitmapOps == 0 || eb.Totals.ApproxRows == 0 {
		t.Errorf("index-only explain charged no index work: %+v", eb)
	}
	if eb.BudgetLeftMS <= 0 {
		t.Errorf("index-only explain lost its budget: budget_left_ms = %v", eb.BudgetLeftMS)
	}
	if body.Total < qb.Matches {
		t.Fatalf("index-only total %d below exact match count %d — not a superset",
			body.Total, qb.Matches)
	}
	if degradedTotal(s, degradedIndexOnly) < 1 {
		t.Error("serve_degraded_total{mode=index-only} not incremented")
	}

	// The rescue result is cached under its own key: a second shed request
	// answers from cache without another backend call.
	before := s.BackendCalls()
	code, raw = get(t, ts, "/v1/hist1d?var=px&bins=16&q="+q, &body)
	if code != 200 || !body.Degraded {
		t.Fatalf("second degraded request: %d %s", code, raw)
	}
	if got := s.BackendCalls(); got != before {
		t.Fatalf("second rescue recomputed: backend calls %d -> %d", before, got)
	}
}

// TestBrownoutIneligible enumerates the conditions under which a shed
// histogram must NOT be rescued and takes the 429 instead.
func TestBrownoutIneligible(t *testing.T) {
	q := url.QueryEscape("px > 0")
	cases := []struct {
		name  string
		cfg   Config
		armed bool
		path  string
	}{
		{
			name: "brownout disabled",
			cfg:  Config{Concurrency: 1, QueueDepth: -1},
			// Even with the gate reporting pressure, cfg gates the feature.
			armed: true,
			path:  "/v1/hist1d?var=px&bins=16&q=" + q,
		},
		{
			name:  "not armed",
			cfg:   Config{Concurrency: 1, QueueDepth: -1, Brownout: true},
			armed: false,
			path:  "/v1/hist1d?var=px&bins=16&q=" + q,
		},
		{
			name:  "client insists on exact",
			cfg:   Config{Concurrency: 1, QueueDepth: -1, Brownout: true},
			armed: true,
			path:  "/v1/hist1d?var=px&bins=16&exact=1&q=" + q,
		},
		{
			name:  "adaptive binning",
			cfg:   Config{Concurrency: 1, QueueDepth: -1, Brownout: true},
			armed: true,
			path:  "/v1/hist1d?var=px&bins=16&binning=adaptive&q=" + q,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, tc.cfg)
			// Warm a coarser entry so rung 1 would hit if eligibility were
			// ignored.
			if code, raw := get(t, ts, "/v1/hist1d?var=px&bins=8&q="+q, nil); code != 200 {
				t.Fatalf("warmup: %d %s", code, raw)
			}
			forceBrownout(s, tc.armed)
			release := occupySlot(t, s)
			defer release()
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("X-Degraded") != "" {
				t.Error("ineligible shed carries X-Degraded")
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 missing Retry-After")
			}
		})
	}
}
