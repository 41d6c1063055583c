package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shard"
)

// ExplainBody is the per-query execution profile returned with
// ?debug=explain (embedded in the response) or ?explain=only (returned
// instead of the answer). Fragments lists every fragment the plan
// attempted — budget refusals and transport failures included — and Totals is the exact sum of the fragment costs, the
// identity the explain tests assert.
type ExplainBody struct {
	TraceID  string `json:"trace_id,omitempty"`
	Endpoint string `json:"endpoint"`
	// Mode mirrors plan.Result.Mode: scatter or local.
	Mode   string `json:"mode,omitempty"`
	Shards int    `json:"shards"`

	// Outcome is the result-cache disposition (computed | hit |
	// coalesced); CacheSource names where a no-work answer came from:
	// "result" (frontend result cache), "coalesced" (another request's
	// in-flight computation), or "coarse" (brownout's coarser cached
	// resolution). Empty means the plan actually executed.
	Outcome     string `json:"outcome"`
	CacheSource string `json:"cache_source,omitempty"`

	Fragments     []plan.FragProfile `json:"fragments,omitempty"`
	FragmentCount int                `json:"fragment_count"`
	Totals        obs.CostSnapshot   `json:"totals"`

	AdmissionWaitMS float64 `json:"admission_wait_ms"`
	// BudgetLeftMS is the time left until the request deadline when the
	// response was assembled; 0 when the request ran unbounded.
	BudgetLeftMS float64 `json:"budget_left_ms,omitempty"`

	Partial         bool   `json:"partial,omitempty"`
	FailedShards    []int  `json:"failed_shards,omitempty"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
	Degraded        string `json:"degraded,omitempty"`

	// Replicas is the frontend's client-side view of each shard's
	// replicas (health, circuit-breaker state) at respond time, present
	// on scatter frontends only.
	Replicas [][]shard.ReplicaStatus `json:"replicas,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// explainOnlyBody wraps an explain profile when the caller asked for the
// profile instead of the answer.
type explainOnlyBody struct {
	Explain *ExplainBody `json:"explain"`
}

// parseExplain reads the explain request knobs: ?debug=explain asks for
// a profile beside the answer, ?explain=only for the profile alone.
func parseExplain(r *http.Request) (explain, only bool) {
	only = r.FormValue("explain") == "only"
	return only || r.FormValue("debug") == "explain", only
}

// cacheSource names where a no-work answer came from; "" means the plan
// actually executed.
func (x *run) cacheSource() string {
	switch {
	case x.degraded == degradedCoarse:
		return "coarse"
	case x.outcome == Hit:
		return "result"
	case x.outcome == Coalesced:
		return "coalesced"
	}
	return ""
}

// buildExplain assembles the explain body for one request from its run and
// the fragments its profile collected (planned fragments and profiled
// frontend-local work alike, so Totals is their exact sum).
func (s *Server) buildExplain(r *http.Request, x *run, frags []plan.FragProfile) *ExplainBody {
	eb := &ExplainBody{
		Endpoint:        x.endpoint,
		Shards:          x.shards,
		Outcome:         x.outcome.String(),
		CacheSource:     x.cacheSource(),
		Fragments:       frags,
		FragmentCount:   len(frags),
		Totals:          x.prof.Totals(),
		AdmissionWaitMS: x.waitMS,
		Degraded:        x.degraded,
		ElapsedMS:       msSince(x.start),
	}
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		eb.TraceID = sp.TraceID()
	}
	if c := s.shardClient(); c != nil {
		eb.Replicas = c.ReplicaStates()
	}
	if x.ctx != nil { // nil: a cache peek answered, nothing executed
		if dl, ok := x.ctx.Deadline(); ok {
			if left := time.Until(dl); left > 0 {
				eb.BudgetLeftMS = float64(left) / float64(time.Millisecond)
			}
		}
	}
	if x.res != nil {
		eb.Mode = x.res.Mode
		eb.Partial = x.res.Partial
		eb.FailedShards = x.res.Failed
		eb.BudgetExhausted = x.res.BudgetExhausted
	}
	return eb
}

// MetricsHandler returns the server's /metrics handler — federated
// across the shard fleet on a scatter frontend — for mounting on an
// admin mux next to pprof.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// handleMetrics serves /metrics. A plain server exposes its own registry
// plus the process-wide default; a scatter frontend additionally polls
// every shard worker's registry over RPC and merges the fleet into one
// federated exposition, shard series labelled shard="N" and the
// frontend's own series unlabelled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.shardClient()
	if c == nil {
		obs.Handler(s.reg, obs.Default()).ServeHTTP(w, r)
		return
	}
	groups := []obs.MetricsGroup{{Metrics: obs.SnapshotAll(s.reg, obs.Default())}}
	for _, sm := range c.Metrics(r.Context(), 2*time.Second) {
		if sm.Err != "" {
			s.federationErrors.Inc()
			continue
		}
		groups = append(groups, obs.MetricsGroup{
			Extra:   []obs.Label{obs.L("shard", strconv.Itoa(sm.Shard))},
			Metrics: sm.Metrics,
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteFederated(w, obs.WantExemplars(r), groups...)
}
