package serve

import "repro/internal/plan"

// Brownout: under sustained overload, an eligible histogram request that
// would otherwise be shed is answered from a degraded path instead — the
// Hillview trade, where a coarse answer now beats an exact answer after
// the user has given up. The ladder has two rungs, tried in order:
//
//  1. coarse-cache — a cached result of the same request at a coarser
//     resolution (bins repeatedly halved, down to brownoutMinBins). Costs
//     one map lookup per rung, no backend work at all.
//  2. index-only — recompute entirely in index space: the condition is
//     evaluated with boundary bins admitted wholesale (no candidate
//     checks, no raw reads) and the histogram binned at the index's own
//     resolution from bitmap AND-counts. Concurrency is bounded by
//     brownoutWorkers so the rescue path cannot itself become the
//     overload.
//
// Degraded responses are 200s marked three ways: Degraded/DegradedMode in
// the body, an X-Degraded header, and serve_degraded_total{mode=...}.
// Clients opt out with ?exact=1 and take the 429 instead.
const (
	// brownoutWorkers bounds concurrent index-only rescues.
	brownoutWorkers = 2
	// brownoutMinBins is the coarsest resolution rung 1 will probe for.
	brownoutMinBins = 8
)

// Degraded-mode labels.
const (
	degradedCoarse    = "coarse-cache"
	degradedIndexOnly = "index-only"
)

// rescuable reports whether a failed admission may be answered degraded:
// the request was shed (not abandoned), its op offers a ladder, and
// brownout is enabled and armed by sustained pressure.
func (s *Server) rescuable(o *op, aerr error) bool {
	return shedErr(aerr) && o.coarser != nil && s.cfg.Brownout && s.gate.BrownoutActive()
}

// rescue walks the op's brownout ladder for a shed request and reports
// whether x now holds a degraded answer. It declines — the caller sheds as
// usual — when no coarser entry is resident and the index-only rung is not
// offered (scan backend), all brownout workers are busy, or it fails.
func (s *Server) rescue(o *op, x *run) bool {
	o.coarser(func(key string) bool {
		if val, ok := s.cache.Peek(key); ok {
			x.res, x.outcome, x.degraded = val.(*plan.Result), Hit, degradedCoarse
		}
		return x.degraded == ""
	})
	if x.degraded == "" && o.indexOnly != nil {
		select {
		case s.brownoutSem <- struct{}{}:
		default:
			return false
		}
		defer func() { <-s.brownoutSem }()
		res, outcome, err := s.cacheDo(x.ctx, o.approxKey, o.flight(o.indexOnly))
		if err != nil {
			return false
		}
		x.res, x.outcome, x.degraded = res, outcome, degradedIndexOnly
	}
	if x.degraded == "" {
		return false
	}
	s.metrics.degraded(x.degraded).Inc()
	return true
}
