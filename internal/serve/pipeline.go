package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/render"
)

// op is what one endpoint contributes to the request pipeline — the
// paper's plot contract: which plans to run and how to shape their answer.
// Everything else (cache, admission, deadline, profile, error mapping,
// marking, explain, serialization) is the pipeline's, spelled once in
// pipelined. A builder validates every parameter before returning its op,
// so a doomed request never holds a gate slot.
type op struct {
	class Class
	// key is the result-cache key; "" for operations that bypass the
	// result cache (multi-step batches, session writes, ingest).
	key string
	// exec computes the answer through execPlan/execPlans. With a key it
	// runs inside the cache flight and its Result is the cached value;
	// without one the closure keeps what body needs and returns only the
	// execution metadata (nil when no plan ran).
	exec func(ctx context.Context) (*plan.Result, error)
	// Brownout, offered by histograms only: coarser yields the cache keys
	// of the same request at successively coarser resolutions; indexOnly
	// recomputes it approximately in index space, cached under approxKey.
	coarser   func(yield func(key string) bool)
	approxKey string
	indexOnly func(ctx context.Context) (*plan.Result, error)
	// answer, offered by histograms only, encodes the answer part of the
	// body — a function of the cache key alone — from the Result exec or
	// indexOnly computed. The flight runs it once (see flight), and body
	// writes those bytes on every hit.
	answer func(res *plan.Result) ([]byte, error)
	// body shapes the response around the pipeline-filled meta.
	body func(res *plan.Result, m ResponseMeta) any
}

// flight is what the cache flight computes for key with compute (exec or
// indexOnly): the Result, and for an op with an answer encoder the answer
// part of its body, kept in Result.Answer in place of the dense histogram
// no reader needs after the flight. The entry is then charged the bytes
// it holds, and a hit, a coalesced waiter or a brownout rescue writes the
// stored bytes instead of encoding them again.
func (o *op) flight(compute func(ctx context.Context) (*plan.Result, error)) func(ctx context.Context) (*plan.Result, error) {
	if o.answer == nil {
		return compute
	}
	return func(ctx context.Context) (*plan.Result, error) {
		res, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		answer, err := o.answer(res)
		if err != nil {
			return nil, fmt.Errorf("encode response: %w", err)
		}
		res.Answer = answer
		res.Hist1, res.Hist2 = nil, nil
		return res, nil
	}
}

// run is one request's passage through the pipeline: what the stages
// learned, for the response meta, the explain and — through the
// instrumented middleware, which creates it — the slow-query log to report.
type run struct {
	endpoint string
	start    time.Time
	ctx      context.Context // execution context; nil when a cache peek answered
	prof     *plan.Profile   // nil unless the request asked for an explain
	waitMS   float64         // admission wait
	res      *plan.Result    // nil when no plan ran
	outcome  Outcome
	degraded string // brownout mode, "" for an exact answer

	shards int // fleet width the plans ran on (1 in-process); 0 until marked
}

type runCtxKey struct{}

// pngBody is an answer streamed as image/png instead of JSON.
type pngBody struct{ canvas *render.Canvas }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// pipelined is the one request pipeline every heavy endpoint runs through:
// parse → peek → admit → ctx → exec → mark → explain → write. DESIGN.md §8
// tabulates the stages against their spans, explain fields and metrics.
func (s *Server) pipelined(endpoint string, build func(r *http.Request) (*op, *httpError)) http.HandlerFunc {
	return s.instrumented(endpoint, func(w http.ResponseWriter, r *http.Request) {
		x := r.Context().Value(runCtxKey{}).(*run)
		o, herr := build(r)
		if herr != nil {
			s.writeExecError(w, 0, herr) // no class yet: a builder's error is never a shed
			return
		}
		explain, explainOnly := parseExplain(r)
		if explain {
			x.prof = plan.NewProfile()
		}

		// peek: a resident exact key answers without a gate slot.
		hit := false
		if o.key != "" {
			if x.res, hit = s.peekBypass(r, o.key); hit {
				x.outcome = Hit
			}
		}
		if !hit {
			admitStart := time.Now()
			release, aerr := s.admit(r, o.class)
			x.waitMS = msSince(admitStart)
			if aerr != nil && !s.rescuable(o, aerr) {
				s.writeExecError(w, o.class, aerr)
				return
			}
			if aerr == nil {
				defer release()
			}
			// ctx: the client connection bounded by ExecTimeout, carrying
			// the profile collector; slot holders and rescues alike.
			ctx, cancel := s.requestCtx(r)
			defer cancel()
			if x.prof != nil {
				ctx = plan.WithProfile(ctx, x.prof)
			}
			x.ctx = ctx
			err := aerr
			switch {
			case aerr != nil:
				if s.rescue(o, x) {
					err = nil
				}
			case o.key != "":
				x.res, x.outcome, err = s.cacheDo(ctx, o.key, o.flight(o.exec))
			default:
				x.res, err = o.exec(ctx)
			}
			if err != nil {
				s.writeExecError(w, o.class, err)
				return
			}
		}

		// mark: the slow-log entry, the headers and the body's meta agree.
		x.shards = 1
		if c := s.shardClient(); c != nil {
			x.shards = c.Shards()
		}
		frags := x.prof.Fragments()
		m := ResponseMeta{
			Degraded:     x.degraded != "",
			DegradedMode: x.degraded,
			ElapsedMS:    msSince(x.start),
			Trace:        traceEcho(r),
		}
		if o.key != "" {
			m.Outcome = x.outcome.String()
		}
		if x.degraded != "" {
			w.Header().Set("X-Degraded", x.degraded)
		}
		if x.res != nil {
			m.Partial, m.FailedShards = x.res.Partial, x.res.Failed
			if x.res.Partial {
				w.Header().Set("X-Partial", "1")
			}
		}
		if explain {
			s.explains.Inc()
			m.Explain = s.buildExplain(r, x, frags)
		}
		if explainOnly {
			writeBody(r, w, explainOnlyBody{Explain: m.Explain})
			return
		}
		writeBody(r, w, o.body(x.res, m))
	})
}

// requestCtx derives the execution context for one request: the client
// connection (canceled on disconnect) bounded by ExecTimeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.ExecTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.ExecTimeout)
	}
	return context.WithCancel(r.Context())
}

// writeExecError is the pipeline's one error mapper: a builder's or exec
// closure's *httpError to its own status, load shedding to 429/503 with
// Retry-After, client cancellation to 499 (nginx's convention), deadline
// expiry to 504, and everything else to 500, with distinct counters for
// cancellation and timeout.
func (s *Server) writeExecError(w http.ResponseWriter, class Class, err error) {
	var herr *httpError
	switch {
	case errors.As(err, &herr):
		if herr.status == http.StatusMethodNotAllowed {
			w.Header().Set("Allow", http.MethodPost)
		}
		writeError(w, herr.status, "%s", herr.msg)
	case shedErr(err):
		s.writeShed(w, class, err)
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		writeError(w, 499, "client canceled: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.execTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "execution timeout: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// writeShed answers load shedding: immediate shed with 429, queue-deadline
// expiry with 503, both carrying a Retry-After derived from the gate's
// measured drain rate for the class.
func (s *Server) writeShed(w http.ResponseWriter, class Class, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter(class)))
	status := http.StatusTooManyRequests
	if errors.Is(err, ErrQueueTimeout) {
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%v", err)
}

// shedErr reports whether an admission error is load shedding (as opposed
// to the client going away) — the only failures brownout may rescue.
func shedErr(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrQueueTimeout)
}

// admit acquires a gate slot for a heavy request under its priority
// class (Gate.Admit), tracing the wait as "admission-wait" so queueing
// shows up in span trees.
func (s *Server) admit(r *http.Request, class Class) (release func(), err error) {
	_, sp := obs.StartSpan(r.Context(), "admission-wait")
	sp.SetAttr("class", class.String())
	release, err = s.gate.Admit(r.Context(), class)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return release, err
}

// peekBypass answers a request whose exact cache key is already resident
// without consuming a gate slot: the cached-key probe class. One map
// lookup cannot meaningfully load the server, so probes stay instant even
// when every slot is busy — the property that keeps an exploration
// client's redraws responsive under overload.
func (s *Server) peekBypass(r *http.Request, key string) (*plan.Result, bool) {
	_, sp := obs.StartSpan(r.Context(), "cache-peek")
	val, ok := s.cache.Peek(key)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	if ok {
		s.probeBypass.Inc()
	}
	res, _ := val.(*plan.Result)
	return res, ok
}

// cacheDo runs the cache lookup under a "cache-lookup" span recording how
// the result was satisfied (computed, hit, coalesced). The flight context
// is detached from the initiating request's cancellation (see Cache.Do)
// but inherits its deadline: the deadline is what the scatter client
// carves per-fragment budgets from, and work that cannot finish by the
// first requester's deadline should not run unbounded for coalesced
// waiters either.
func (s *Server) cacheDo(ctx context.Context, key string, fn func(ctx context.Context) (*plan.Result, error)) (*plan.Result, Outcome, error) {
	ctx, sp := obs.StartSpan(ctx, "cache-lookup")
	dl, hasDL := ctx.Deadline()
	prof := plan.ProfileFromContext(ctx)
	val, outcome, err := s.cache.Do(ctx, key, func(fctx context.Context) (any, error) {
		if hasDL {
			var cancel context.CancelFunc
			fctx, cancel = context.WithDeadline(fctx, dl)
			defer cancel()
		}
		if prof != nil {
			// The flight context is detached from the request, which
			// drops context values: re-attach the initiating request's
			// profile collector so the fragments the flight runs are
			// attributed to it. Coalesced waiters never reach here, so
			// they report zero fragments with cache_source "coalesced".
			fctx = plan.WithProfile(fctx, prof)
		}
		return fn(fctx)
	})
	sp.SetAttr("outcome", outcome.String())
	sp.End()
	res, _ := val.(*plan.Result)
	return res, outcome, err
}

// evalProfiled runs one unit of backend work. On a profiled request (ctx
// carries a plan.Profile) the work is charged to a fresh cost accumulator
// and recorded as fp, exactly the way a shard worker profiles a fragment —
// which is what keeps an explain's totals the exact sum of its entries,
// planned fragments and frontend-local work (the index-only rescue, a
// refine at the selected positions, a track's ID gather) alike.
func evalProfiled(ctx context.Context, fp plan.FragProfile, eval func(ctx context.Context) error) error {
	profile := plan.ProfileFromContext(ctx)
	if profile == nil {
		return eval(ctx)
	}
	cost := &obs.Cost{}
	start := time.Now()
	err := eval(obs.WithCost(ctx, cost))
	fp.Done(cost.Snapshot(), time.Since(start), err)
	profile.Add(fp)
	return err
}

// answerBody is a histogram response as the pipeline writes it: the
// answer part its cache flight encoded once (plan.Result.Answer), then
// this request's meta.
type answerBody struct {
	answer []byte
	meta   ResponseMeta
}

// storedAnswer is the body constructor of the histogram ops.
func storedAnswer(res *plan.Result, m ResponseMeta) any { return answerBody{res.Answer, m} }

// writeBody serializes a success response under a "serialize" span.
func writeBody(r *http.Request, w http.ResponseWriter, body any) {
	_, sp := obs.StartSpan(r.Context(), "serialize")
	defer sp.End()
	switch b := body.(type) {
	case pngBody:
		w.Header().Set("Content-Type", "image/png")
		b.canvas.EncodePNG(w) //nolint:errcheck // client gone; nothing to do
	case answerBody:
		tail, err := appendMeta(make([]byte, 0, 256), &b.meta)
		if err != nil {
			writeEncodeError(w, err)
			return
		}
		writeEncoded(w, http.StatusOK, b.answer, tail)
	default:
		writeJSON(w, http.StatusOK, body)
	}
}
