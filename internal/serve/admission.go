package serve

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Admission-control errors; the HTTP layer maps them to 429/503 with a
// Retry-After header.
var (
	// ErrQueueFull means the server is at its concurrency limit and the
	// request's priority class has exhausted its queue share: shed the
	// request immediately (HTTP 429).
	ErrQueueFull = errors.New("serve: overloaded, queue full")
	// ErrQueueTimeout means the request waited in the queue for the full
	// admission deadline without a slot freeing up (HTTP 503).
	ErrQueueTimeout = errors.New("serve: overloaded, queue wait deadline exceeded")
)

// LimitMode selects how the gate's concurrency limit evolves.
type LimitMode int

const (
	// LimitFixed keeps the configured limit forever — the original static
	// gate, retained as the baseline the capacity harness compares against.
	LimitFixed LimitMode = iota
	// LimitAIMD grows the limit by one slot per healthy adjustment window
	// while the gate is saturated, and multiplicatively backs off (×3/4)
	// when the windowed p95 breaches the SLO or the queue builds.
	LimitAIMD
)

// ParseLimitMode maps a -limit-mode flag value to a LimitMode.
func ParseLimitMode(s string) (LimitMode, error) {
	switch s {
	case "", "fixed":
		return LimitFixed, nil
	case "aimd":
		return LimitAIMD, nil
	}
	return LimitFixed, errors.New("serve: unknown limit mode " + s)
}

func (m LimitMode) String() string {
	switch m {
	case LimitAIMD:
		return "aimd"
	default:
		return "fixed"
	}
}

// GateConfig configures an adaptive admission gate.
type GateConfig struct {
	// Limit is the initial (and, for LimitFixed, permanent) concurrency
	// limit; < 1 is clamped to 1. Adaptive growth stops at 8× Limit.
	Limit int
	// QueueDepth bounds the wait queue; < 0 is clamped to 0. Priority
	// classes see shrinking shares of it: drill and probe the full depth,
	// sweep half, ingest a quarter.
	QueueDepth int
	// QueueTimeout bounds time spent queued; <= 0 waits forever (still
	// bounded by the request context).
	QueueTimeout time.Duration
	// Mode selects the limit-adjustment algorithm.
	Mode LimitMode
	// SLO is the latency target the adaptive modes steer the windowed p95
	// toward; 0 defaults to 250ms.
	SLO time.Duration
}

// adjustEvery is the minimum interval between limit adjustments.
const adjustEvery = 250 * time.Millisecond

// GateStats is a snapshot of admission-control counters.
type GateStats struct {
	Limit            int    `json:"limit"`
	QueueDepth       int    `json:"queue_depth"`
	Admitted         uint64 `json:"admitted"`
	RejectedFull     uint64 `json:"rejected_queue_full"`
	RejectedDeadline uint64 `json:"rejected_deadline"`
	Canceled         uint64 `json:"canceled"`
	InFlight         int    `json:"in_flight"`
	Queued           int    `json:"queued"`

	// Adaptive-control extensions.
	Mode            string            `json:"mode"`
	MaxLimit        int               `json:"max_limit"`
	LimitRaises     uint64            `json:"limit_raises"`
	LimitDrops      uint64            `json:"limit_drops"`
	AdmittedByClass map[string]uint64 `json:"admitted_by_class,omitempty"`
	ShedByClass     map[string]uint64 `json:"shed_by_class,omitempty"`
	// DrainPerSec is the EWMA-estimated slot release rate behind
	// Retry-After; 0 until the gate has released at least two requests.
	DrainPerSec float64 `json:"drain_per_sec"`
	Brownout    bool    `json:"brownout"`
}

// waiter is one queued Acquire. granted is set (under the gate mutex) by
// grantLocked before ready is closed, so an abandoning waiter can tell a
// lost race — slot already granted — from a plain cancellation.
type waiter struct {
	class   Class
	ready   chan struct{}
	granted bool
}

// Gate bounds the number of requests executing heavy work concurrently.
// The limit is static (LimitFixed) or self-tuning against a latency SLO
// (LimitAIMD). Beyond the limit, requests wait FIFO in a
// bounded queue whose effective depth shrinks with priority class, so
// under pressure ingest and sweeps shed before interactive drill-downs.
// Sustained pressure arms brownout, which the HTTP layer uses to answer
// eligible histogram requests from degraded paths instead of shedding.
type Gate struct {
	mu         sync.Mutex
	limit      int
	maxLimit   int
	queueDepth int
	timeout    time.Duration
	mode       LimitMode
	slo        time.Duration

	inflight int
	queue    *list.List // of *waiter, FIFO
	queued   int

	window      *obs.Window // per-adjustment-window latencies (seconds)
	drain       *obs.EWMA   // inter-release gap (seconds)
	lastRelease time.Time
	lastAdjust  time.Time
	// saturated records whether the gate ran out of slots at any point in
	// the current adjustment window; additive growth only happens when the
	// current limit was actually the binding constraint.
	saturated bool
	// pressured records an SLO-relevant event (shed or queue timeout) in
	// the current window, forcing backoff even if the admitted latencies
	// look healthy — the unhealthy ones never got in.
	pressured bool
	// hotWindows counts consecutive breached adjustment windows; two in a
	// row arm brownout, one healthy window disarms it.
	hotWindows    int
	brownout      bool
	forceBrownout bool // test hook: pins brownout armed

	nowFn func() time.Time // injectable clock for deterministic tests

	admitted                    [numClasses]atomic.Uint64
	shed                        [numClasses]atomic.Uint64
	admittedTotal, rejectedFull atomic.Uint64
	rejectedDeadline, canceled  atomic.Uint64
	limitRaises, limitDrops     atomic.Uint64
}

// NewGate creates an adaptive admission gate.
func NewGate(cfg GateConfig) *Gate {
	if cfg.Limit < 1 {
		cfg.Limit = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 250 * time.Millisecond
	}
	g := &Gate{
		limit:      cfg.Limit,
		maxLimit:   8 * cfg.Limit,
		queueDepth: cfg.QueueDepth,
		timeout:    cfg.QueueTimeout,
		mode:       cfg.Mode,
		slo:        cfg.SLO,
		queue:      list.New(),
		window:     obs.NewWindow(256),
		drain:      obs.NewEWMA(0.2),
		nowFn:      time.Now,
	}
	g.lastAdjust = g.nowFn()
	return g
}

// shareLocked is the queue share a class may occupy: drill-downs (and the
// rare probe that misses its bypass) may fill the whole queue, sweeps
// half, ingest a quarter. A lower-priority request is shed as soon as the
// total queue length reaches its share, leaving headroom for the classes
// above it.
func (g *Gate) shareLocked(c Class) int {
	switch c {
	case ClassSweep:
		return g.queueDepth / 2
	case ClassIngest:
		return g.queueDepth / 4
	default: // probe, drill
		return g.queueDepth
	}
}

// Acquire blocks until a slot is free, the queue deadline passes, or ctx
// is done. On nil return the caller must call Release exactly once,
// passing the request's service latency so the limiter can steer on it.
func (g *Gate) Acquire(ctx context.Context, class Class) error {
	if err := ctx.Err(); err != nil {
		g.canceled.Add(1)
		return err
	}

	g.mu.Lock()
	g.adjustLocked(g.nowFn())
	if g.queued == 0 && g.inflight < g.limit {
		g.inflight++
		g.mu.Unlock()
		g.admittedTotal.Add(1)
		g.admitted[class].Add(1)
		return nil
	}
	g.saturated = true
	if g.queued >= g.shareLocked(class) {
		g.pressured = true
		g.mu.Unlock()
		g.rejectedFull.Add(1)
		g.shed[class].Add(1)
		return ErrQueueFull
	}
	w := &waiter{class: class, ready: make(chan struct{})}
	el := g.queue.PushBack(w)
	g.queued++
	g.mu.Unlock()

	var deadline <-chan time.Time
	if g.timeout > 0 {
		timer := time.NewTimer(g.timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case <-w.ready:
		g.admittedTotal.Add(1)
		g.admitted[class].Add(1)
		return nil
	case <-deadline:
		if g.abandon(el, w) {
			g.rejectedDeadline.Add(1)
			g.shed[class].Add(1)
			return ErrQueueTimeout
		}
		// Lost the race: a slot was granted as the timer fired. Keep it —
		// the work is about to run anyway and rejecting would leak the slot.
		g.admittedTotal.Add(1)
		g.admitted[class].Add(1)
		return nil
	case <-ctx.Done():
		if g.abandon(el, w) {
			g.canceled.Add(1)
			return ctx.Err()
		}
		// Lost the race against a concurrent grant. The caller is gone, so
		// hand the slot straight back; this still reports as abandonment,
		// never as a timeout rejection, and never leaks the slot.
		g.Release(0)
		g.canceled.Add(1)
		return ctx.Err()
	}
}

// abandon removes a queued waiter. It returns false when grantLocked got
// there first (w.granted), in which case the waiter owns a slot and must
// dispose of it.
func (g *Gate) abandon(el *list.Element, w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	g.queue.Remove(el)
	g.queued--
	g.pressured = true
	return true
}

// grantLocked hands freed capacity to queued waiters, FIFO.
func (g *Gate) grantLocked() {
	for g.inflight < g.limit {
		el := g.queue.Front()
		if el == nil {
			return
		}
		w := el.Value.(*waiter)
		g.queue.Remove(el)
		g.queued--
		w.granted = true
		g.inflight++
		close(w.ready)
	}
}

// Release frees a slot acquired with Acquire. latency is the time the
// request held the slot (0 when unknown); it feeds the limiter's rolling
// p95 and the drain-rate estimate behind Retry-After.
func (g *Gate) Release(latency time.Duration) {
	now := g.nowFn()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight > 0 {
		g.inflight--
	}
	if latency > 0 {
		g.window.Observe(latency.Seconds())
	}
	if !g.lastRelease.IsZero() {
		g.drain.Observe(now.Sub(g.lastRelease).Seconds())
	}
	g.lastRelease = now
	g.adjustLocked(now)
	g.grantLocked()
}

// Admit acquires a slot under class (Acquire) and returns its release:
// idempotent, and reporting the time the slot was held back to the
// limiter. The HTTP pipeline and the shard service's fragment RPCs both
// admit through it.
func (g *Gate) Admit(ctx context.Context, class Class) (release func(), err error) {
	if err := g.Acquire(ctx, class); err != nil {
		return nil, err
	}
	held := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() { g.Release(time.Since(held)) })
	}, nil
}

// adjustLocked runs the limit controller at most once per adjustEvery.
func (g *Gate) adjustLocked(now time.Time) {
	if now.Sub(g.lastAdjust) < adjustEvery {
		return
	}
	g.lastAdjust = now
	p95 := g.window.Quantile(0.95)
	samples := g.window.Len()
	g.window.Reset()
	sloS := g.slo.Seconds()

	breach := g.pressured || (samples > 0 && p95 > sloS) || g.queued > g.queueDepth/2
	if breach {
		g.hotWindows++
	} else {
		g.hotWindows = 0
	}
	g.brownout = g.forceBrownout || g.hotWindows >= 2
	saturated := g.saturated || g.queued > 0
	g.saturated = false
	g.pressured = false

	if g.mode != LimitAIMD {
		return // LimitFixed
	}
	if breach {
		g.setLimitLocked(g.limit * 3 / 4)
	} else if saturated {
		g.setLimitLocked(g.limit + 1)
	}
}

func (g *Gate) setLimitLocked(n int) {
	if n < 1 {
		n = 1
	}
	if n > g.maxLimit {
		n = g.maxLimit
	}
	if n > g.limit {
		g.limitRaises.Add(1)
	} else if n < g.limit {
		g.limitDrops.Add(1)
	}
	g.limit = n
}

// RetryAfter estimates, in whole seconds, when a shed request of the
// given class should retry: the EWMA gap between slot releases times the
// queue it would wait behind, scaled by class patience (background
// classes are told to back off longer), clamped to [1s, 30s].
func (g *Gate) RetryAfter(class Class) int {
	g.mu.Lock()
	gap := g.drain.Value()
	n := g.drain.Count()
	queued := g.queued
	g.mu.Unlock()
	if n < 2 || gap <= 0 {
		return 1
	}
	patience := 1.0
	switch class {
	case ClassSweep:
		patience = 2
	case ClassIngest:
		patience = 4
	}
	est := gap * float64(queued+1) * patience
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// BrownoutActive reports whether sustained pressure has armed the
// degraded-answer path.
func (g *Gate) BrownoutActive() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.brownout || g.forceBrownout
}

// Limit returns the current concurrency limit.
func (g *Gate) Limit() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.limit
}

// ShedCount returns how many requests of a class have been shed (429 or
// queue-deadline 503).
func (g *Gate) ShedCount(class Class) uint64 {
	return g.shed[class].Load()
}

// AdmittedCount returns how many requests of a class have been admitted.
func (g *Gate) AdmittedCount(class Class) uint64 {
	return g.admitted[class].Load()
}

// Stats returns a snapshot of the counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	limit, inflight, queued := g.limit, g.inflight, g.queued
	brownout := g.brownout || g.forceBrownout
	gap := g.drain.Value()
	nDrain := g.drain.Count()
	g.mu.Unlock()

	drainPerSec := 0.0
	if nDrain >= 2 && gap > 0 {
		drainPerSec = 1 / gap
	}
	byClass := func(a *[numClasses]atomic.Uint64) map[string]uint64 {
		m := make(map[string]uint64, numClasses)
		for _, c := range Classes() {
			m[c.String()] = a[c].Load()
		}
		return m
	}
	return GateStats{
		Limit:            limit,
		QueueDepth:       g.queueDepth,
		Admitted:         g.admittedTotal.Load(),
		RejectedFull:     g.rejectedFull.Load(),
		RejectedDeadline: g.rejectedDeadline.Load(),
		Canceled:         g.canceled.Load(),
		InFlight:         inflight,
		Queued:           queued,
		Mode:             g.mode.String(),
		MaxLimit:         g.maxLimit,
		LimitRaises:      g.limitRaises.Load(),
		LimitDrops:       g.limitDrops.Load(),
		AdmittedByClass:  byClass(&g.admitted),
		ShedByClass:      byClass(&g.shed),
		DrainPerSec:      drainPerSec,
		Brownout:         brownout,
	}
}
