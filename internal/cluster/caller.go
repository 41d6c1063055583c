package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastquery"
	"repro/internal/obs"
)

// This file implements Caller, a resilient wrapper around rpc.Client. A
// net/rpc call has no deadline and a dead connection poisons the client
// forever; Caller adds per-attempt timeouts (goroutine + select, since
// net/rpc predates contexts), bounded retries with exponential backoff and
// jitter, and automatic reconnection, so a slow or flapping worker cannot
// hang a query.

// ErrCallTimeout marks an RPC attempt abandoned after CallerConfig.Timeout.
var ErrCallTimeout = errors.New("call timeout")

// ErrCallerClosed is returned by calls on a closed Caller.
var ErrCallerClosed = errors.New("caller closed")

// CallerConfig tunes one worker connection's resilience behaviour.
type CallerConfig struct {
	Timeout     time.Duration // per-attempt deadline; 0 waits forever
	MaxRetries  int           // additional attempts after the first
	BackoffBase time.Duration // delay before the first retry (default 10ms)
	BackoffMax  time.Duration // backoff cap (default 1s)
}

// CallStats reports what one logical call cost.
type CallStats struct {
	Attempts   int // total RPC attempts, including the first
	Timeouts   int // attempts abandoned on timeout
	Reconnects int // re-dials after a previously working connection died
}

// Caller is a resilient RPC client for one worker address.
type Caller struct {
	addr       string
	cfg        CallerConfig
	rng        *lockedRand
	rpcSeconds *obs.Histogram // per-worker attempt latency
	br         *Breaker       // circuit breaker; nil = disabled
	budget     *RetryBudget   // retry budget; nil = unlimited

	mu        sync.Mutex
	client    *rpc.Client
	connected bool // ever connected; distinguishes reconnects from the first dial
	closed    bool

	healthy atomic.Bool
}

// newCaller creates a pool's Caller for the address. The connection is
// dialled lazily on first use (or eagerly via Connect).
func newCaller(addr string, cfg CallerConfig, rng *lockedRand) *Caller {
	c := &Caller{addr: addr, cfg: cfg, rng: rng, rpcSeconds: rpcSecondsFor(addr)}
	c.healthy.Store(true)
	return c
}

// Addr returns the worker address.
func (c *Caller) Addr() string { return c.addr }

// Breaker returns the worker's circuit breaker, or nil when breakers are
// disabled for this pool.
func (c *Caller) Breaker() *Breaker { return c.br }

// BreakerState returns the worker's circuit state; with breakers disabled
// it reads as closed.
func (c *Caller) BreakerState() BreakerState { return c.br.State() }

// breakerRecord settles one admitted request against the breaker. A fatal
// or budget-exhausted reply means the worker executed the request and
// answered — the request was doomed, not the replica — so it counts as a
// success; an attempt that died with its caller's context carries no
// health signal and only releases the admission slot.
func (c *Caller) breakerRecord(err error, ctxDone bool) {
	switch {
	case err == nil, fastquery.IsFatal(err), fastquery.IsExhausted(err):
		c.br.Success()
	case ctxDone:
		c.br.Drop()
	default:
		c.br.Failure()
	}
}

// Healthy reports the worker's last known health.
func (c *Caller) Healthy() bool { return c.healthy.Load() }

// SetHealthy records the worker's health, e.g. after a failed call or a
// successful probe.
func (c *Caller) SetHealthy(v bool) { c.healthy.Store(v) }

// Connect dials eagerly, verifying the worker is reachable.
func (c *Caller) Connect() error {
	_, _, err := c.conn()
	return err
}

// Close tears down the connection. Further calls fail with ErrCallerClosed.
// Close is idempotent.
func (c *Caller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.client != nil {
		err := c.client.Close()
		c.client = nil
		return err
	}
	return nil
}

// CallWithStatsCtx invokes the RPC method with retries per the config and
// returns an account of attempts, timeouts and reconnects. Fatal errors
// (see fastquery.IsFatal) are returned without burning retries: they are
// deterministic, so repeating them is waste. A done ctx abandons the
// in-flight attempt, skips remaining retries, and interrupts backoff
// sleeps, so a canceled request stops burning the retry budget the moment
// nobody wants its result.
func (c *Caller) CallWithStatsCtx(ctx context.Context, method string, args, reply any) (CallStats, error) {
	var cs CallStats
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return cs, err
		}
		cs.Attempts++
		// Each attempt is a sibling span under the caller's current span,
		// so retries show up side by side in the originating trace.
		_, asp := obs.StartSpan(ctx, "rpc-attempt")
		if asp != nil {
			asp.SetAttr("method", method)
			asp.SetAttr("worker", c.addr)
			asp.SetAttr("attempt", strconv.Itoa(attempt+1))
		}
		start := time.Now()
		err := c.callOnce(ctx, method, args, reply, c.cfg.Timeout, &cs)
		c.rpcSeconds.ObserveSince(start)
		if err != nil {
			asp.SetAttr("error", err.Error())
		}
		asp.End()
		if err == nil {
			c.budget.Success()
			return cs, nil
		}
		lastErr = err
		if ctx.Err() != nil || attempt >= c.cfg.MaxRetries || !retryable(err) {
			return cs, lastErr
		}
		if !c.budget.Spend() {
			// The shared retry budget is empty: retrying now would multiply
			// offered load during a brownout. Fail fast instead.
			return cs, lastErr
		}
		if !c.backoffCtx(ctx, attempt) {
			return cs, lastErr
		}
	}
}

// Probe makes a single short-deadline Worker.Ping attempt, used by the
// pool to detect a worker returning to health.
func (c *Caller) Probe() error {
	to := c.cfg.Timeout
	if to <= 0 || to > 2*time.Second {
		to = 2 * time.Second
	}
	var cs CallStats
	var reply PingReply
	return c.callOnce(context.Background(), "Worker.Ping", &PingArgs{}, &reply, to, &cs)
}

// callOnce makes one attempt. The reply is decoded into a fresh value and
// only copied into the caller's reply on success, so a timed-out attempt
// whose response arrives late cannot race a retry writing the same reply.
func (c *Caller) callOnce(ctx context.Context, method string, args, reply any, timeout time.Duration, cs *CallStats) error {
	client, reconnected, err := c.conn()
	if err != nil {
		return err
	}
	if reconnected {
		cs.Reconnects++
	}
	rv := reflect.New(reflect.TypeOf(reply).Elem())
	call := client.Go(method, args, rv.Interface(), make(chan *rpc.Call, 1))
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case <-call.Done:
		if call.Error != nil {
			if !isServerError(call.Error) {
				// Transport-level failure: the connection is unusable.
				c.drop(client)
			}
			return call.Error
		}
		reflect.ValueOf(reply).Elem().Set(rv.Elem())
		return nil
	case <-timeoutCh:
		cs.Timeouts++
		// Closing the client aborts the in-flight call server-side reads
		// and fails every other call pending on this connection; they all
		// retry on a fresh connection.
		c.drop(client)
		return fmt.Errorf("cluster: %s to %s after %v: %w", method, c.addr, timeout, ErrCallTimeout)
	case <-ctx.Done():
		// Same treatment as a timeout: dropping the connection is the only
		// way net/rpc lets us stop the server working on our behalf.
		c.drop(client)
		return ctx.Err()
	}
}

// conn returns the live client, dialling if needed. The second result
// reports whether this dial replaced a previously working connection.
func (c *Caller) conn() (*rpc.Client, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, ErrCallerClosed
	}
	if c.client != nil {
		return c.client, false, nil
	}
	cl, err := rpc.Dial("tcp", c.addr)
	if err != nil {
		return nil, false, err
	}
	reconnect := c.connected
	c.client = cl
	c.connected = true
	return cl, reconnect, nil
}

// drop discards a dead client so the next attempt re-dials.
func (c *Caller) drop(cl *rpc.Client) {
	c.mu.Lock()
	if c.client == cl {
		c.client = nil
	}
	c.mu.Unlock()
	cl.Close()
}

// backoffCtx sleeps for an exponentially growing, jittered delay: the
// attempt's base delay doubles each time (capped at BackoffMax) and the
// sleep is drawn uniformly from [d/2, d], decorrelating retry storms. It
// returns false if ctx was done before the delay elapsed.
func (c *Caller) backoffCtx(ctx context.Context, attempt int) bool {
	base := c.cfg.BackoffBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := c.cfg.BackoffMax
	if max <= 0 {
		max = time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	d = half + time.Duration(c.rng.Int63n(int64(half)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryable reports whether another attempt could plausibly succeed.
func retryable(err error) bool {
	if err == nil || errors.Is(err, ErrCallerClosed) {
		return false
	}
	if isServerError(err) {
		// The worker executed the request and returned an application
		// error. Fatal-classified ones (bad query, bad step) fail the same
		// way everywhere, and budget exhaustion means the deadline budget
		// is spent — no replica can conjure more time; others may be
		// transient I/O trouble.
		return !fastquery.IsFatal(err) && !fastquery.IsExhausted(err)
	}
	// Dial failures, timeouts, EOF, rpc.ErrShutdown: all transport-level.
	return true
}

func isServerError(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se)
}

// lockedRand is a seeded, goroutine-safe RNG for jitter; a fixed seed
// keeps fault-injection tests deterministic.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand() *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(1))}
}

func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}
