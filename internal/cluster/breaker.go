package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file implements a per-worker circuit breaker. A dead or sick
// replica makes every call pay its dial timeout before failover; with a
// breaker the first few failures trip the circuit and subsequent scatter
// calls skip the replica in microseconds, failing over (or failing fast
// into the partial-merge path) immediately. After a cooldown the breaker
// admits a bounded number of half-open probe requests; one success closes
// the circuit, a failure re-opens it for another cooldown.

// ErrBreakerOpen is returned when a call is refused because every
// candidate replica's circuit breaker is open.
var ErrBreakerOpen = errors.New("cluster: circuit breaker open")

// BreakerState is the circuit state of one worker's breaker.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// The breaker's trip and recovery rules.
const (
	breakerConsecutiveFailures = 5   // trip after this many failures in a row
	breakerFailureRate         = 0.5 // or when the windowed failure rate reaches this
	breakerWindow              = 20  // rolling outcome window size
	breakerMinSamples          = 10  // outcomes required before the rate can trip
	breakerHalfOpenProbes      = 1   // concurrent requests admitted half-open
)

// BreakerConfig tunes one worker's circuit breaker. The zero value
// (Enabled false) disables breakers entirely.
type BreakerConfig struct {
	Enabled  bool
	Cooldown time.Duration // open → half-open delay (default 1s)
}

// DefaultBreakerConfig returns the production breaker settings.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Enabled: true, Cooldown: time.Second}
}

// Breaker is a closed/open/half-open circuit breaker for one worker.
// Callers must pair every admitted request (Allow returning true) with
// exactly one outcome call: Success, Failure, or Drop.
type Breaker struct {
	cooldown time.Duration
	gauge    *obs.Gauge // cluster_breaker_state{worker=...}

	mu       sync.Mutex
	state    BreakerState
	consec   int                 // consecutive failures while closed
	win      [breakerWindow]bool // rolling outcome ring; true = failure
	widx     int
	wlen     int
	wfails   int
	openedAt time.Time
	probes   int // half-open requests in flight
}

func newBreaker(addr string, cfg BreakerConfig) *Breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerConfig().Cooldown
	}
	b := &Breaker{cooldown: cfg.Cooldown, gauge: breakerStateFor(addr)}
	b.gauge.Set(float64(BreakerClosed))
	return b
}

// Allow reports whether a request may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed; in half-open it
// admits up to breakerHalfOpenProbes concurrent probes. Allow is nil-safe.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probes = 1
		return true
	default: // BreakerHalfOpen
		if b.probes >= breakerHalfOpenProbes {
			return false
		}
		b.probes++
		return true
	}
}

// Success records a successful outcome for an admitted request. In the
// half-open state the probe's success closes the circuit.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consec = 0
		b.record(false)
	case BreakerHalfOpen:
		b.release()
		b.close()
	}
	// Open: a straggler from before the trip; it carries no fresh signal.
}

// Failure records a failed outcome. While closed it trips the circuit on
// breakerConsecutiveFailures in a row or on the windowed failure rate; a failed
// half-open probe re-opens the circuit for another cooldown.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consec++
		b.record(true)
		rate := 0.0
		if b.wlen > 0 {
			rate = float64(b.wfails) / float64(b.wlen)
		}
		if b.consec >= breakerConsecutiveFailures ||
			(b.wlen >= breakerMinSamples && rate >= breakerFailureRate) {
			b.trip()
		}
	case BreakerHalfOpen:
		b.release()
		b.trip()
	}
}

// Drop releases an admitted request without judging the worker — the
// attempt died with its caller (cancellation), which says nothing about
// replica health.
func (b *Breaker) Drop() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.release()
	}
}

// Reset force-closes the circuit, used when a background health probe
// confirms the worker answers again.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		b.close()
	}
}

// State returns the current circuit state. Nil-safe: a nil breaker reads
// as closed, so disabled breakers never block traffic.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// record pushes one outcome into the rolling window. Caller holds b.mu.
func (b *Breaker) record(fail bool) {
	if b.wlen == len(b.win) {
		if b.win[b.widx] {
			b.wfails--
		}
	} else {
		b.wlen++
	}
	b.win[b.widx] = fail
	if fail {
		b.wfails++
	}
	b.widx = (b.widx + 1) % len(b.win)
}

// trip opens the circuit. Caller holds b.mu.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openedAt = time.Now()
	b.probes = 0
	metricBreakerTrips.Inc()
}

// close resets the circuit to closed with a clean window. Caller holds b.mu.
func (b *Breaker) close() {
	b.setState(BreakerClosed)
	b.consec = 0
	b.wlen, b.wfails, b.widx = 0, 0, 0
	b.probes = 0
}

// release frees one half-open probe slot. Caller holds b.mu.
func (b *Breaker) release() {
	if b.probes > 0 {
		b.probes--
	}
}

// setState moves the state machine and its per-worker gauge. Caller
// holds b.mu.
func (b *Breaker) setState(s BreakerState) {
	b.state = s
	b.gauge.Set(float64(s))
}
