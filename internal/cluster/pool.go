package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the client side of the RPC transport: a pool of
// Callers over one replica group with health tracking and failover. A call
// (CallOn, callon.go) is first sent to its primary; if that worker fails
// (after the Caller's own retries) the call fails over to the next healthy
// worker and the failed worker is marked unhealthy until a background
// Worker.Ping probe revives it.

// PoolConfig tunes the pool's resilience machinery. The zero value means:
// no timeouts, no retries, no failover, no probing — plain net/rpc.
type PoolConfig struct {
	CallTimeout   time.Duration // per-attempt deadline; 0 waits forever
	MaxRetries    int           // per-worker retries after the first attempt
	BackoffBase   time.Duration // first retry delay (default 10ms when retrying)
	BackoffMax    time.Duration // retry delay cap (default 1s when retrying)
	MaxFailovers  int           // other workers to try per call: -1 = all, 0 = none
	ProbeInterval time.Duration // unhealthy-worker ping period; 0 disables probing
	Seed          int64         // backoff-jitter RNG seed (0 behaves as 1)

	// Breaker enables per-worker circuit breakers (zero value: disabled).
	Breaker BreakerConfig
	// RetryBudgetRatio > 0 enables the retry budget: tokens refilled per
	// successful call, spent by each retry, failover and hedge.
	RetryBudgetRatio float64
	// RetryBudgetBurst caps the retry-budget bucket (default 20).
	RetryBudgetBurst int
	// RetryBudget, when set, is shared with other pools (the frontend
	// shares one bucket across every shard pool, making the budget truly
	// global); it overrides RetryBudgetRatio/Burst.
	RetryBudget *RetryBudget
}

// DefaultPoolConfig returns the production defaults.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{
		CallTimeout:   30 * time.Second,
		MaxRetries:    2,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    500 * time.Millisecond,
		MaxFailovers:  -1,
		ProbeInterval: 200 * time.Millisecond,
		Seed:          1,
	}
}

// PoolStats is a cumulative snapshot of the pool's resilience counters.
type PoolStats struct {
	Calls      int64 // RPC attempts made
	Retries    int64 // attempts beyond the first, per worker
	Timeouts   int64 // attempts abandoned on deadline
	Reconnects int64 // re-dials of previously working connections
	Failovers  int64 // calls moved to another worker
	Hedges     int64 // extra staggered attempts raced against slow replicas
	Probes     int64 // health pings sent to unhealthy workers
	Recoveries int64 // workers probed back to health
}

type poolCounters struct {
	calls, retries, timeouts, reconnects, failovers, hedges, probes, recoveries atomic.Int64
}

// Pool is a client-side connection pool over a set of worker addresses.
type Pool struct {
	cfg     PoolConfig
	callers []*Caller
	budget  *RetryBudget // shared retry budget; nil = unlimited
	ctr     poolCounters

	closeOnce sync.Once
	stopProbe chan struct{}
}

// DialConfig connects to every worker address, eagerly, so unreachable
// workers fail here rather than mid-query.
func DialConfig(addrs []string, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	p := &Pool{cfg: cfg, stopProbe: make(chan struct{})}
	p.budget = cfg.RetryBudget
	if p.budget == nil && cfg.RetryBudgetRatio > 0 {
		p.budget = NewRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst)
	}
	rng := newLockedRand(cfg.Seed)
	ccfg := CallerConfig{
		Timeout:     cfg.CallTimeout,
		MaxRetries:  cfg.MaxRetries,
		BackoffBase: cfg.BackoffBase,
		BackoffMax:  cfg.BackoffMax,
	}
	for _, addr := range addrs {
		c := newCaller(addr, ccfg, rng)
		if cfg.Breaker.Enabled {
			c.br = newBreaker(addr, cfg.Breaker)
		}
		c.budget = p.budget
		if err := c.Connect(); err != nil {
			p.Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		p.callers = append(p.callers, c)
	}
	if cfg.ProbeInterval > 0 {
		go p.probeLoop()
	}
	return p, nil
}

// Close closes all client connections and stops health probing. Close is
// idempotent and safe to call concurrently.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.stopProbe)
		for _, c := range p.callers {
			c.Close()
		}
	})
}

// Nodes returns the number of connected workers.
func (p *Pool) Nodes() int { return len(p.callers) }

// Callers exposes the pool's per-worker callers, primarily so tests and
// harnesses can inspect or override health state.
func (p *Pool) Callers() []*Caller { return p.callers }

// HealthyNodes returns the number of workers currently believed healthy.
func (p *Pool) HealthyNodes() int {
	n := 0
	for _, c := range p.callers {
		if c.Healthy() {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the cumulative resilience counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Calls:      p.ctr.calls.Load(),
		Retries:    p.ctr.retries.Load(),
		Timeouts:   p.ctr.timeouts.Load(),
		Reconnects: p.ctr.reconnects.Load(),
		Failovers:  p.ctr.failovers.Load(),
		Hedges:     p.ctr.hedges.Load(),
		Probes:     p.ctr.probes.Load(),
		Recoveries: p.ctr.recoveries.Load(),
	}
}

// probeLoop pings unhealthy or breaker-open workers until the pool
// closes, restoring them to the failover rotation — and force-closing
// their breakers — when they answer.
func (p *Pool) probeLoop() {
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopProbe:
			return
		case <-t.C:
			for _, c := range p.callers {
				if c.Healthy() && c.BreakerState() == BreakerClosed {
					continue
				}
				p.ctr.probes.Add(1)
				metricProbes.Inc()
				if err := c.Probe(); err == nil {
					if !c.Healthy() {
						p.ctr.recoveries.Add(1)
						metricRecoveries.Inc()
					}
					c.SetHealthy(true)
					c.br.Reset()
				}
			}
		}
	}
}

// candidates returns the workers to try for a call, primary first, then
// healthy workers in ring order, truncated per MaxFailovers. If every
// worker is unhealthy the primary is tried anyway — better a last-ditch
// attempt than certain failure.
func (p *Pool) candidates(primary int) []*Caller {
	n := len(p.callers)
	maxFo := p.cfg.MaxFailovers
	if maxFo < 0 || maxFo > n-1 {
		maxFo = n - 1
	}
	if maxFo == 0 {
		// Failover disabled: the call lives or dies with its primary.
		return []*Caller{p.callers[primary]}
	}
	cands := make([]*Caller, 0, n)
	for off := 0; off < n; off++ {
		c := p.callers[(primary+off)%n]
		if c.Healthy() {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		cands = append(cands, p.callers[primary])
	}
	if len(cands) > maxFo+1 {
		cands = cands[:maxFo+1]
	}
	return cands
}
