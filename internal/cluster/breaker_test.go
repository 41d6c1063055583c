package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

func testBreakerConfig() BreakerConfig {
	return BreakerConfig{Enabled: true, Cooldown: 20 * time.Millisecond}
}

// trip opens b with breakerConsecutiveFailures failures in a row.
func trip(b *Breaker) {
	for i := 0; i < breakerConsecutiveFailures; i++ {
		b.Failure()
	}
}

func TestBreakerConsecutiveTrip(t *testing.T) {
	b := newBreaker("w0", testBreakerConfig())
	for i := 0; i < breakerConsecutiveFailures-1; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after %d failures = %v, want closed", breakerConsecutiveFailures-1, b.State())
	}
	b.Allow()
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", breakerConsecutiveFailures, b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b := newBreaker("w0", testBreakerConfig())
	// Alternate failures and successes: the consecutive count never
	// passes 1, and once the window holds breakerMinSamples outcomes at a
	// 50% failure rate the rate trip fires instead, proving both paths
	// are live.
	for i := 0; i < 4; i++ {
		b.Failure()
		b.Success()
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed before breakerMinSamples", b.State())
	}
	b.Failure() // 10 samples, 5 fails: rate 0.5 >= 0.5 → trip
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open on failure-rate trip", b.State())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := newBreaker("w0", testBreakerConfig())
	trip(b)
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Only one probe admitted at a time.
	if b.Allow() {
		t.Fatal("breaker admitted a second concurrent half-open probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newBreaker("w0", testBreakerConfig())
	trip(b)
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no half-open probe admitted")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	// A fresh cooldown applies.
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request immediately")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("re-opened breaker never recovered")
	}
}

func TestBreakerDropReleasesProbeSlot(t *testing.T) {
	b := newBreaker("w0", testBreakerConfig())
	trip(b)
	time.Sleep(25 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no half-open probe admitted")
	}
	b.Drop() // canceled probe: no judgment, slot freed
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after Drop = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("Drop did not release the half-open probe slot")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must admit everything")
	}
	b.Success()
	b.Failure()
	b.Drop()
	b.Reset()
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker must read closed")
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(0.5)
	// Starts full.
	for i := 0; i < retryBudgetBurst; i++ {
		if !b.Spend() {
			t.Fatalf("fresh budget refused token %d of its burst", i)
		}
	}
	if b.Spend() {
		t.Fatal("empty budget granted a token")
	}
	// Two successes refill one token.
	b.Success()
	if b.Spend() {
		t.Fatal("half a token spent as one")
	}
	b.Success()
	if !b.Spend() {
		t.Fatal("refilled budget refused a token")
	}
	// Refill is capped at burst.
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if got := b.Tokens(); got != retryBudgetBurst {
		t.Fatalf("tokens after overfill = %v, want burst cap %d", got, retryBudgetBurst)
	}
	var nilB *RetryBudget
	if !nilB.Spend() {
		t.Fatal("nil budget must be unlimited")
	}
	nilB.Success()
}

// TestPoolBreakerSkipsDeadReplica proves the point of the breaker: once
// tripped, calls against the dead primary fail over without re-dialling
// it, and a background probe closes the breaker when the replica heals.
func TestPoolBreakerSkipsDeadReplica(t *testing.T) {
	addrs, kill := startKillableWorkers(t, 2)
	cfg := callOnConfig()
	cfg.MaxRetries = 0
	cfg.Breaker = testBreakerConfig()
	cfg.Breaker.Cooldown = 5 * time.Second // stay open for the test body
	p, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	kill[0]()
	// Trip the primary's breaker with consecutive failures. Calls still
	// succeed by failing over to the live replica.
	for i := 0; i < breakerConsecutiveFailures; i++ {
		// Health-based candidate ordering would skip the dead primary after
		// the first failure; force it healthy so the breaker sees each one.
		p.Callers()[0].SetHealthy(true)
		var reply PingReply
		if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := p.Callers()[0].BreakerState(); st != BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", st)
	}

	// With the breaker open the dead replica is skipped without an RPC
	// attempt: the call count against it must not move.
	p.Callers()[0].SetHealthy(true)
	before := metricRPCCalls.Load()
	var reply PingReply
	if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
		t.Fatal(err)
	}
	if got := metricRPCCalls.Load() - before; got != 1 {
		t.Fatalf("attempts with open breaker = %d, want 1 (replica only)", got)
	}
}

// TestPoolAllBreakersOpenFailsFast proves the fail-fast path: when every
// candidate's breaker is open the call returns ErrBreakerOpen without
// touching the network.
func TestPoolAllBreakersOpenFailsFast(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 2)
	cfg := callOnConfig()
	cfg.Breaker = testBreakerConfig()
	cfg.Breaker.Cooldown = 5 * time.Second
	p, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for _, c := range p.Callers() {
		trip(c.Breaker())
	}
	start := time.Now()
	var reply PingReply
	err = p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("fail-fast took %v", el)
	}
}

// TestPoolRetryBudgetStopsFailover proves an empty retry budget blocks
// extra attempts: with the budget drained, a call whose primary is dead
// fails instead of failing over.
func TestPoolRetryBudgetStopsFailover(t *testing.T) {
	addrs, kill := startKillableWorkers(t, 2)
	cfg := callOnConfig()
	cfg.MaxRetries = 0
	cfg.RetryBudget = NewRetryBudget(0) // never refilled
	for i := 0; i < retryBudgetBurst-1; i++ {
		cfg.RetryBudget.Spend() // leave one token
	}
	p, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	kill[0]()
	var reply PingReply
	// First call spends the lone token on its failover and succeeds.
	if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// Budget empty: the second call may not fail over.
	p.Callers()[0].SetHealthy(true)
	before := metricFailovers.Load()
	if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err == nil {
		t.Fatal("call succeeded despite empty retry budget")
	}
	if got := metricFailovers.Load() - before; got != 0 {
		t.Fatalf("failovers with empty budget = %d, want 0", got)
	}
}
