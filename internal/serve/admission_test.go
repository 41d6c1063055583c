package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fixedGate builds the static-limit gate the legacy tests exercise.
func fixedGate(limit, queueDepth int, timeout time.Duration) *Gate {
	return NewGate(GateConfig{Limit: limit, QueueDepth: queueDepth, QueueTimeout: timeout})
}

func TestGateAdmitsUpToLimit(t *testing.T) {
	g := fixedGate(3, 0, time.Second)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := g.Acquire(ctx, ClassDrill); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// Limit reached and queue depth is 0: immediate shed.
	if err := g.Acquire(ctx, ClassDrill); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit acquire: %v, want ErrQueueFull", err)
	}
	g.Release(time.Millisecond)
	if err := g.Acquire(ctx, ClassDrill); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	st := g.Stats()
	if st.Admitted != 4 || st.RejectedFull != 1 || st.InFlight != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.ShedByClass["drill"] != 1 || st.AdmittedByClass["drill"] != 4 {
		t.Fatalf("class stats %+v", st)
	}
}

// TestGateAdmitReleasesOnce: Admit's release frees its slot once, however
// often it is called, and a shed Admit hands back no release.
func TestGateAdmitReleasesOnce(t *testing.T) {
	g := fixedGate(2, 0, time.Second)
	ctx := context.Background()
	release, err := g.Admit(ctx, ClassDrill)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Admit(ctx, ClassSweep); err != nil {
		t.Fatal(err)
	}
	if r, err := g.Admit(ctx, ClassDrill); !errors.Is(err, ErrQueueFull) || r != nil {
		t.Fatalf("over-limit Admit: release %v, err %v; want nil, ErrQueueFull", r != nil, err)
	}
	release()
	release()
	if st := g.Stats(); st.InFlight != 1 {
		t.Fatalf("in flight %d after a double release, want 1", st.InFlight)
	}
}

func TestGateQueueTimeout(t *testing.T) {
	g := fixedGate(1, 1, 20*time.Millisecond)
	ctx := context.Background()
	if err := g.Acquire(ctx, ClassDrill); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.Acquire(ctx, ClassDrill) // queues, then times out
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued acquire: %v, want ErrQueueTimeout", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("timed out before the deadline")
	}
	// The queue slot must have been returned.
	if st := g.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after timeout", st.Queued)
	}
}

func TestGateQueueDrains(t *testing.T) {
	g := fixedGate(1, 4, time.Second)
	ctx := context.Background()
	if err := g.Acquire(ctx, ClassDrill); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = g.Acquire(ctx, ClassDrill)
			if errs[i] == nil {
				g.Release(time.Millisecond)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let them queue
	g.Release(time.Millisecond)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued waiter %d: %v", i, err)
		}
	}
}

func TestGateContextCancel(t *testing.T) {
	g := fixedGate(1, 1, time.Minute)
	if err := g.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, ClassDrill) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: %v", err)
	}
}

// TestGateCancelCountsAbandonedNotTimeout is the fairness/accounting
// regression: a queued waiter whose context is cancelled must be counted
// as a client abandonment (the 499 path), never as a deadline rejection,
// and must give its queue slot back.
func TestGateCancelCountsAbandonedNotTimeout(t *testing.T) {
	g := fixedGate(1, 4, time.Minute)
	if err := g.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, ClassDrill) }()
	for deadline := time.Now().Add(2 * time.Second); g.Stats().Queued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: %v", err)
	}
	st := g.Stats()
	if st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
	if st.RejectedDeadline != 0 || st.RejectedFull != 0 {
		t.Fatalf("cancellation counted as rejection: %+v", st)
	}
	if st.Queued != 0 {
		t.Fatalf("queue slot leaked: queued = %d", st.Queued)
	}
	// The freed queue slot must still be usable.
	g.Release(time.Millisecond)
	if err := g.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
}

// TestGateConcurrentCancelNoLeak hammers the grant-vs-cancel race under
// -race: many queued waiters cancelled while slots are released
// concurrently. Whatever each waiter reports, every slot and every queue
// position must come back.
func TestGateConcurrentCancelNoLeak(t *testing.T) {
	g := fixedGate(2, 64, time.Minute)
	// Fill both slots.
	for i := 0; i < 2; i++ {
		if err := g.Acquire(context.Background(), ClassDrill); err != nil {
			t.Fatal(err)
		}
	}
	const waiters = 32
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, waiters)
	for i := 0; i < waiters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(ctx, ClassDrill); err == nil {
				g.Release(time.Microsecond)
			}
		}()
	}
	// Let some queue, then race releases against cancellations.
	time.Sleep(5 * time.Millisecond)
	var rel sync.WaitGroup
	rel.Add(1)
	go func() {
		defer rel.Done()
		for i := 0; i < 2; i++ {
			g.Release(time.Microsecond)
		}
	}()
	for _, cancel := range cancels {
		cancel()
	}
	rel.Wait()
	wg.Wait()
	st := g.Stats()
	if st.Queued != 0 {
		t.Fatalf("queue slots leaked: %d", st.Queued)
	}
	if st.InFlight != 0 {
		t.Fatalf("execution slots leaked: %d", st.InFlight)
	}
	// All slots free again: a full complement of acquires must succeed.
	for i := 0; i < 2; i++ {
		if err := g.Acquire(context.Background(), ClassDrill); err != nil {
			t.Fatalf("post-race acquire %d: %v", i, err)
		}
	}
}

// TestGatePrioritySheddingOrder verifies per-class queue shares: with the
// queue partly full, ingest (quarter share) and sweep (half share) are
// shed while drill still queues.
func TestGatePrioritySheddingOrder(t *testing.T) {
	g := fixedGate(1, 8, time.Minute)
	if err := g.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatal(err)
	}
	// Occupy 4 queue positions (ingest share = 2, sweep share = 4).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Acquire(ctx, ClassDrill) //nolint:errcheck // cancelled at test end
		}()
	}
	for deadline := time.Now().Add(2 * time.Second); g.Stats().Queued < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters queued", g.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(context.Background(), ClassIngest); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("ingest beyond its share: %v, want ErrQueueFull", err)
	}
	if err := g.Acquire(context.Background(), ClassSweep); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("sweep beyond its share: %v, want ErrQueueFull", err)
	}
	if g.ShedCount(ClassIngest) != 1 || g.ShedCount(ClassSweep) != 1 || g.ShedCount(ClassDrill) != 0 {
		t.Fatalf("shed counts: ingest=%d sweep=%d drill=%d",
			g.ShedCount(ClassIngest), g.ShedCount(ClassSweep), g.ShedCount(ClassDrill))
	}
	cancel()
	wg.Wait()
}

// fakeClock drives a gate deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// clockedGate installs a fake clock; call before any Acquire/Release.
func clockedGate(cfg GateConfig, clk *fakeClock) *Gate {
	g := NewGate(cfg)
	g.mu.Lock()
	g.nowFn = clk.Now
	g.lastAdjust = clk.Now()
	g.mu.Unlock()
	return g
}

// churn pushes one admit/release cycle with the given synthetic latency.
func churn(g *Gate, lat time.Duration) error {
	if err := g.Acquire(context.Background(), ClassDrill); err != nil {
		return err
	}
	g.Release(lat)
	return nil
}

func TestGateAIMDGrowsWhenSaturatedAndHealthy(t *testing.T) {
	clk := newFakeClock()
	g := clockedGate(GateConfig{
		Limit: 2, MaxLimit: 8, QueueDepth: 4, QueueTimeout: time.Minute,
		Mode: LimitAIMD, SLO: 100 * time.Millisecond, AdjustEvery: 100 * time.Millisecond,
	}, clk)
	for i := 0; i < 5; i++ {
		// Healthy latencies, well under SLO.
		if err := churn(g, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Mark the window saturated — the limit was the binding constraint —
		// without tripping the pressure path a real shed would set.
		g.mu.Lock()
		g.saturated = true
		g.mu.Unlock()
		clk.Advance(150 * time.Millisecond) // cross the adjustment interval
		if err := churn(g, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if lim := g.Limit(); lim <= 2 {
		t.Fatalf("limit = %d, want growth above 2", lim)
	}
	if g.Stats().LimitRaises == 0 {
		t.Fatal("no limit raises recorded")
	}
}

func TestGateAIMDBacksOffOnSLOBreach(t *testing.T) {
	clk := newFakeClock()
	g := clockedGate(GateConfig{
		Limit: 8, MaxLimit: 16, QueueDepth: 4, QueueTimeout: time.Minute,
		Mode: LimitAIMD, SLO: 50 * time.Millisecond, AdjustEvery: 100 * time.Millisecond,
	}, clk)
	// Latencies far over the SLO for two windows: multiplicative backoff.
	for i := 0; i < 2; i++ {
		if err := churn(g, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		clk.Advance(150 * time.Millisecond)
		if err := churn(g, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if lim := g.Limit(); lim >= 8 {
		t.Fatalf("limit = %d, want multiplicative backoff below 8", lim)
	}
	if g.Stats().LimitDrops == 0 {
		t.Fatal("no limit drops recorded")
	}
}

func TestGateFixedModeNeverMoves(t *testing.T) {
	clk := newFakeClock()
	g := clockedGate(GateConfig{
		Limit: 3, QueueDepth: 2, QueueTimeout: time.Minute,
		Mode: LimitFixed, SLO: time.Millisecond, AdjustEvery: 50 * time.Millisecond,
	}, clk)
	for i := 0; i < 10; i++ {
		if err := churn(g, time.Second); err != nil { // massively over SLO
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	if lim := g.Limit(); lim != 3 {
		t.Fatalf("fixed limit moved to %d", lim)
	}
}

func TestGateBrownoutArmsAfterSustainedPressure(t *testing.T) {
	clk := newFakeClock()
	g := clockedGate(GateConfig{
		Limit: 1, QueueDepth: 2, QueueTimeout: time.Minute,
		Mode: LimitAIMD, SLO: 10 * time.Millisecond, AdjustEvery: 50 * time.Millisecond,
	}, clk)
	if g.BrownoutActive() {
		t.Fatal("brownout armed at rest")
	}
	// Three breached windows in a row.
	for i := 0; i < 3; i++ {
		if err := churn(g, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		clk.Advance(60 * time.Millisecond)
		if err := churn(g, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !g.BrownoutActive() {
		t.Fatal("brownout not armed after sustained breach")
	}
	// Healthy windows disarm it.
	for i := 0; i < 3; i++ {
		clk.Advance(60 * time.Millisecond)
		if err := churn(g, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if g.BrownoutActive() {
		t.Fatal("brownout still armed after recovery")
	}
}

// TestRetryAfterFromDrainRate is the satellite table test: Retry-After
// must derive from the EWMA of inter-release gaps, scale with queue
// length and class patience, and clamp to [1s, 30s].
func TestRetryAfterFromDrainRate(t *testing.T) {
	cases := []struct {
		name     string
		gap      time.Duration // steady inter-release gap
		releases int
		queued   int
		class    Class
		want     int
	}{
		{"no-data-defaults-1s", 0, 0, 0, ClassDrill, 1},
		{"fast-drain-clamps-low", 10 * time.Millisecond, 8, 1, ClassDrill, 1},
		{"one-second-gap-queue-2", time.Second, 8, 2, ClassDrill, 3},
		{"sweep-waits-twice-as-long", time.Second, 8, 2, ClassSweep, 6},
		{"ingest-waits-4x", time.Second, 8, 2, ClassIngest, 12},
		{"slow-drain-clamps-30s", 20 * time.Second, 8, 3, ClassDrill, 30},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			clk := newFakeClock()
			g := clockedGate(GateConfig{
				Limit: 1, QueueDepth: 16, QueueTimeout: time.Minute,
				// A long adjustment interval keeps the limiter quiet so only
				// the drain EWMA moves.
				Mode: LimitFixed, AdjustEvery: time.Hour,
			}, clk)
			for i := 0; i < c.releases; i++ {
				if err := g.Acquire(context.Background(), ClassDrill); err != nil {
					t.Fatal(err)
				}
				clk.Advance(c.gap)
				g.Release(c.gap / 2)
			}
			// Install the queue length without real waiters.
			g.mu.Lock()
			g.queued = c.queued
			g.mu.Unlock()
			if got := g.RetryAfter(c.class); got != c.want {
				t.Fatalf("RetryAfter(%v) = %d, want %d", c.class, got, c.want)
			}
			if got := g.RetryAfter(c.class); got < 1 || got > 30 {
				t.Fatalf("RetryAfter out of clamp range: %d", got)
			}
		})
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassProbe: "probe", ClassDrill: "drill",
		ClassSweep: "sweep", ClassIngest: "ingest",
	}
	if len(Classes()) != numClasses {
		t.Fatalf("Classes() lists %d of %d", len(Classes()), numClasses)
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}
