package ingest

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fastquery"
	"repro/internal/query"
)

// waitTimeout fails the test if wg does not finish within d.
func waitTimeout(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out waiting")
	}
}

func TestBuilderPublishesAndUpgrades(t *testing.T) {
	cat, w := newLive(t)
	published := make(chan int, 16)
	b := NewBuilder(cat, BuilderConfig{
		Workers:     2,
		OnPublished: func(step int) { published <- step },
	})
	b.Start()
	defer b.Stop()

	const steps = 4
	for i := 0; i < steps; i++ {
		if _, _, err := w.AppendStep(mkColumns(i, 200)); err != nil {
			t.Fatal(err)
		}
		b.Enqueue(i)
	}
	got := map[int]bool{}
	timeout := time.After(10 * time.Second)
	for len(got) < steps {
		select {
		case s := <-published:
			got[s] = true
		case <-timeout:
			t.Fatalf("published %v of %d steps before timeout", got, steps)
		}
	}
	man := cat.Snapshot()
	if man.IndexedSteps() != steps || man.Lag() != 0 {
		t.Fatalf("manifest after builds: indexed=%d lag=%d", man.IndexedSteps(), man.Lag())
	}
	// The published sidecars must actually serve fastbit queries with the
	// same answers as the scan backend.
	src, err := fastquery.Open(cat.Dir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.OpenStep(steps - 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.HasIndex() {
		t.Fatal("step has no usable index after publish")
	}
	expr, err := query.Parse("px > 2")
	if err != nil {
		t.Fatal(err)
	}
	nf, err := st.CountCtx(context.Background(), expr, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.CountCtx(context.Background(), expr, fastquery.Scan)
	if err != nil {
		t.Fatal(err)
	}
	if nf != ns {
		t.Fatalf("fastbit count %d != scan count %d", nf, ns)
	}
}

// TestBuilderEnqueueDedupWhileBuilding holds a step in flight (its
// OnPublished hook blocks) and enqueues it three more times: the step is
// still the first worker's, so the idle second worker must not take it.
func TestBuilderEnqueueDedupWhileBuilding(t *testing.T) {
	cat, w := newLive(t)
	if _, _, err := w.AppendStep(mkColumns(0, 200)); err != nil {
		t.Fatal(err)
	}
	var published atomic.Int32
	inFlight := make(chan struct{}, 2) // room for the second build a regression would make
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	b := NewBuilder(cat, BuilderConfig{
		Workers: 2,
		OnPublished: func(int) {
			published.Add(1)
			inFlight <- struct{}{}
			<-release
		},
	})
	b.Start() // enqueues step 0 from the catalog
	defer b.Stop()
	defer unblock() // a failing run must not leave Stop waiting on the hook
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("step 0 never reached OnPublished")
	}
	for i := 0; i < 3; i++ {
		b.Enqueue(0)
	}
	if n := b.Backlog(); n != 1 {
		t.Fatalf("backlog with step 0 in flight = %d, want 1", n)
	}
	unblock()
	deadline := time.Now().Add(10 * time.Second)
	for b.Backlog() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog stuck at %d", b.Backlog())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if built, _, _ := b.Stats(); built != 1 || published.Load() != 1 {
		t.Fatalf("built %d, OnPublished calls %d; want exactly one each", built, published.Load())
	}
}

func TestBuilderRecoversPendingOnStart(t *testing.T) {
	cat, w := newLive(t)
	for i := 0; i < 2; i++ {
		if _, _, err := w.AppendStep(mkColumns(i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh builder (as after a restart): Start must pick up the two
	// committed-but-unindexed steps without explicit Enqueue calls.
	b := NewBuilder(cat, BuilderConfig{})
	b.Start()
	defer b.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for cat.Snapshot().Lag() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending steps not drained: lag=%d", cat.Snapshot().Lag())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBuilderFatalErrorNoRetry(t *testing.T) {
	cat, w := newLive(t)
	if _, _, err := w.AppendStep(mkColumns(0, 30)); err != nil {
		t.Fatal(err)
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	b := NewBuilder(cat, BuilderConfig{
		// Indexing an unknown variable is deterministic — must not retry.
		IndexVars:   []string{"nope"},
		MaxAttempts: 50,
		Backoff:     time.Millisecond,
		OnFailed:    func(step int, err error) { failed.Add(1); wg.Done() },
	})
	// Start enqueues the committed-but-unindexed step itself; enqueueing it
	// again here could land after a worker took it and build it twice.
	b.Start()
	waitTimeout(t, &wg, 10*time.Second)
	b.Stop()
	if failed.Load() != 1 {
		t.Fatalf("OnFailed calls = %d, want 1", failed.Load())
	}
	_, retries, failures := b.Stats()
	if retries != 0 {
		t.Fatalf("fatal error was retried %d times", retries)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	man := cat.Snapshot()
	if man.Steps[0].IndexError == "" || man.Steps[0].Indexed {
		t.Fatalf("permanent failure not recorded: %+v", man.Steps[0])
	}
	// A permanently failed step must not be re-enqueued by recovery.
	if p := cat.Pending(); len(p) != 0 {
		t.Fatalf("failed step still pending: %v", p)
	}
}

func TestBuilderRetriesTransientThenFails(t *testing.T) {
	cat, w := newLive(t)
	if _, _, err := w.AppendStep(mkColumns(0, 30)); err != nil {
		t.Fatal(err)
	}
	// Remove the data file: fileCRC fails with an I/O error, which the
	// classifier treats as possibly transient, so the step retries until
	// MaxAttempts and then records a permanent failure.
	if err := os.Remove(cat.StepPath(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var lastErr error
	b := NewBuilder(cat, BuilderConfig{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		OnFailed:    func(step int, err error) { lastErr = err; wg.Done() },
	})
	b.Start() // enqueues the pending step itself, as above
	waitTimeout(t, &wg, 10*time.Second)
	b.Stop()
	_, retries, failures := b.Stats()
	if retries != 2 { // attempts 1 and 2 retried, attempt 3 is final
		t.Fatalf("retries = %d, want 2", retries)
	}
	if failures != 1 || lastErr == nil {
		t.Fatalf("failures = %d, lastErr = %v", failures, lastErr)
	}
	if fastquery.IsFatal(lastErr) {
		t.Fatalf("I/O error misclassified fatal: %v", lastErr)
	}
}

func TestBuilderStopLeavesPending(t *testing.T) {
	cat, w := newLive(t)
	if _, _, err := w.AppendStep(mkColumns(0, 30)); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cat, BuilderConfig{})
	// Never started: Stop must not hang, and the step stays pending for
	// the next process.
	b.Stop()
	if p := cat.Pending(); len(p) != 1 || p[0] != 0 {
		t.Fatalf("pending after stop = %v", p)
	}
}
