package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/histogram"
	"repro/internal/plan"
)

// oneByteKeys is the budget that holds n entries of one-byte keys whose
// values are not plan results: each costs the fixed overhead and its key.
func oneByteKeys(n int) int { return n * (plan.CacheEntryOverhead + 1) }

// TestCacheHitAndEvict: a new answer waits in probation, where the next
// new one evicts it, while an answer hit once is promoted and survives
// them.
func TestCacheHitAndEvict(t *testing.T) {
	c := NewCache(oneByteKeys(2))
	get := func(key string) (any, Outcome) {
		v, o, err := c.Do(context.Background(), key, func(context.Context) (any, error) { return "v:" + key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, o
	}
	if v, o := get("a"); o != Computed || v != "v:a" {
		t.Fatalf("first lookup: %v %v", v, o)
	}
	if _, o := get("a"); o != Hit {
		t.Fatalf("second lookup outcome %v, want Hit", o)
	}
	get("b")
	get("c") // evicts b from probation; a, hit once, is protected
	if _, o := get("a"); o != Hit {
		t.Fatalf("promoted key outcome %v, want Hit", o)
	}
	if _, o := get("b"); o != Computed {
		t.Fatalf("evicted key outcome %v, want Computed", o)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Evictions < 1 || st.Entries != 2 || st.ProtectedBytes != oneByteKeys(1) {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheLRUOrder: the answers hit since they were stored are kept in
// least recently used order, and the least recently hit one is what an
// over-full cache lets go.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(oneByteKeys(2))
	do := func(key string) Outcome {
		_, o, _ := c.Do(context.Background(), key, func(context.Context) (any, error) { return key, nil })
		return o
	}
	do("a")
	do("a") // promote a
	do("b")
	do("b") // promote b; a is now LRU
	do("a") // refresh a; b is now LRU
	do("c") // overflows: b drops back to probation and goes, a stays
	if o := do("a"); o != Hit {
		t.Fatalf("a outcome %v, want Hit (b should have been evicted)", o)
	}
	if o := do("b"); o != Computed {
		t.Fatalf("b outcome %v, want Computed", o)
	}
}

func TestCacheErrorNotStored(t *testing.T) {
	c := NewCache(oneByteKeys(4))
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not be cached.
	v, o, err := c.Do(context.Background(), "k", func(context.Context) (any, error) { return 7, nil })
	if err != nil || o != Computed || v != 7 {
		t.Fatalf("after error: %v %v %v", v, o, err)
	}
}

// TestCacheSingleflight proves identical concurrent requests collapse to
// one compute call.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(oneByteKeys(4))
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	errs := make([]error, n)
	outcomes := make([]Outcome, n)

	// First goroutine enters the compute fn and blocks; the rest must
	// coalesce onto it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], outcomes[0], errs[0] = c.Do(context.Background(), "key", func(context.Context) (any, error) {
			calls.Add(1)
			close(started)
			<-release
			return "result", nil
		})
	}()
	<-started
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], outcomes[i], errs[i] = c.Do(context.Background(), "key", func(context.Context) (any, error) {
				calls.Add(1)
				return "result", nil
			})
		}()
	}
	// Wait until every waiter has joined the in-flight call, then release.
	for c.Stats().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != "result" {
			t.Fatalf("call %d: %v %v", i, results[i], errs[i])
		}
		if outcomes[i] == Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced %d of %d calls, want %d", coalesced, n, n-1)
	}
}

// TestCacheStorageDisabled: maxBytes <= 0 must never store results,
// only coalesce.
func TestCacheStorageDisabled(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 3; i++ {
		_, o, err := c.Do(context.Background(), "k", func(context.Context) (any, error) { return i, nil })
		if err != nil || o != Computed {
			t.Fatalf("call %d: outcome %v, err %v", i, o, err)
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.Entries != 0 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheAbandonedWaiterDoesNotPoisonFlight: a coalesced waiter that
// cancels must get its own ctx error immediately, while the flight keeps
// running for the remaining waiter and delivers (and caches) the result.
func TestCacheAbandonedWaiterDoesNotPoisonFlight(t *testing.T) {
	c := NewCache(oneByteKeys(4))
	started := make(chan struct{})
	release := make(chan struct{})
	var flightCanceled atomic.Bool

	type res struct {
		val any
		err error
	}
	first := make(chan res, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func(fctx context.Context) (any, error) {
			close(started)
			<-release
			flightCanceled.Store(fctx.Err() != nil)
			return "result", nil
		})
		first <- res{v, err}
	}()
	<-started

	// Second waiter coalesces, then abandons.
	ctx2, cancel2 := context.WithCancel(context.Background())
	second := make(chan res, 1)
	go func() {
		v, o, err := c.Do(ctx2, "k", func(context.Context) (any, error) {
			t.Error("coalesced waiter ran the compute fn")
			return nil, nil
		})
		if o != Coalesced {
			t.Errorf("second waiter outcome %v, want Coalesced", o)
		}
		second <- res{v, err}
	}()
	for c.Stats().Coalesced < 1 {
		runtime.Gosched()
	}
	cancel2()
	if r := <-second; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoning waiter: err = %v, want context.Canceled", r.err)
	}

	// Only now let the flight finish: the first waiter must still win.
	close(release)
	if r := <-first; r.err != nil || r.val != "result" {
		t.Fatalf("surviving waiter: %v, %v", r.val, r.err)
	}
	if flightCanceled.Load() {
		t.Fatal("flight context was canceled while a waiter remained")
	}
	// The result must have been stored despite the abandonment.
	if _, o, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
		return nil, errors.New("recomputed")
	}); err != nil || o != Hit {
		t.Fatalf("post-flight lookup: outcome %v, err %v, want Hit", o, err)
	}
	if st := c.Stats(); st.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", st.Abandoned)
	}
}

// TestCacheLastWaiterCancelsFlight: when every waiter abandons, the flight
// context must be canceled so the backend stops working for nobody.
func TestCacheLastWaiterCancelsFlight(t *testing.T) {
	c := NewCache(oneByteKeys(4))
	started := make(chan struct{})
	fnDone := make(chan error, 1)

	ctx, cancel := context.WithCancel(context.Background())
	callDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done() // the backend observing cancellation
			fnDone <- fctx.Err()
			return nil, fctx.Err()
		})
		callDone <- err
	}()
	<-started
	cancel()
	if err := <-callDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	if err := <-fnDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("flight ctx err = %v, want context.Canceled (backend never released)", err)
	}
	// The failed flight must not be cached; the key computes fresh.
	if v, o, err := c.Do(context.Background(), "k", func(context.Context) (any, error) {
		return 42, nil
	}); err != nil || o != Computed || v != 42 {
		t.Fatalf("after abandoned flight: %v %v %v", v, o, err)
	}
}

// TestCacheConcurrentKeys hammers the cache from many goroutines under
// -race.
func TestCacheConcurrentKeys(t *testing.T) {
	c := NewCache(oneByteKeys(8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if _, _, err := c.Do(context.Background(), key, func(context.Context) (any, error) { return key, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// hist2 is an n×n histogram answer as large as its dense counts: an
// encoded answer of 8 bytes a bin, and 8 bytes an edge.
func hist2(n int) *plan.Result {
	return &plan.Result{
		Hist2:  &histogram.Cells2D{XVar: "x", YVar: "px", XEdges: make([]float64, n+1), YEdges: make([]float64, n+1)},
		Answer: make([]byte, 8*n*n),
	}
}

// storedBytes sums what the resident ones of keys are charged by
// entrySize. Its reads do not promote.
func storedBytes(c *Cache, keys map[string]bool) int {
	n := 0
	for key := range keys {
		if val, ok := c.store.Get(key); ok {
			n += entrySize(key, val)
		}
	}
	return n
}

// TestCacheBytesNeverExceedBudget: across a random stream of counts,
// selections and histograms, some larger than the whole budget, the bytes
// stored never pass the budget and always equal the sum of the entries'
// sizes, and every answer is served whether or not it was stored.
func TestCacheBytesNeverExceedBudget(t *testing.T) {
	const budget = 1 << 20
	c := NewCache(budget)
	rng := rand.New(rand.NewSource(1))
	keys := map[string]bool{}
	for i := 0; i < 400; i++ {
		var res *plan.Result
		switch rng.Intn(4) {
		case 0:
			res = &plan.Result{Count: uint64(i)}
		case 1:
			res = &plan.Result{Sel: make([]uint64, rng.Intn(20000))}
		case 2:
			res = hist2([]int{16, 64, 256}[rng.Intn(3)])
		default:
			res = hist2(512) // 2 MiB: over the budget
		}
		key := fmt.Sprintf("k%d", rng.Intn(150))
		keys[key] = true
		v, _, err := c.Do(context.Background(), key, func(context.Context) (any, error) { return res, nil })
		if err != nil || v == nil {
			t.Fatalf("request %d: %v %v", i, v, err)
		}
		st := c.Stats()
		if sum := storedBytes(c, keys); st.Bytes > budget || st.Bytes != sum {
			t.Fatalf("request %d: %d bytes stored (entries sum to %d), budget %d", i, st.Bytes, sum, budget)
		}
	}
	if st := c.Stats(); st.Entries == 0 || st.Evictions == 0 || st.ProtectedBytes == 0 {
		t.Fatalf("stream neither filled nor cycled the cache: %+v", st)
	}
}

// TestCacheServesButSkipsOversized: at the server's default budget, a
// 4096² answer (MaxBins2D per axis, 128 MiB of counts) is served to its
// caller but not stored, and storing it evicts nothing — while the 48
// dense 256² panels of a dashboard, each hit once as it was drawn, all
// stay resident in protected.
func TestCacheServesButSkipsOversized(t *testing.T) {
	c := NewCache(Config{}.withDefaults().CacheBytes)
	do := func(key string, res *plan.Result) (any, Outcome) {
		t.Helper()
		v, o, err := c.Do(context.Background(), key, func(context.Context) (any, error) { return res, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, o
	}
	const panels = 48
	for i := 0; i < panels; i++ {
		key := fmt.Sprintf("panel %d", i)
		do(key, hist2(256))
		if _, o := do(key, nil); o != Hit {
			t.Fatalf("%s: outcome %v, want Hit", key, o)
		}
	}
	huge := hist2(histogram.MaxBins2D)
	if v, o := do("huge", huge); o != Computed || v != huge {
		t.Fatalf("oversized answer: outcome %v, served %v", o, v == huge)
	}
	if _, ok := c.Peek("huge"); ok {
		t.Fatal("a 4096² answer was stored")
	}
	want := 0
	for i := 0; i < panels; i++ {
		key := fmt.Sprintf("panel %d", i)
		if _, o := do(key, nil); o != Hit {
			t.Fatalf("%s: outcome %v, want Hit", key, o)
		}
		want += hist2(256).CacheBytes(key)
	}
	if st := c.Stats(); st.Entries != panels || st.Evictions != 0 || st.Bytes != want || st.ProtectedBytes != want {
		t.Fatalf("stats %+v, want %d protected entries of %d bytes in all", st, panels, want)
	}
}

// panel is a dashboard answer as the server stores it: its encoded JSON,
// about 90 KB for a 256² panel.
func panel() *plan.Result { return &plan.Result{Answer: make([]byte, 90<<10)} }

// TestCacheKeepsHitPanelsThroughFlood: the 48 panels of a dashboard are
// drawn once each, the head of the Zipf curve is hit, and then a flood of
// answers asked for once each — every one of them larger than probation
// — passes through. Every panel hit before the flood is still a hit
// after it; only the panels never hit, which waited in probation, are
// computed again.
func TestCacheKeepsHitPanelsThroughFlood(t *testing.T) {
	c := NewCache(Config{}.withDefaults().CacheBytes)
	do := func(key string, res *plan.Result) Outcome {
		t.Helper()
		_, o, err := c.Do(context.Background(), key, func(context.Context) (any, error) { return res, nil })
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	const panels, hot = 48, 24
	protected := 0
	for i := 0; i < panels; i++ {
		do(fmt.Sprintf("panel %d", i), panel())
	}
	for i := 0; i < hot; i++ {
		key := fmt.Sprintf("panel %d", i)
		if o := do(key, nil); o != Hit {
			t.Fatalf("%s before the flood: outcome %v, want Hit", key, o)
		}
		protected += panel().CacheBytes(key)
	}
	big := hist2(1024) // 8 MiB of counts: over probation's eighth of 64 MiB
	if budget := (Config{}).withDefaults().CacheBytes; big.CacheBytes("once 0") <= budget/8 {
		t.Fatal("flood answer fits in probation")
	}
	for i := 0; i < 40; i++ {
		do(fmt.Sprintf("once %d", i), big)
		if st := c.Stats(); st.ProtectedBytes != protected {
			t.Fatalf("flood %d: %d protected bytes, want %d", i, st.ProtectedBytes, protected)
		}
	}
	for i := 0; i < panels; i++ {
		key, want := fmt.Sprintf("panel %d", i), Hit
		if i >= hot {
			want = Computed
		}
		if o := do(key, panel()); o != want {
			t.Fatalf("%s after the flood: outcome %v, want %v", key, o, want)
		}
	}
}

// TestCacheChargesOnlyServableResults: an error, a typed-nil *plan.Result
// and a partial answer are served as they are but neither stored nor
// charged.
func TestCacheChargesOnlyServableResults(t *testing.T) {
	c := NewCache(oneByteKeys(64))
	for key, fn := range map[string]func(context.Context) (any, error){
		"error":     func(context.Context) (any, error) { return nil, errors.New("boom") },
		"typed nil": func(context.Context) (any, error) { return (*plan.Result)(nil), nil },
		"partial":   func(context.Context) (any, error) { return &plan.Result{Partial: true, Failed: []int{1}}, nil },
	} {
		c.Do(context.Background(), key, fn)
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("%s: stats %+v, want nothing stored", key, st)
		}
	}
	c.Do(context.Background(), "ok", func(context.Context) (any, error) { return &plan.Result{Count: 3}, nil })
	if st, want := c.Stats(), (&plan.Result{}).CacheBytes("ok"); st.Entries != 1 || st.Bytes != want {
		t.Fatalf("stats %+v, want one entry of %d bytes", st, want)
	}
}
