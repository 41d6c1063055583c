package serve

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/plan"
)

// Outcome describes how a cache lookup was satisfied.
type Outcome int

// Lookup outcomes.
const (
	// Computed: this call ran the compute function.
	Computed Outcome = iota
	// Hit: the result was already stored.
	Hit
	// Coalesced: an identical call was in flight; this call waited for
	// its result instead of recomputing (singleflight).
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// CacheStats is a snapshot of cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Coalesced uint64 `json:"coalesced"`
	Abandoned uint64 `json:"abandoned"` // waiters that left before the flight finished
	Inflight  int    `json:"inflight"`
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes"` // what the entries are charged, see entrySize
	// ProtectedBytes is the part of Bytes that was hit since it was
	// stored (plan.Store): about the panel set on a dashboard, about 0 on
	// a stream that never repeats.
	ProtectedBytes int `json:"protected_bytes"`
}

// Cache is a byte-bounded result cache with request coalescing: when
// several goroutines ask for the same key concurrently, exactly one runs
// the compute function and the rest wait for its result. Results are
// cached only on success; errors propagate to every waiter and leave no
// entry behind. Each stored result is charged its entrySize in a
// plan.Store: a new answer waits in probation, an eighth of the budget,
// and a hit (Do or Peek) promotes it, so only answers asked for again
// hold the rest of the budget.
//
// Flights are detached from their initiating request: fn runs in its own
// goroutine under a flight-owned context, so one waiter's cancellation
// never kills a result other coalesced waiters still want. The flight
// context is canceled only when the last interested waiter has abandoned
// it — that is what lets a disconnected client release backend capacity
// without poisoning anyone else.
type Cache struct {
	mu      sync.Mutex
	store   *plan.Store
	flights map[string]*flight

	hits, misses, coalesced, abandoned uint64
}

// flight is one in-progress computation. waiters counts the requests that
// still want the result; finished flips once fn has returned (after which
// cancel must not fire — the result is already being stored).
type flight struct {
	done     chan struct{}
	cancel   context.CancelFunc
	waiters  int
	finished bool
	val      any
	err      error
}

// NewCache creates a cache holding results up to maxBytes in total.
// maxBytes <= 0 disables storage (coalescing still works).
func NewCache(maxBytes int) *Cache {
	return &Cache{store: plan.NewStore(maxBytes), flights: map[string]*flight{}}
}

// entrySize is what val costs stored under key: plan.Result.CacheBytes,
// the rule a shard's fragment cache charges by, or the fixed overhead and
// the key for any other value.
func entrySize(key string, val any) int {
	if res, ok := val.(*plan.Result); ok {
		return res.CacheBytes(key)
	}
	return plan.CacheEntryOverhead + len(key)
}

// Do returns the cached result for key, or computes it with fn. Identical
// concurrent calls are collapsed into one fn invocation. fn receives a
// context owned by the flight, not by any single caller: it is canceled
// only when every coalesced waiter has gone away. Do itself returns as
// soon as ctx is done, with ctx's error.
func (c *Cache) Do(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (any, Outcome, error) {
	c.mu.Lock()
	if val, ok := c.store.Hit(key); ok {
		c.hits++
		c.mu.Unlock()
		return val, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		f.waiters++
		c.mu.Unlock()
		return c.wait(ctx, f, Coalesced)
	}
	c.misses++
	// The flight context is detached from the initiating request (see the
	// type comment) but carries its span, so backend work traced under the
	// flight still lands in the first requester's trace.
	fctx, cancel := context.WithCancel(obs.CarrySpan(context.Background(), ctx))
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.flights[key] = f
	c.mu.Unlock()

	go c.run(key, f, fctx, fn)
	return c.wait(ctx, f, Computed)
}

// Peek returns the cached value for key without computing or coalescing:
// a pure lookup. Hits count and promote like Do hits. The admission
// layer uses it to let cached-key probes bypass the gate, and the
// brownout ladder to find a coarser resolution already resident.
func (c *Cache) Peek(key string) (any, bool) {
	val, ok := c.store.Hit(key)
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return val, ok
}

// run executes fn under the flight context and publishes its result.
func (c *Cache) run(key string, f *flight, fctx context.Context, fn func(ctx context.Context) (any, error)) {
	val, err := fn(fctx)

	c.mu.Lock()
	f.finished = true
	f.val, f.err = val, err
	delete(c.flights, key)
	if err == nil && cacheable(val) {
		// A result larger than the whole budget is served to its waiters
		// but not stored.
		c.store.Put(key, val, entrySize(key, val))
	}
	c.mu.Unlock()
	close(f.done)
	f.cancel() // release the flight context's resources
}

// cacheable reports whether a computed value may be stored. Partial
// scatter answers — merged without every shard — are served to their
// waiters but never cached: the next identical request should try the full
// fleet again rather than repeat a degraded result. Nor is a nil result,
// which has nothing to serve a hit with.
func cacheable(val any) bool {
	res, ok := val.(*plan.Result)
	return !ok || res != nil && !res.Partial
}

// wait blocks until the flight finishes or ctx is done. A caller that
// leaves early decrements the waiter count; the last one to leave cancels
// the flight so the backend stops working for nobody.
func (c *Cache) wait(ctx context.Context, f *flight, outcome Outcome) (any, Outcome, error) {
	select {
	case <-f.done:
		return f.val, outcome, f.err
	case <-ctx.Done():
		c.mu.Lock()
		c.abandoned++
		f.waiters--
		if f.waiters == 0 && !f.finished {
			f.cancel()
		}
		c.mu.Unlock()
		return nil, outcome, ctx.Err()
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	st := c.store.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      st.Evictions,
		Coalesced:      c.coalesced,
		Abandoned:      c.abandoned,
		Inflight:       len(c.flights),
		Entries:        st.Entries,
		Bytes:          st.Bytes,
		ProtectedBytes: st.ProtectedBytes,
	}
}
