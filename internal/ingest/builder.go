package ingest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/obs"
)

// BuilderConfig parameterises a Builder. Zero values take the documented
// defaults.
type BuilderConfig struct {
	// Workers bounds the pool; default 1. Index construction is CPU- and
	// memory-hungry (it reads every indexed column), so the pool is kept
	// small and the backlog queues.
	Workers int
	// MaxAttempts bounds retries per step before the failure is recorded
	// as permanent. Default 5. Fatal errors (fastquery.IsFatal) never
	// retry — they would fail identically every time.
	MaxAttempts int
	// Backoff is the initial retry delay, doubled per attempt. Default
	// 100ms.
	Backoff time.Duration
	// IndexVars lists the variables to index; nil indexes every declared
	// variable except the identifier column.
	IndexVars []string
	// Index holds the bitmap index build parameters.
	Index fastbit.IndexOptions
	// OnPublished, when non-nil, is called after a step's index is
	// published and marked — the serving layer's hot-upgrade hook.
	OnPublished func(step int)
	// OnFailed, when non-nil, is called when a step's index build fails
	// permanently.
	OnFailed func(step int, err error)
	// Logger receives build/retry/failure events; nil discards them.
	Logger *obs.Logger
}

func (c BuilderConfig) withDefaults() BuilderConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	return c
}

// Builder is the bounded background index-builder pool: committed steps
// are enqueued, workers build and atomically publish their sidecar
// indexes, and the catalog is updated so the serving layer can upgrade
// the step from the scan backend to the fastbit backend.
type Builder struct {
	cat *Catalog
	cfg BuilderConfig

	mu      sync.Mutex
	cond    *sync.Cond
	pending []int        // deduplicated work list, step order
	queued  map[int]bool // steps in pending or being built right now
	stopped bool

	wg       sync.WaitGroup
	building atomic.Int64
	built    atomic.Uint64
	retries  atomic.Uint64
	failures atomic.Uint64
}

// NewBuilder creates a builder over an open catalog. Call Start to spawn
// the worker pool.
func NewBuilder(cat *Catalog, cfg BuilderConfig) *Builder {
	b := &Builder{cat: cat, cfg: cfg.withDefaults(), queued: map[int]bool{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Start enqueues every committed-but-unindexed step (crash recovery) and
// spawns the worker pool.
func (b *Builder) Start() {
	for _, t := range b.cat.Pending() {
		b.Enqueue(t)
	}
	for i := 0; i < b.cfg.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
}

// Stop drains the pool: workers finish their current step and exit.
// Pending steps stay in the catalog as unindexed and will be re-enqueued
// by the next Start (possibly after a restart).
func (b *Builder) Stop() {
	b.mu.Lock()
	if !b.stopped {
		// Waiting steps leave the backlog gauge with their builder; the
		// ones being built leave it as their workers finish.
		metricIndexBacklog.Add(-float64(len(b.pending)))
	}
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.wg.Wait()
}

// Enqueue adds a committed step to the work list (deduplicated; a no-op
// after Stop).
func (b *Builder) Enqueue(step int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped || b.queued[step] {
		return
	}
	b.queued[step] = true
	b.pending = append(b.pending, step)
	sort.Ints(b.pending)
	metricIndexBacklog.Add(1)
	b.cond.Signal()
}

// Backlog returns the number of steps waiting for a worker plus those
// being built right now.
func (b *Builder) Backlog() int {
	b.mu.Lock()
	n := len(b.pending)
	b.mu.Unlock()
	return n + int(b.building.Load())
}

// Stats reports lifetime counters.
func (b *Builder) Stats() (built, retries, failures uint64) {
	return b.built.Load(), b.retries.Load(), b.failures.Load()
}

func (b *Builder) next() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.pending) == 0 && !b.stopped {
		b.cond.Wait()
	}
	if b.stopped {
		return 0, false
	}
	t := b.pending[0]
	b.pending = b.pending[1:]
	return t, true
}

func (b *Builder) worker() {
	defer b.wg.Done()
	for {
		t, ok := b.next()
		if !ok {
			return
		}
		b.building.Add(1)
		b.buildWithRetry(t)
		b.building.Add(-1)
		metricIndexBacklog.Add(-1)
		// The step stays marked until its build is over: an Enqueue(t)
		// arriving mid-build must not hand t to a second worker, which
		// would publish the sidecar and fire OnPublished twice.
		b.mu.Lock()
		delete(b.queued, t)
		b.mu.Unlock()
	}
}

// sleep waits d or until Stop, whichever comes first; reports whether the
// builder is still running.
func (b *Builder) sleep(d time.Duration) bool {
	deadline := time.Now().Add(d)
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.stopped {
		remain := time.Until(deadline)
		if remain <= 0 {
			return true
		}
		// Condvars have no timed wait pre-1.22-generics style; poll in
		// short slices so Stop is honored promptly.
		b.mu.Unlock()
		time.Sleep(minDuration(remain, 10*time.Millisecond))
		b.mu.Lock()
	}
	return false
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// buildWithRetry drives one step through build attempts, classifying
// errors: fatal ones (the build would fail identically every time —
// corrupt data, unknown variables) are recorded immediately, transient
// ones retry with exponential backoff up to MaxAttempts.
func (b *Builder) buildWithRetry(t int) {
	backoff := b.cfg.Backoff
	for attempt := 1; ; attempt++ {
		start := time.Now()
		size, err := b.BuildStep(t)
		if err == nil {
			b.built.Add(1)
			metricIndexSeconds.Observe(time.Since(start).Seconds())
			if b.cfg.Logger != nil {
				b.cfg.Logger.Info("index published", "step", t, "bytes", size, "attempt", attempt)
			}
			if b.cfg.OnPublished != nil {
				b.cfg.OnPublished(t)
			}
			return
		}
		if fastquery.IsFatal(err) || attempt >= b.cfg.MaxAttempts {
			b.failures.Add(1)
			metricIndexFailures.Inc()
			if _, merr := b.cat.MarkIndexFailed(t, err); merr != nil && b.cfg.Logger != nil {
				b.cfg.Logger.Error("record index failure", "step", t, "err", merr)
			}
			if b.cfg.Logger != nil {
				b.cfg.Logger.Error("index build failed permanently",
					"step", t, "attempts", attempt, "err", err)
			}
			if b.cfg.OnFailed != nil {
				b.cfg.OnFailed(t, err)
			}
			return
		}
		b.retries.Add(1)
		metricIndexRetries.Inc()
		if b.cfg.Logger != nil {
			b.cfg.Logger.Info("index build retry", "step", t, "attempt", attempt, "backoff", backoff, "err", err)
		}
		if !b.sleep(backoff) {
			return // stopping; step stays pending in the catalog
		}
		backoff *= 2
	}
}

// BuildStep synchronously builds, publishes, and marks timestep t's
// sidecar index. Exported for the serving layer's on-demand path and for
// deterministic tests; the background pool calls it through
// buildWithRetry. Returns the published index size.
func (b *Builder) BuildStep(t int) (int64, error) {
	man := b.cat.Snapshot()
	if t < 0 || t >= len(man.Steps) {
		return 0, fastquery.Fatalf("ingest: step %d not committed", t)
	}
	entry := man.Steps[t]
	if entry.Indexed {
		return entry.IndexBytes, nil
	}
	// Guard against building from a torn or bit-flipped data file: the
	// data must still match its commit-time checksum. A mismatch is fatal
	// — rereading won't fix the bytes.
	size, crc, err := fileCRC(b.cat.StepPath(t))
	if err != nil {
		return 0, fmt.Errorf("ingest: step %d: %w", t, err)
	}
	if size != entry.DataBytes || crc != entry.DataCRC {
		return 0, fastquery.Fatalf("ingest: step %d data file mismatch (have %d bytes crc %08x, manifest %d bytes crc %08x)",
			t, size, crc, entry.DataBytes, entry.DataCRC)
	}
	idxBytes, err := fastquery.BuildStepIndex(b.cat.StepPath(t), b.cat.IndexPath(t), b.cfg.IndexVars, man.IDVar, b.cfg.Index)
	if err != nil {
		return 0, fmt.Errorf("ingest: step %d: %w", t, err)
	}
	st := int64(idxBytes)
	if _, err := b.cat.MarkIndexed(t, st); err != nil {
		return 0, err
	}
	return st, nil
}
