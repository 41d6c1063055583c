package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Package-level instruments for the shard execution tier, registered in
// the process-wide registry like the cluster RPC series.
var (
	metricFragments = obs.Default().Counter("shard_fragments_total",
		"Plan fragments evaluated by this process's shard executor.")
	metricBudgetShed = obs.Default().Counter("shard_budget_shed_total",
		"Fragments shed by a shard worker because their deadline budget expired.")
	metricBudgetSkips = obs.Default().Counter("shard_budget_skips_total",
		"Fragments the scatter client refused to dispatch or abandoned because the deadline budget was spent.")
)

// ExecStats is a snapshot of one executor's counters, shipped to the
// frontend by Shard.Stats so /v1/stats can aggregate the fleet.
type ExecStats struct {
	Datasets     int
	Steps        int    // total steps across datasets
	Evals        uint64 // requested fragments evaluated
	CacheEntries int    // two-phase handoff entries kept
	CacheBytes   int    // what the entries are charged in all
	// IndexBytes is the in-memory size of the column indexes the open
	// steps keep decoded: on a shard, each cut to the shard's rows.
	IndexBytes int
}

// Executor evaluates plan fragments over locally opened datasets. It
// answers no requested fragment from storage: the frontend's result cache
// already keys and coalesces every client request, so a shard evaluates
// every fragment it is sent.
//
// What it keeps, in a plan.Store, is the two-phase handoff: a FragSelect's
// positions and the columns gathered at them, read by the later phases of
// a conditional histogram and by a session's views over the same brush.
// These reads never promote, so the handoff lives and dies in probation,
// an eighth of the budget; an evicted entry is just recomputed. A shared
// selection is evaluated once at a time: fragments that need one already
// in flight wait for it (selection), so concurrent fragments over one
// FragSelect — a session's select and views, one plan per variable —
// charge one evaluation between them.
type Executor struct {
	mu       sync.Mutex
	datasets map[string]*exDataset

	handoff *plan.Store

	flightMu sync.Mutex
	flights  map[string]*flight // FragSelect keys being evaluated

	evals atomic.Uint64
}

type exDataset struct {
	src *fastquery.Source

	mu    sync.Mutex
	steps map[int]*fastquery.Step
}

// FragCacheBytes is a shard worker's handoff store budget.
const FragCacheBytes = 64 << 20

// NewExecutor creates an executor whose handoff store holds up to
// cacheBytes in total (0 keeps nothing).
func NewExecutor(cacheBytes int) *Executor {
	return &Executor{
		datasets: map[string]*exDataset{},
		handoff:  plan.NewStore(cacheBytes),
		flights:  map[string]*flight{},
	}
}

// AddDataset opens a dataset directory under the given name.
func (e *Executor) AddDataset(name, dir string) error {
	src, err := fastquery.Open(dir)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.datasets[name]; dup {
		src.Close()
		return fmt.Errorf("shard: duplicate dataset %q", name)
	}
	e.datasets[name] = &exDataset{src: src, steps: map[int]*fastquery.Step{}}
	return nil
}

// step returns a cached open step handle for the dataset.
func (e *Executor) step(dataset string, t int) (*fastquery.Step, error) {
	e.mu.Lock()
	d, ok := e.datasets[dataset]
	e.mu.Unlock()
	if !ok {
		return nil, fastquery.Fatalf("shard: unknown dataset %q", dataset)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if st, ok := d.steps[t]; ok {
		return st, nil
	}
	st, err := d.src.OpenStep(t)
	if err != nil {
		return nil, err
	}
	d.steps[t] = st
	return st, nil
}

// Run evaluates one requested fragment. A ranged conditional fragment — a
// FragSelect, or a min/max or histogram reading its values at one — takes
// its selection from the handoff store or its flight (selection). A
// FragSelect's result is that stored selection, shared and read-only: the
// planner's merge copies the positions out of it.
func (e *Executor) Run(ctx context.Context, f plan.Fragment) (*plan.FragmentResult, error) {
	st, err := e.step(f.Dataset, f.Step)
	if err != nil {
		return nil, err
	}
	if !f.Rows.Whole() {
		// A shard's ranged fragments all cover its ShardMap.Range of the
		// step, the same on its replicas: the first one makes it the
		// rows whose index the step keeps.
		st.KeepIndexRows(rangeOf(st, f.Rows))
	}
	e.evals.Add(1)
	metricFragments.Inc()
	sf, ok := selectionOf(f)
	if !ok {
		return Eval(ctx, st, f)
	}
	// Phase 1 keeps the columns it gathers at the selection under the
	// selection's key, so the later phases read each column once.
	sel, err := e.selection(ctx, st, sf)
	if err != nil || f.Op == plan.FragSelect {
		return sel, err
	}
	return evalOver(ctx, st, f, fastquery.Rows{Pos: sel.Sel, Gathered: gathered{c: e.handoff, key: sf.Key()}})
}

// flight is one evaluation of a shared selection; res is set, before done
// closes, only when it succeeded.
type flight struct {
	done chan struct{}
	res  *plan.FragmentResult
}

// selection answers the shared FragSelect sf from the handoff store or
// evaluates it there. A fragment that finds sf in flight waits for that
// evaluation, or for its own ctx, and charges nothing; when the leader
// failed or was canceled it stored nothing, and the waiter tries again,
// so it evaluates sf itself unless another flight started first.
func (e *Executor) selection(ctx context.Context, st *fastquery.Step, sf plan.Fragment) (*plan.FragmentResult, error) {
	key := sf.Key()
	for {
		if res, ok := fragResult(e.handoff.Get(key)); ok {
			return res, nil
		}
		e.flightMu.Lock()
		fl, busy := e.flights[key]
		if !busy {
			// A leader that finished since the lookup above stored its
			// result before it left flights: look again, or evaluate sf
			// twice.
			if res, ok := fragResult(e.handoff.Get(key)); ok {
				e.flightMu.Unlock()
				return res, nil
			}
			fl = &flight{done: make(chan struct{})}
			e.flights[key] = fl
		}
		e.flightMu.Unlock()
		if !busy {
			return e.lead(ctx, st, sf, key, fl)
		}
		select {
		case <-fl.done:
			if fl.res != nil {
				return fl.res, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// lead evaluates the selection of flight fl and stores it in the handoff
// store, then releases the fragments waiting for it.
func (e *Executor) lead(ctx context.Context, st *fastquery.Step, sf plan.Fragment, key string, fl *flight) (*plan.FragmentResult, error) {
	defer func() {
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(fl.done)
	}()
	res, err := Eval(ctx, st, sf)
	if err != nil {
		return nil, err
	}
	keepSelection(e.handoff, key, res)
	fl.res = res
	return res, nil
}

// keepSelection stores the selection res under key, charged its positions
// beside the fixed overhead of an entry.
func keepSelection(s *plan.Store, key string, res *plan.FragmentResult) {
	s.Put(key, res, plan.CacheEntryOverhead+len(key)+8*len(res.Sel))
}

// fragResult is a store lookup's value as a fragment result.
func fragResult(v any, ok bool) (*plan.FragmentResult, bool) {
	res, _ := v.(*plan.FragmentResult)
	return res, ok && res != nil
}

// gathered keeps the columns gathered at a conditional fragment's rows,
// a stored selection's positions, in the handoff store, each under the
// rows' key and the column's name and charged its 8 bytes a value. Like
// the selection, a column evicted is just read again. An unconditional
// fragment keeps nothing: each of its passes visits its range's chunks
// (fastquery.Rows), which costs less than a column kept.
type gathered struct {
	c   *plan.Store
	key string // the rows' FragSelect key
}

func (g gathered) entry(name string) string { return g.key + "\x1egather\x1f" + name }

func (g gathered) Column(name string) ([]float64, bool) {
	v, ok := g.c.Get(g.entry(name))
	vs, _ := v.([]float64)
	return vs, ok && vs != nil
}

func (g gathered) Keep(name string, vals []float64) {
	key := g.entry(name)
	g.c.Put(key, vals, plan.CacheEntryOverhead+len(key)+8*cap(vals))
}

// selectionOf returns the FragSelect fragment naming the rows a ranged
// conditional fragment reads: the selection whose positions a min/max or
// histogram gathers at, and a FragSelect's own key.
func selectionOf(f plan.Fragment) (plan.Fragment, bool) {
	switch f.Op {
	case plan.FragSelect, plan.FragMinMax, plan.FragHist1D, plan.FragHist2D:
	default:
		return plan.Fragment{}, false
	}
	if f.Rows.Whole() || f.Query == "" {
		return plan.Fragment{}, false
	}
	return plan.Fragment{
		Op: plan.FragSelect, Dataset: f.Dataset, Step: f.Step,
		Rows: f.Rows, Query: f.Query, Backend: f.Backend,
	}, true
}

// Stats snapshots the executor counters.
func (e *Executor) Stats() ExecStats {
	e.mu.Lock()
	datasets, steps, indexBytes := len(e.datasets), 0, 0
	for _, d := range e.datasets {
		steps += d.src.Steps()
		d.mu.Lock()
		for _, st := range d.steps {
			indexBytes += st.IndexBytes()
		}
		d.mu.Unlock()
	}
	e.mu.Unlock()
	st := e.handoff.Stats()
	return ExecStats{
		Datasets:     datasets,
		Steps:        steps,
		Evals:        e.evals.Load(),
		CacheEntries: st.Entries,
		CacheBytes:   st.Bytes,
		IndexBytes:   indexBytes,
	}
}

// Close closes every open step and dataset source.
func (e *Executor) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, d := range e.datasets {
		d.mu.Lock()
		for _, st := range d.steps {
			if err := st.Close(); err != nil && first == nil {
				first = err
			}
		}
		d.steps = map[int]*fastquery.Step{}
		d.mu.Unlock()
		if err := d.src.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.datasets = map[string]*exDataset{}
	return first
}
