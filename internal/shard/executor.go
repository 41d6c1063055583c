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
	metricFragHits = obs.Default().Counter("shard_frag_cache_hits_total",
		"Fragment results answered from the shard-local cache.")
	metricFragMisses = obs.Default().Counter("shard_frag_cache_misses_total",
		"Fragment requests that had to be evaluated.")
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
	Evals        uint64 // fragments evaluated (cache misses that ran)
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
	CacheBytes   int // what the entries are charged in all
	// CacheProtectedBytes is the part of CacheBytes that a requested
	// fragment hit since it was stored (plan.Store): about 0 when no
	// fragment repeats, however many two-phase handoffs pass through.
	CacheProtectedBytes int
	// IndexBytes is the in-memory size of the column indexes the open
	// steps keep decoded: on a shard, each cut to the shard's rows.
	IndexBytes int
}

// Executor evaluates plan fragments over locally opened datasets, with a
// shard-local cache of fragment results keyed by the canonical fragment
// key. Hot steps — repeated drill-downs over the same fragment — are
// answered without touching the data at all.
//
// The cache is a plan.Store, which promotes an entry only on a
// request-level hit: Peek or RunCached on the requested fragment's key.
// The two-phase handoff — the selection and the columns gathered at it,
// read by phase 2 — is an internal read that never promotes, so it lives
// and dies in probation. A shared selection is evaluated once at a time:
// fragments that need one already in flight wait for it (selection), so
// concurrent plans over one FragSelect — a session's views, one plan per
// variable — charge one evaluation between them. Requested fragments are
// not coalesced: the frontend's result cache already coalesces identical
// client requests.
type Executor struct {
	mu       sync.Mutex
	datasets map[string]*exDataset

	cache *plan.Store

	flightMu sync.Mutex
	flights  map[string]*flight // FragSelect keys being evaluated

	evals, hits, misses atomic.Uint64
}

type exDataset struct {
	src *fastquery.Source

	mu    sync.Mutex
	steps map[int]*fastquery.Step
}

// FragCacheBytes is a shard worker's fragment cache budget.
const FragCacheBytes = 64 << 20

// NewExecutor creates an executor whose fragment cache holds results up
// to cacheBytes in total (0 disables caching).
func NewExecutor(cacheBytes int) *Executor {
	return &Executor{
		datasets: map[string]*exDataset{},
		cache:    plan.NewStore(cacheBytes),
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

// Peek returns a cached result for the fragment without evaluating
// anything; the RPC service uses it to answer hot fragments ahead of
// admission control, mirroring the serve layer's cached-probe bypass.
func (e *Executor) Peek(f plan.Fragment) (*plan.FragmentResult, bool) {
	res, ok := fragResult(e.cache.Hit(f.Key()))
	if ok {
		e.hits.Add(1)
		metricFragHits.Inc()
	}
	return res, ok
}

// RunCached evaluates one fragment, answering from the shard-local cache
// when possible, and reports whether it did, so the explain surface can
// mark cache-served fragments (which correctly charged zero cost).
// Cached results are shared and must be treated as read-only; the
// planner's merge never mutates a partial (it appends the partials'
// count encodings to the merged answer's own list).
func (e *Executor) RunCached(ctx context.Context, f plan.Fragment) (*plan.FragmentResult, bool, error) {
	key := f.Key()
	if res, ok := fragResult(e.cache.Hit(key)); ok {
		e.hits.Add(1)
		metricFragHits.Inc()
		return res, true, nil
	}
	e.misses.Add(1)
	metricFragMisses.Inc()
	st, err := e.step(f.Dataset, f.Step)
	if err != nil {
		return nil, false, err
	}
	if !f.Rows.Whole() {
		// A shard's ranged fragments all cover its ShardMap.Range of the
		// step, the same on its replicas: the first one makes it the
		// rows whose index the step keeps.
		st.KeepIndexRows(rangeOf(st, f.Rows))
	}
	e.evals.Add(1)
	metricFragments.Inc()
	var res *plan.FragmentResult
	if sf, ok := selectionOf(f); ok {
		// The phases of a histogram read the same rows, and each column
		// at them once: phase 1 keeps what it reads under the rows' key,
		// and the later phases bin it. A conditional fragment's rows are
		// a FragSelect entry, which a session select over the same range
		// shares too. An unconditional one's are its range, where only
		// phase 1 (FragMinMax) keeps, so a single-phase histogram keeps
		// nothing. None of them promotes these entries; an evicted entry
		// is just recomputed.
		g := gathered{c: e.cache, key: sf.Key()}
		var rows fastquery.Rows
		if f.Query == "" {
			g.readOnly = f.Op != plan.FragMinMax
			lo, hi := rangeOf(st, f.Rows)
			rows = fastquery.Rows{All: true, Lo: lo, Hi: hi, Gathered: g}
		} else {
			var sel *plan.FragmentResult
			if sel, err = e.selection(ctx, st, sf); err == nil {
				rows = fastquery.Rows{Pos: sel.Sel, Gathered: g}
			}
		}
		if err == nil {
			res, err = evalOver(ctx, st, f, rows)
		}
	} else {
		res, err = Eval(ctx, st, f)
	}
	if err != nil {
		return nil, false, err
	}
	e.cache.Put(key, res, res.CacheBytes(key))
	return res, false, nil
}

// flight is one evaluation of a shared selection; res is set, before done
// closes, only when it succeeded.
type flight struct {
	done chan struct{}
	res  *plan.FragmentResult
}

// selection answers the shared FragSelect sf from the fragment cache or
// evaluates it there. A fragment that finds sf in flight waits for that
// evaluation, or for its own ctx, and charges nothing; when the leader
// failed or was canceled it stored nothing, and the waiter tries again,
// so it evaluates sf itself unless another flight started first. sf is
// not a requested fragment, so it moves none of the hit, miss and
// evaluation counters and promotes nothing.
func (e *Executor) selection(ctx context.Context, st *fastquery.Step, sf plan.Fragment) (*plan.FragmentResult, error) {
	key := sf.Key()
	for {
		if res, ok := fragResult(e.cache.Get(key)); ok {
			return res, nil
		}
		e.flightMu.Lock()
		fl, busy := e.flights[key]
		if !busy {
			// A leader that finished since the lookup above stored its
			// result before it left flights: look again, or evaluate sf
			// twice.
			if res, ok := fragResult(e.cache.Get(key)); ok {
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

// lead evaluates the selection of flight fl and stores it in the fragment
// cache, then releases the fragments waiting for it.
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
	e.cache.Put(key, res, res.CacheBytes(key))
	fl.res = res
	return res, nil
}

// fragResult is a store lookup's value as a fragment result.
func fragResult(v any, ok bool) (*plan.FragmentResult, bool) {
	res, _ := v.(*plan.FragmentResult)
	return res, ok && res != nil
}

// gathered keeps the columns read at a fragment's rows — a cached
// selection's positions, or an unconditional fragment's range — in the
// fragment cache, each under the rows' key and the column's name and
// charged its 8 bytes a value. Like the selection, a column evicted is
// just read again. A read-only one finds what another phase kept and
// keeps nothing.
type gathered struct {
	c        *plan.Store
	key      string // the rows' FragSelect key
	readOnly bool
}

func (g gathered) entry(name string) string { return g.key + "\x1egather\x1f" + name }

func (g gathered) Column(name string) ([]float64, bool) {
	v, ok := g.c.Get(g.entry(name))
	vs, _ := v.([]float64)
	return vs, ok && vs != nil
}

func (g gathered) Keep(name string, vals []float64) {
	if g.readOnly {
		return
	}
	key := g.entry(name)
	g.c.Put(key, vals, plan.CacheEntryOverhead+len(key)+8*cap(vals))
}

// selectionOf returns the FragSelect fragment naming the rows a ranged
// min/max or histogram fragment reads its values at: for a conditional
// fragment, the selection whose positions it reads.
func selectionOf(f plan.Fragment) (plan.Fragment, bool) {
	switch f.Op {
	case plan.FragMinMax, plan.FragHist1D, plan.FragHist2D:
	default:
		return plan.Fragment{}, false
	}
	if f.Rows.Whole() {
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
	st := e.cache.Stats()
	return ExecStats{
		Datasets:            datasets,
		Steps:               steps,
		Evals:               e.evals.Load(),
		CacheHits:           e.hits.Load(),
		CacheMisses:         e.misses.Load(),
		CacheEntries:        st.Entries,
		CacheBytes:          st.Bytes,
		CacheProtectedBytes: st.ProtectedBytes,
		IndexBytes:          indexBytes,
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
