package plan

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
)

// PartialPolicy controls what Execute does when a shard cannot be reached
// (all replicas down, retries exhausted).
type PartialPolicy int

const (
	// FailFast aborts the whole operation on the first shard failure.
	FailFast PartialPolicy = iota
	// ReturnPartial merges the surviving shards' partials and marks the
	// result Partial, listing the failed shards — a degraded-but-usable
	// answer, mirroring the brownout convention.
	ReturnPartial
)

// Runner evaluates one fragment on one shard. The scatter client
// implements it with RPCs (replica failover, hedging); the serving layer
// implements it in-process for the one-shard local case.
type Runner interface {
	RunFragment(ctx context.Context, shard int, f Fragment) (*FragmentResult, error)
}

// Execute plans and runs one operation: it cuts the query into fragments
// per the shard map, scatters them through the runner, and merges the
// partials. Rows must be the step's row count (used to compute shard row
// ranges).
//
// Routing preserves bit-identity with single-process execution:
//
//   - Adaptive binning is not mergeable (edges depend on the global data
//     distribution), and unconditional histograms with no explicit range
//     have index-resolution fast paths that a scatter would bypass — both
//     run "wholesale": the original spec evaluated over the whole step on
//     the key's home shard.
//   - Uniform histograms with explicit ranges scatter directly; partials
//     share deterministically recomputed edges and merge bin-wise.
//   - Conditional uniform histograms with data-derived ranges run in two
//     phases: scatter min/max over the selected rows, merge, fix the spec
//     range, then scatter the histogram — exactly the computation the
//     single process does in one address space.
//   - Counts always scatter and sum.
func Execute(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	switch q.Op {
	case OpCount:
		return execCount(ctx, q, m, rows, r, policy)
	case OpHist1D:
		return execHist1D(ctx, q, m, rows, r, policy)
	case OpHist2D:
		return execHist2D(ctx, q, m, rows, r, policy)
	case OpSelect:
		return execSelect(ctx, q, m, rows, r, policy)
	default:
		return nil, fmt.Errorf("plan: unknown op %v", q.Op)
	}
}

// maxBatchInFlight bounds how many queries of one batch ExecuteAll runs at
// once. Each in-flight step holds its selected positions, gathered columns
// and a histogram grid, so the bound is what keeps a 100-step sweep's
// memory at a couple of steps' worth: on the session_track benchmark two
// steps in flight cost +7 % peak RSS for +45 % throughput, four cost
// +20-30 % RSS. On a fleet every in-flight step already fans out to every
// shard. It is a constant, not a knob: admission control sizes the server
// in requests, and a per-request width would let one sweep undo it.
const maxBatchInFlight = 2

// ExecuteAll runs one Execute per query — the timesteps of a sweep, a
// track or a temporal view, which are independent of each other (paper
// Section V-C) — and returns the results aligned with qs. rows[i] is the
// row count of qs[i]'s step. At most min(GOMAXPROCS, maxBatchInFlight)
// queries are in flight; each runs under its own "sweep-step" span. The
// first query to fail (or a done ctx) cancels the rest and is the error
// returned; a shard lost under ReturnPartial is not a failure — that
// query's Result comes back marked Partial like any other.
func ExecuteAll(ctx context.Context, qs []Query, m ShardMap, rows []uint64, r Runner, policy PartialPolicy) ([]*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	width := min(runtime.GOMAXPROCS(0), maxBatchInFlight, len(qs))
	results := make([]*Result, len(qs))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) || ctx.Err() != nil {
					return
				}
				sctx, span := obs.StartSpan(ctx, "sweep-step")
				span.SetAttr("step", strconv.Itoa(qs[i].Step))
				res, err := Execute(sctx, qs[i], m, rows[i], r, policy)
				if err != nil {
					span.SetAttr("error", err.Error())
					once.Do(func() {
						firstErr = err
						cancel()
					})
				}
				span.End()
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Summary folds a batch's execution metadata — never its answers — into
// one Result: the last mode, the fragment total, and the union of failed
// shards with the Partial and BudgetExhausted marks, so a multi-step
// response is marked and explained the way a single plan's is.
func Summary(results []*Result) *Result {
	sum := &Result{}
	for _, res := range results {
		sum.Mode = res.Mode
		sum.Fragments += res.Fragments
		sum.addFailed(res.Failed)
		sum.BudgetExhausted = sum.BudgetExhausted || res.BudgetExhausted
	}
	return sum
}

// task pairs a fragment with its target shard.
type task struct {
	shard int
	frag  Fragment
}

// scatterTasks builds one fragment per non-empty shard row range. An
// empty task list (zero-row step) signals the caller to fall back to a
// single wholesale fragment.
func scatterTasks(m ShardMap, rows uint64, mk func(RowRange) Fragment) []task {
	tasks := make([]task, 0, m.Shards)
	for i := 0; i < m.Shards; i++ {
		rr := m.Range(i, rows)
		if rr.Hi <= rr.Lo {
			continue
		}
		tasks = append(tasks, task{shard: i, frag: mk(rr)})
	}
	return tasks
}

// runTasks scatters the tasks concurrently and collects partials. It
// returns the per-task results (nil where a task failed), the sorted
// distinct failed shard indices, whether any failure was deadline-budget
// exhaustion, and an error when the operation cannot proceed: context
// canceled, a fatal (non-retryable) fragment error, every task failed,
// or any task failed under FailFast.
func runTasks(ctx context.Context, r Runner, tasks []task, policy PartialPolicy) ([]*FragmentResult, []int, bool, error) {
	sctx, scatterSpan := obs.StartSpan(ctx, "scatter")
	scatterSpan.SetAttr("fragments", strconv.Itoa(len(tasks)))
	if len(tasks) > 0 {
		scatterSpan.SetAttr("op", tasks[0].frag.Op.String())
	}
	defer scatterSpan.End()

	results := make([]*FragmentResult, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tasks[i]
			fctx, span := obs.StartSpan(sctx, "fragment")
			span.SetAttr("shard", strconv.Itoa(t.shard))
			span.SetAttr("op", t.frag.Op.String())
			res, err := r.RunFragment(fctx, t.shard, t.frag)
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
			results[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	var firstErr error
	var exhausted bool
	failed := map[int]bool{}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if fastquery.IsFatal(err) {
			return nil, nil, false, err
		}
		failed[tasks[i].shard] = true
		if fastquery.IsExhausted(err) {
			// Deadline-budget exhaustion is the partial contract working:
			// under BOTH policies the shard is marked failed and the
			// survivors merge into a marked partial. Escalating to an error
			// would turn a request that still has time to ship a degraded
			// answer into a 504.
			exhausted = true
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("plan: shard %d: %w", tasks[i].shard, err)
		}
	}
	if firstErr != nil && (policy == FailFast || len(failed) >= len(tasks)) {
		return nil, nil, false, firstErr
	}
	shards := make([]int, 0, len(failed))
	for s := range failed {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	return results, shards, exhausted, nil
}

// runWholesale executes a single whole-step fragment on its home shard.
// There is nothing to merge, so a failure is an error regardless of
// policy (the runner has already exhausted that shard's replicas) —
// except deadline-budget exhaustion, which the exec* callers convert
// into a marked-partial empty result.
func runWholesale(ctx context.Context, m ShardMap, r Runner, f Fragment) (*FragmentResult, int, error) {
	home := m.Home(f.Key())
	fctx, span := obs.StartSpan(ctx, "fragment")
	span.SetAttr("shard", strconv.Itoa(home))
	span.SetAttr("op", f.Op.String())
	res, err := r.RunFragment(fctx, home, f)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		return nil, home, err
	}
	return res, home, nil
}

func (q Query) fragment(op FragOp, rr RowRange) Fragment {
	return Fragment{
		Op: op, Dataset: q.Dataset, Step: q.Step, Rows: rr,
		Query: q.Query, Backend: q.Backend, Spec1: q.Spec1, Spec2: q.Spec2,
	}
}

func execCount(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	mode := "scatter"
	if m.Shards <= 1 {
		mode = "local"
	}
	tasks := scatterTasks(m, rows, func(rr RowRange) Fragment {
		if m.Shards <= 1 {
			rr = RowRange{} // whole step: cheaper unfiltered path
		}
		return q.fragment(FragCount, rr)
	})
	if len(tasks) == 0 {
		tasks = []task{{shard: 0, frag: q.fragment(FragCount, RowRange{})}}
	}
	parts, failedShards, exhausted, err := runTasks(ctx, r, tasks, policy)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Mode: mode, Fragments: len(tasks), Failed: failedShards,
		Partial: len(failedShards) > 0, BudgetExhausted: exhausted,
	}
	for _, p := range parts {
		if p != nil {
			res.Count += p.Count
		}
	}
	return res, nil
}

// execSelect scatters FragSelect fragments and merges the per-shard
// position lists. Shard row ranges are contiguous, disjoint and ascending
// by shard index, and each partial is sorted within its range, so
// concatenation in task order yields the globally sorted position list —
// identical to the single-process selection regardless of the split.
func execSelect(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	mode := "scatter"
	if m.Shards <= 1 {
		mode = "local"
	}
	tasks := scatterTasks(m, rows, func(rr RowRange) Fragment {
		if m.Shards <= 1 {
			rr = RowRange{} // whole step: one fragment, no clipping
		}
		return q.fragment(FragSelect, rr)
	})
	if len(tasks) == 0 { // zero-row step: nothing to select
		return &Result{Mode: mode}, nil
	}
	parts, failedShards, exhausted, err := runTasks(ctx, r, tasks, policy)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Mode: mode, Fragments: len(tasks), Failed: failedShards,
		Partial: len(failedShards) > 0, BudgetExhausted: exhausted,
	}
	total := 0
	for _, p := range parts {
		if p != nil {
			total += len(p.Sel)
		}
	}
	res.Sel = make([]uint64, 0, total)
	for _, p := range parts {
		if p != nil {
			res.Sel = append(res.Sel, p.Sel...)
			res.Count += p.Count
		}
	}
	return res, nil
}

func execHist1D(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	spec := q.Spec1
	wholesale := m.Shards <= 1 || rows == 0 ||
		spec.Binning == histogram.Adaptive ||
		(q.Query == "" && !spec.HasRange())
	if wholesale {
		f := q.fragment(FragWhole1D, RowRange{})
		mode := "wholesale"
		if m.Shards <= 1 {
			mode = "local"
		}
		part, home, err := runWholesale(ctx, m, r, f)
		if err != nil {
			if fastquery.IsExhausted(err) {
				// Nothing survived to merge, but the contract holds under
				// both policies: a spent budget yields a marked-partial
				// empty histogram, never an error (which would be a 504).
				res := &Result{Mode: mode, Fragments: 1, BudgetExhausted: true}
				res.addFailed([]int{home})
				res.Hist1, _ = mergeHist1(spec, nil)
				return res, nil
			}
			return nil, err
		}
		return &Result{Hist1: part.Hist1, Mode: mode, Fragments: 1}, nil
	}

	res := &Result{Mode: "scatter"}
	if !spec.HasRange() {
		vr, err := minmaxPhase(ctx, q, m, rows, r, policy, res, []string{spec.Var})
		if err != nil {
			return nil, err
		}
		spec.Lo, spec.Hi = vr[spec.Var].Lo, vr[spec.Var].Hi
	}
	tasks := scatterTasks(m, rows, func(rr RowRange) Fragment {
		f := q.fragment(FragHist1D, rr)
		f.Spec1 = spec
		return f
	})
	parts, failedShards, exhausted, err := runTasks(ctx, r, tasks, policy)
	if err != nil {
		return nil, err
	}
	res.Fragments += len(tasks)
	res.addFailed(failedShards)
	res.BudgetExhausted = res.BudgetExhausted || exhausted
	merged, err := mergeHist1(spec, parts)
	if err != nil {
		return nil, err
	}
	res.Hist1 = merged
	return res, nil
}

func execHist2D(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	spec := q.Spec2
	needX, needY := !spec.HasXRange(), !spec.HasYRange()
	wholesale := m.Shards <= 1 || rows == 0 ||
		spec.Binning == histogram.Adaptive ||
		(q.Query == "" && (needX || needY))
	if wholesale {
		f := q.fragment(FragWhole2D, RowRange{})
		mode := "wholesale"
		if m.Shards <= 1 {
			mode = "local"
		}
		part, home, err := runWholesale(ctx, m, r, f)
		if err != nil {
			if fastquery.IsExhausted(err) {
				res := &Result{Mode: mode, Fragments: 1, BudgetExhausted: true}
				res.addFailed([]int{home})
				res.Hist2, _ = mergeHist2(spec, nil)
				return res, nil
			}
			return nil, err
		}
		return &Result{Hist2: part.Hist2, Mode: mode, Fragments: 1}, nil
	}

	res := &Result{Mode: "scatter"}
	if needX || needY {
		var vars []string
		if needX {
			vars = append(vars, spec.XVar)
		}
		if needY && spec.YVar != spec.XVar {
			vars = append(vars, spec.YVar)
		}
		vr, err := minmaxPhase(ctx, q, m, rows, r, policy, res, vars)
		if err != nil {
			return nil, err
		}
		if needX {
			spec.XLo, spec.XHi = vr[spec.XVar].Lo, vr[spec.XVar].Hi
		}
		if needY {
			y := vr[spec.YVar]
			if spec.YVar == spec.XVar {
				y = vr[spec.XVar]
			}
			spec.YLo, spec.YHi = y.Lo, y.Hi
		}
	}
	tasks := scatterTasks(m, rows, func(rr RowRange) Fragment {
		f := q.fragment(FragHist2D, rr)
		f.Spec2 = spec
		return f
	})
	parts, failedShards, exhausted, err := runTasks(ctx, r, tasks, policy)
	if err != nil {
		return nil, err
	}
	res.Fragments += len(tasks)
	res.addFailed(failedShards)
	res.BudgetExhausted = res.BudgetExhausted || exhausted
	merged, err := mergeHist2(spec, parts)
	if err != nil {
		return nil, err
	}
	res.Hist2 = merged
	return res, nil
}

// minmaxPhase runs phase one of a two-phase histogram: scatter per-shard
// min/max of the selected rows for the named variables and merge. A shard
// lost here (under ReturnPartial) marks the result Partial — the derived
// range then reflects the survivors, like every other partial answer.
func minmaxPhase(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy, res *Result, vars []string) (map[string]VarRange, error) {
	tasks := scatterTasks(m, rows, func(rr RowRange) Fragment {
		f := q.fragment(FragMinMax, rr)
		f.Vars = vars
		return f
	})
	parts, failedShards, exhausted, err := runTasks(ctx, r, tasks, policy)
	if err != nil {
		return nil, err
	}
	res.Fragments += len(tasks)
	res.addFailed(failedShards)
	res.BudgetExhausted = res.BudgetExhausted || exhausted
	_, span := obs.StartSpan(ctx, "merge-range")
	merged := mergeRanges(vars, parts)
	span.End()
	return merged, nil
}

// addFailed unions newly failed shards into the result and flips Partial.
func (res *Result) addFailed(shards []int) {
	if len(shards) == 0 {
		return
	}
	seen := map[int]bool{}
	for _, s := range res.Failed {
		seen[s] = true
	}
	for _, s := range shards {
		if !seen[s] {
			res.Failed = append(res.Failed, s)
			seen[s] = true
		}
	}
	sort.Ints(res.Failed)
	res.Partial = true
}

// mergeHist1 folds 1D partials bin-wise. The first partial is cloned so
// merging never mutates a shard-cached value. When every partial is nil
// (all shards failed, or the one wholesale fragment exhausted its
// budget) an empty histogram over the spec's edges is returned; an unset
// range falls back to [0, 0], as mergeRanges reports for an empty
// selection, so the edges stay finite and encodable.
func mergeHist1(spec histogram.Spec1D, parts []*FragmentResult) (*histogram.Hist1D, error) {
	var merged *histogram.Hist1D
	for _, p := range parts {
		if p == nil || p.Hist1 == nil {
			continue
		}
		if merged == nil {
			merged = &histogram.Hist1D{
				Var:    p.Hist1.Var,
				Edges:  append([]float64(nil), p.Hist1.Edges...),
				Counts: append([]uint64(nil), p.Hist1.Counts...),
			}
			continue
		}
		if err := merged.Merge(p.Hist1); err != nil {
			return nil, fmt.Errorf("plan: merge 1d partials: %w", err)
		}
	}
	if merged == nil {
		if !spec.HasRange() {
			spec.Lo, spec.Hi = 0, 0
		}
		merged = &histogram.Hist1D{
			Var:    spec.Var,
			Edges:  histogram.UniformEdges(spec.Lo, spec.Hi, spec.Bins),
			Counts: make([]uint64, spec.Bins),
		}
	}
	return merged, nil
}

// mergeHist2 is mergeHist1 for 2D partials.
func mergeHist2(spec histogram.Spec2D, parts []*FragmentResult) (*histogram.Hist2D, error) {
	var merged *histogram.Hist2D
	for _, p := range parts {
		if p == nil || p.Hist2 == nil {
			continue
		}
		if merged == nil {
			merged = &histogram.Hist2D{
				XVar:   p.Hist2.XVar,
				YVar:   p.Hist2.YVar,
				XEdges: append([]float64(nil), p.Hist2.XEdges...),
				YEdges: append([]float64(nil), p.Hist2.YEdges...),
				Counts: append([]uint64(nil), p.Hist2.Counts...),
			}
			continue
		}
		if err := merged.Merge(p.Hist2); err != nil {
			return nil, fmt.Errorf("plan: merge 2d partials: %w", err)
		}
	}
	if merged == nil {
		if !spec.HasXRange() {
			spec.XLo, spec.XHi = 0, 0
		}
		if !spec.HasYRange() {
			spec.YLo, spec.YHi = 0, 0
		}
		merged = &histogram.Hist2D{
			XVar:   spec.XVar,
			YVar:   spec.YVar,
			XEdges: histogram.UniformEdges(spec.XLo, spec.XHi, spec.XBins),
			YEdges: histogram.UniformEdges(spec.YLo, spec.YHi, spec.YBins),
			Counts: make([]uint64, spec.XBins*spec.YBins),
		}
	}
	return merged, nil
}
