package plan

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// ExecuteCells plans and runs one operation: it cuts the query into fragments
// per the shard map, scatters them through the runner, and merges the
// partials. Rows must be the step's row count (used to compute shard row
// ranges).
//
// In one process every operation is one fragment over the whole step,
// which resolves its spec from the rows it bins. On a fleet every
// fragment is one shard's row range, and routing preserves bit-identity
// with one process:
//
//   - Counts and selections scatter and sum or concatenate.
//   - Uniform histograms with explicit ranges scatter directly; partials
//     share deterministically recomputed edges and merge bin-wise.
//   - A histogram without a range, or with adaptive bins, first resolves
//     its axes in phases (resolve), so every shard bins against the edges
//     one process derives in one address space.
//
// Its histograms are in the cells form, as they merged: read-only sums of
// the partials' encodings. The server answers through it, so no request
// builds a dense count grid; Execute is ExecuteCells with its histograms
// expanded.
func ExecuteCells(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	switch q.Op {
	case OpCount:
		return execCount(ctx, q, m, rows, r, policy)
	case OpHist1D, OpHist2D:
		return execHist(ctx, q, m, rows, r, policy)
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

// ExecuteAll runs one ExecuteCells per query — the timesteps of a sweep, a
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
				res, err := ExecuteCells(sctx, qs[i], m, rows[i], r, policy)
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

// scatter runs one fragment per maker on every shard's row range and
// returns the partials range by range, makers in order within a range:
// with k makers, parts[i*k+j] is maker j's on the i-th range (nil where
// it failed). One process runs one whole-step fragment per maker; a fleet
// skips empty ranges, so a zero-row step plans no fragment. It folds the
// attempt into res as runTasks does.
func scatter(ctx context.Context, m ShardMap, rows uint64, r Runner, policy PartialPolicy, res *Result, mks ...func(RowRange) Fragment) ([]*FragmentResult, error) {
	var tasks []task
	for i := 0; i < max(m.Shards, 1); i++ {
		rr := RowRange{} // one process: the whole step
		if m.Shards > 1 {
			if rr = m.Range(i, rows); rr.Hi <= rr.Lo {
				continue
			}
		}
		for _, mk := range mks {
			tasks = append(tasks, task{shard: i, frag: mk(rr)})
		}
	}
	return runTasks(ctx, r, tasks, policy, res)
}

// runTasks scatters the tasks concurrently and collects partials. It
// returns the per-task results (nil where a task failed) and folds the
// attempt into res: the fragment count, the failed shards and whether any
// failure was deadline-budget exhaustion. It returns an error when the
// operation cannot proceed: context canceled, a fatal (non-retryable)
// fragment error, every task failed, or any task failed under FailFast.
func runTasks(ctx context.Context, r Runner, tasks []task, policy PartialPolicy, res *Result) ([]*FragmentResult, error) {
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
		return nil, err
	}
	var firstErr error
	var exhausted bool
	failed := map[int]bool{}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if fastquery.IsFatal(err) {
			return nil, err
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
		return nil, firstErr
	}
	shards := make([]int, 0, len(failed))
	for s := range failed {
		shards = append(shards, s)
	}
	res.Fragments += len(tasks)
	res.addFailed(shards)
	res.BudgetExhausted = res.BudgetExhausted || exhausted
	return results, nil
}

// fragments makes q's fragments of op, one per row range.
func (q Query) fragments(op FragOp) func(RowRange) Fragment {
	return func(rr RowRange) Fragment {
		return Fragment{
			Op: op, Dataset: q.Dataset, Step: q.Step, Rows: rr,
			Query: q.Query, Backend: q.Backend, Spec1: q.Spec1, Spec2: q.Spec2,
		}
	}
}

func execCount(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	res := &Result{Mode: m.mode()}
	parts, err := scatter(ctx, m, rows, r, policy, res, q.fragments(FragCount))
	if err != nil {
		return nil, err
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
	res := &Result{Mode: m.mode()}
	parts, err := scatter(ctx, m, rows, r, policy, res, q.fragments(FragSelect))
	if err != nil {
		return nil, err
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

// execHist resolves a histogram's axes (resolve), then bins in one
// scatter and merges.
func execHist(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	res := &Result{Mode: m.mode()}
	s1, s2 := &q.Spec1, &q.Spec2
	op, binning, minDensity := FragHist1D, s1.Binning, s1.MinDensity
	axes := []axis{{s1.Var, s1.Bins, &s1.Lo, &s1.Hi, &s1.Cuts}}
	if q.Op == OpHist2D {
		op, binning, minDensity = FragHist2D, s2.Binning, s2.MinDensity
		axes = []axis{{s2.XVar, s2.XBins, &s2.XLo, &s2.XHi, &s2.XCuts}, {s2.YVar, s2.YBins, &s2.YLo, &s2.YHi, &s2.YCuts}}
	}
	if err := resolve(ctx, q, m, rows, r, policy, res, binning, minDensity, axes...); err != nil {
		return nil, err
	}
	parts, err := scatter(ctx, m, rows, r, policy, res, q.fragments(op))
	if err == nil && op == FragHist1D {
		res.Hist1, err = mergeHist1(q.Spec1, parts)
	} else if err == nil {
		res.Hist2, err = mergeHist2(q.Spec2, parts)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// axis is one axis of a histogram spec, as resolve fixes it.
type axis struct {
	v      string
	bins   int
	lo, hi *float64
	cuts   *[]int
}

func (a axis) ranged() bool { return !math.IsNaN(*a.lo) && !math.IsNaN(*a.hi) }

// resolve fixes a fleet histogram's axes to the edges one process derives
// from the rows it bins, so the final fragments' partials merge bin-wise:
// a FragMinMax phase for axes without a range, then for adaptive binning
// one FragHist1D per axis, AdaptiveRefine·bins uniform bins over the
// range, whose merge is cut as one process cuts its own (AdaptiveCuts). A
// shard lost in a phase (under ReturnPartial) marks the result Partial,
// and the phase resolves from the survivors. One process resolves nothing.
func resolve(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy, res *Result,
	b histogram.Binning, minDensity float64, axes ...axis) error {
	if m.Shards <= 1 {
		return nil
	}
	var vars []string
	for _, a := range axes {
		if !a.ranged() && !slices.Contains(vars, a.v) {
			vars = append(vars, a.v)
		}
	}
	if len(vars) > 0 {
		parts, err := scatter(ctx, m, rows, r, policy, res, func(rr RowRange) Fragment {
			f := q.fragments(FragMinMax)(rr)
			f.Vars = vars
			return f
		})
		if err != nil {
			return err
		}
		_, span := obs.StartSpan(ctx, "merge-range")
		merged := mergeRanges(vars, parts)
		span.End()
		for _, a := range axes {
			if !a.ranged() {
				*a.lo, *a.hi = merged[a.v].Lo, merged[a.v].Hi
			}
		}
	}
	if b != histogram.Adaptive {
		return nil
	}
	fine := make([]histogram.Spec1D, len(axes))
	mks := make([]func(RowRange) Fragment, len(axes))
	for j, a := range axes {
		fine[j] = histogram.Spec1D{Var: a.v, Bins: a.bins * histogram.AdaptiveRefine, Lo: *a.lo, Hi: *a.hi}
		mks[j] = Query{Dataset: q.Dataset, Step: q.Step, Query: q.Query, Backend: q.Backend, Spec1: fine[j]}.fragments(FragHist1D)
	}
	parts, err := scatter(ctx, m, rows, r, policy, res, mks...)
	if err != nil {
		return err
	}
	for j, a := range axes {
		var own []*FragmentResult
		for i := j; i < len(parts); i += len(axes) {
			own = append(own, parts[i])
		}
		h, err := mergeHist1(fine[j], own)
		if err == nil {
			*a.cuts, err = histogram.AdaptiveCuts(h, a.bins, minDensity)
		}
		if err != nil {
			return err
		}
	}
	return nil
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

// mergeHist1 sums 1D partials. Partials are read-only (a shard may have
// cached them): a lone partial is the answer as it is, and several become
// one that holds each partial's encodings, so building the answer costs
// O(partials) and no grid. When no partial answers (every shard failed,
// or a zero-row step planned no fragment) the answer is an empty
// histogram over the resolved spec's edges; an unset range falls back to
// [0, 0], as mergeRanges reports for an empty selection, so the edges
// stay finite and encodable.
func mergeHist1(spec histogram.Spec1D, parts []*FragmentResult) (*histogram.Cells1D, error) {
	var hs []*histogram.Cells1D
	for _, p := range parts {
		if p != nil && p.Hist1 != nil {
			hs = append(hs, p.Hist1)
		}
	}
	switch len(hs) {
	case 0:
		edges, err := emptyEdges(spec.Lo, spec.Hi, spec.Bins, spec.Cuts)
		return &histogram.Cells1D{Var: spec.Var, Edges: edges}, err
	case 1:
		return hs[0], nil
	}
	sum := &histogram.Cells1D{Var: hs[0].Var, Edges: hs[0].Edges}
	for _, h := range hs {
		if err := sum.Merge(h); err != nil {
			return nil, fmt.Errorf("plan: merge 1d partials: %w", err)
		}
	}
	return sum, nil
}

// mergeHist2 is mergeHist1 for 2D partials.
func mergeHist2(spec histogram.Spec2D, parts []*FragmentResult) (*histogram.Cells2D, error) {
	var hs []*histogram.Cells2D
	for _, p := range parts {
		if p != nil && p.Hist2 != nil {
			hs = append(hs, p.Hist2)
		}
	}
	switch len(hs) {
	case 0:
		xe, err := emptyEdges(spec.XLo, spec.XHi, spec.XBins, spec.XCuts)
		if err != nil {
			return nil, err
		}
		ye, err := emptyEdges(spec.YLo, spec.YHi, spec.YBins, spec.YCuts)
		return &histogram.Cells2D{XVar: spec.XVar, YVar: spec.YVar, XEdges: xe, YEdges: ye}, err
	case 1:
		return hs[0], nil
	}
	sum := &histogram.Cells2D{XVar: hs[0].XVar, YVar: hs[0].YVar, XEdges: hs[0].XEdges, YEdges: hs[0].YEdges}
	for _, h := range hs {
		if err := sum.Merge(h); err != nil {
			return nil, fmt.Errorf("plan: merge 2d partials: %w", err)
		}
	}
	return sum, nil
}

// emptyEdges is an axis's edges when no partial answers.
func emptyEdges(lo, hi float64, bins int, cuts []int) ([]float64, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		lo, hi = 0, 0
	}
	return histogram.ResolvedEdges(lo, hi, bins, cuts)
}
