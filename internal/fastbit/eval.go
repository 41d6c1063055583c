package fastbit

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/bitmap"
	"repro/internal/obs"
	"repro/internal/query"
)

// checkpointRows is the cancellation checkpoint interval of the candidate
// check loops: ctx is tested once every checkpointRows records.
const checkpointRows = 64 * 1024

// RawReader provides access to the base data for candidate checks.
type RawReader interface {
	// ValuesAt returns the values of a column at sorted record positions.
	ValuesAt(name string, positions []uint64) ([]float64, error)
}

// MemReader is a RawReader over in-memory columns, used by tests and by
// code paths that already hold the data.
type MemReader map[string][]float64

// ValuesAt implements RawReader.
func (m MemReader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	col, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("fastbit: no column %q", name)
	}
	out := make([]float64, len(positions))
	for i, p := range positions {
		if p >= uint64(len(col)) {
			return nil, fmt.Errorf("fastbit: position %d out of range %d", p, len(col))
		}
		out[i] = col[p]
	}
	return out, nil
}

// Evaluator resolves query expressions to record bitmaps using the
// per-column indexes, consulting the raw reader only for boundary bins.
// Indexes may be provided statically (Indexes, IDIdx) or on demand
// (LookupIndex, LookupID — used with lazily loaded index files).
type Evaluator struct {
	N       uint64
	Indexes map[string]*Index
	// LookupIndex, when set, resolves indexes not found in Indexes.
	LookupIndex func(name string) (*Index, error)
	// IDVar names the identifier column served by the ID index.
	IDVar string
	IDIdx *IDIndex
	// LookupID, when set, resolves the ID index on first use.
	LookupID func() (*IDIndex, error)
	Raw      RawReader

	// win, set only for the duration of a SelectCtx call, windows the
	// evaluation to rows [win[0], win[1]); nil means the whole step.
	// Candidate checks read only boundary records inside the window, so
	// the bitmap is exact there and unspecified outside it: every bitmap
	// operation is per-row, so the rows inside stay exact through any
	// And, Or and Not. SelectCtx clips its positions to the window.
	win *[2]uint64

	// Approx switches evaluation to the index-only approximate path:
	// boundary bins are admitted wholesale instead of candidate-checked,
	// yielding a superset bitmap without touching raw data. Set before the
	// first Eval call; Stats.ApproxRows reports the unchecked admissions.
	Approx bool

	// Stats accumulates candidate-check work across Eval calls.
	Stats EvalStats

	// Cost, when set, receives per-query charges (bitmap ORs, candidate
	// checks, approx admissions) for the explain surface. Nil-safe.
	Cost *obs.Cost
}

// index resolves the range index for a variable.
func (ev *Evaluator) index(name string) (*Index, error) {
	if ix, ok := ev.Indexes[name]; ok {
		return ix, nil
	}
	if ev.LookupIndex != nil {
		return ev.LookupIndex(name)
	}
	return nil, fmt.Errorf("fastbit: no index for variable %q", name)
}

// window returns the evaluation's row window [lo, hi).
func (ev *Evaluator) window() (lo, hi uint64) {
	if ev.win == nil {
		return 0, ev.N
	}
	return ev.win[0], ev.win[1]
}

// noneInWindow reports whether v has no set bit inside the window.
func (ev *Evaluator) noneInWindow(v *bitmap.Vector) bool {
	return !v.AnyIn(ev.window())
}

// idIndex resolves the identifier index, or nil when unavailable.
func (ev *Evaluator) idIndex() *IDIndex {
	if ev.IDIdx != nil {
		return ev.IDIdx
	}
	if ev.LookupID != nil {
		if id, err := ev.LookupID(); err == nil {
			ev.IDIdx = id
			return id
		}
	}
	return nil
}

// Eval computes the bitmap of records matching e.
func (ev *Evaluator) Eval(e query.Expr) (*bitmap.Vector, error) {
	return ev.EvalCtx(context.Background(), e)
}

// EvalCtx is Eval with cooperative cancellation: ctx is observed between
// boolean terms and inside candidate-check loops, so a canceled query
// stops within one checkpoint interval. Each top-level evaluation records
// one "bitmap-eval" span and feeds the fastbit_* instruments.
func (ev *Evaluator) EvalCtx(ctx context.Context, e query.Expr) (*bitmap.Vector, error) {
	ctx, sp := obs.StartSpan(ctx, "bitmap-eval")
	start := time.Now()
	statsBefore := ev.Stats
	v, err := ev.evalCtx(ctx, e)
	metricEvalSeconds.ObserveSince(start)
	metricEvals.Inc()
	metricEvalRows.Add(ev.N)
	checks := ev.Stats.CandidateChecks - statsBefore.CandidateChecks
	metricCandidateChecks.Add(checks)
	ev.Cost.AddCandidateChecks(checks)
	ev.Cost.AddBitmapOps(uint64((ev.Stats.FullBins - statsBefore.FullBins) +
		(ev.Stats.BoundaryBins - statsBefore.BoundaryBins)))
	ev.Cost.AddApproxRows(ev.Stats.ApproxRows - statsBefore.ApproxRows)
	if sp != nil {
		sp.SetAttr("rows", strconv.FormatUint(ev.N, 10))
		sp.SetAttr("candidate_checks", strconv.FormatUint(checks, 10))
		if v != nil {
			sp.SetAttr("hits", strconv.FormatUint(v.Count(), 10))
		}
		sp.End()
	}
	return v, err
}

// evalCtx is the recursive evaluation body behind EvalCtx.
func (ev *Evaluator) evalCtx(ctx context.Context, e query.Expr) (*bitmap.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch t := e.(type) {
	case *query.Compare:
		return ev.evalCompare(ctx, t)
	case *query.In:
		return ev.evalIn(ctx, t)
	case *query.And:
		return ev.evalAnd(ctx, t.Terms)
	case *query.Or:
		return ev.evalNary(ctx, t.Terms, func(a, b *bitmap.Vector) *bitmap.Vector { return a.Or(b) })
	case *query.Not:
		inner, err := ev.evalCtx(ctx, t.Term)
		if err != nil {
			return nil, err
		}
		return inner.Not(), nil
	default:
		return nil, fmt.Errorf("fastbit: unsupported expression %T", e)
	}
}

// evalAnd evaluates a conjunction with an empty-result short circuit:
// once the running intersection has no bits set, the remaining terms'
// bitmaps (and especially their candidate checks) are never computed.
func (ev *Evaluator) evalAnd(ctx context.Context, terms []query.Expr) (*bitmap.Vector, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("fastbit: empty boolean term list")
	}
	var acc *bitmap.Vector
	for _, t := range terms {
		v, err := ev.evalCtx(ctx, t)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = v
		} else {
			acc = acc.And(v)
		}
		if ev.noneInWindow(acc) {
			// Preserve the full record length for downstream ops.
			empty := bitmap.New(ev.N)
			empty.AppendRun(false, ev.N)
			return empty, nil
		}
	}
	return acc, nil
}

func (ev *Evaluator) evalNary(ctx context.Context, terms []query.Expr, combine func(a, b *bitmap.Vector) *bitmap.Vector) (*bitmap.Vector, error) {
	var acc *bitmap.Vector
	for _, t := range terms {
		v, err := ev.evalCtx(ctx, t)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = v
		} else {
			acc = combine(acc, v)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("fastbit: empty boolean term list")
	}
	return acc, nil
}

func (ev *Evaluator) evalCompare(ctx context.Context, c *query.Compare) (*bitmap.Vector, error) {
	_, lsp := obs.StartSpan(ctx, "index-load")
	lsp.SetAttr("var", c.Var)
	ix, err := ev.index(c.Var)
	lsp.End()
	if err != nil {
		return nil, err
	}
	if c.Op == query.NE {
		eqv, err := ev.evalCompare(ctx, &query.Compare{Var: c.Var, Op: query.EQ, Value: c.Value})
		if err != nil {
			return nil, err
		}
		return eqv.Not(), nil
	}
	iv, ok := query.CompareInterval(c)
	if !ok {
		return nil, fmt.Errorf("fastbit: cannot evaluate operator %v", c.Op)
	}
	cctx, csp := obs.StartSpan(ctx, "candidate-check")
	csp.SetAttr("var", c.Var)
	var (
		v  *bitmap.Vector
		st EvalStats
	)
	if ev.Approx {
		v, st, err = ix.EvaluateApproxCtx(cctx, iv)
	} else {
		lo, hi := ev.window()
		v, st, err = ix.EvaluateCtx(cctx, iv, ev.rawFor(c.Var), lo, hi)
	}
	if csp != nil {
		csp.SetAttr("checks", strconv.FormatUint(st.CandidateChecks, 10))
		csp.End()
	}
	ev.accumulate(st)
	return v, err
}

// evalIn resolves a membership condition. The identifier column uses the
// dedicated ID index; any other variable is resolved through its range
// index with a single grouped candidate check.
func (ev *Evaluator) evalIn(ctx context.Context, in *query.In) (*bitmap.Vector, error) {
	if in.Var == ev.IDVar {
		if idIdx := ev.idIndex(); idIdx != nil {
			ids := make([]int64, len(in.Values))
			for i, v := range in.Values {
				ids[i] = int64(v)
			}
			pos := idIdx.Lookup(ids)
			return bitmap.FromPositions(ev.N, pos)
		}
	}
	ix, err := ev.index(in.Var)
	if err != nil {
		return nil, err
	}
	// Gather the candidate bins holding any of the wanted values, check
	// raw values once.
	binsWanted := map[int]bool{}
	for _, v := range in.Values {
		if v < ix.Min() || v > ix.Max() {
			continue
		}
		b := sort.SearchFloat64s(ix.Bounds, v)
		if b < len(ix.Bounds) && ix.Bounds[b] == v {
			// Value on a boundary can fall in the bin above it, or is the
			// top of the last bin.
			if b < ix.Bins() {
				binsWanted[b] = true
			}
			if b == len(ix.Bounds)-1 {
				binsWanted[ix.Bins()-1] = true
			}
		} else if b > 0 {
			binsWanted[b-1] = true
		}
	}
	if len(binsWanted) == 0 {
		v := bitmap.New(ev.N)
		v.AppendRun(false, ev.N)
		return v, nil
	}
	cand := make([]*bitmap.Vector, 0, len(binsWanted))
	for b := range binsWanted {
		cand = append(cand, ix.Bitmaps[b])
	}
	if ev.Approx {
		// Index-only: every record in a candidate bin is admitted wholesale.
		v := bitmap.OrAll(cand)
		if v.Len() == 0 {
			v = bitmap.New(ev.N)
			v.AppendRun(false, ev.N)
		}
		ev.Stats.ApproxRows += v.Count()
		return v, nil
	}
	lo, hi := ev.window()
	positions := bitmap.OrAll(cand).PositionsIn(lo, hi)
	ev.Stats.CandidateChecks += uint64(len(positions))
	values, err := ev.rawFor(in.Var)(positions)
	if err != nil {
		return nil, err
	}
	hits := positions[:0]
	for i, p := range positions {
		if i&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if in.Contains(values[i]) {
			hits = append(hits, p)
		}
	}
	return bitmap.FromPositions(ev.N, hits)
}

func (ev *Evaluator) rawFor(name string) RawValues {
	if ev.Raw == nil {
		return nil
	}
	return func(positions []uint64) ([]float64, error) {
		return ev.Raw.ValuesAt(name, positions)
	}
}

func (ev *Evaluator) accumulate(st EvalStats) {
	ev.Stats.FullBins += st.FullBins
	ev.Stats.BoundaryBins += st.BoundaryBins
	ev.Stats.CandidateChecks += st.CandidateChecks
	ev.Stats.ApproxRows += st.ApproxRows
}

// Count returns the number of records matching e.
func (ev *Evaluator) Count(e query.Expr) (uint64, error) {
	return ev.CountCtx(context.Background(), e)
}

// CountCtx is Count with cooperative cancellation.
func (ev *Evaluator) CountCtx(ctx context.Context, e query.Expr) (uint64, error) {
	v, err := ev.EvalCtx(ctx, e)
	if err != nil {
		return 0, err
	}
	return v.Count(), nil
}

// Select returns the sorted record positions matching e.
func (ev *Evaluator) Select(e query.Expr) ([]uint64, error) {
	return ev.SelectCtx(context.Background(), e, 0, ev.N)
}

// SelectCtx returns the sorted positions in rows [lo, hi) matching e,
// with cooperative cancellation; the whole step is [0, N). Candidate
// checks read only the boundary records inside [lo, hi).
func (ev *Evaluator) SelectCtx(ctx context.Context, e query.Expr, lo, hi uint64) ([]uint64, error) {
	if lo > hi || hi > ev.N {
		return nil, fmt.Errorf("fastbit: row range [%d, %d) outside [0, %d)", lo, hi, ev.N)
	}
	ev.win = &[2]uint64{lo, hi}
	defer func() { ev.win = nil }()
	v, err := ev.EvalCtx(ctx, e)
	if err != nil {
		return nil, err
	}
	return v.PositionsIn(lo, hi), nil
}

// SelectIDs returns the identifiers of records matching e, read from the
// identifier column at the matching positions.
func (ev *Evaluator) SelectIDs(e query.Expr) ([]int64, error) {
	return ev.SelectIDsCtx(context.Background(), e)
}

// SelectIDsCtx is SelectIDs with cooperative cancellation.
func (ev *Evaluator) SelectIDsCtx(ctx context.Context, e query.Expr) ([]int64, error) {
	pos, err := ev.SelectCtx(ctx, e, 0, ev.N)
	if err != nil {
		return nil, err
	}
	if ev.Raw == nil {
		return nil, fmt.Errorf("fastbit: SelectIDs requires a raw reader")
	}
	vals, err := ev.Raw.ValuesAt(ev.IDVar, pos)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		if v != math.Trunc(v) {
			return nil, fmt.Errorf("fastbit: non-integer identifier %g", v)
		}
		out[i] = int64(v)
	}
	return out, nil
}
