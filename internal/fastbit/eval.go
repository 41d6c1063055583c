package fastbit

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// RawReader provides access to the base data for candidate checks.
type RawReader interface {
	// ValuesAt returns the values of a column at sorted record positions.
	ValuesAt(name string, positions []uint64) ([]float64, error)
}

// BatchReader is a RawReader that can also read a column at sorted
// positions without returning the values: VisitAt hands fn them a batch
// at a time, as a RawValues does, so a candidate check allocates nothing
// per candidate. The evaluator reads through VisitAt when its reader has
// it, and through ValuesAt otherwise.
type BatchReader interface {
	RawReader
	VisitAt(name string, positions []uint64, fn func(positions []uint64, values []float64) error) error
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
	// LookupIndex, when set, resolves indexes not found in Indexes: one
	// whose bitmaps hold at least rows [lo, hi), the rows the evaluation
	// reads.
	LookupIndex func(name string, lo, hi uint64) (*Index, error)
	// IDVar names the identifier column served by the ID index.
	IDVar string
	IDIdx *IDIndex
	// LookupID, when set, resolves the ID index on first use.
	LookupID func() (*IDIndex, error)
	Raw      RawReader

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

// index resolves the range index for a variable, for reading rows
// [lo, hi).
func (ev *Evaluator) index(name string, lo, hi uint64) (*Index, error) {
	if ix, ok := ev.Indexes[name]; ok {
		return ix, nil
	}
	if ev.LookupIndex != nil {
		return ev.LookupIndex(name, lo, hi)
	}
	return nil, fmt.Errorf("fastbit: no index for variable %q", name)
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

// EvalCtx computes the bitmap of records matching e, with cooperative
// cancellation: the whole step's set of matches, encoded once as a WAH
// vector. No serving path calls it; the bitmap-space histograms count
// against evalWindow's set directly.
func (ev *Evaluator) EvalCtx(ctx context.Context, e query.Expr) (*bitmap.Vector, error) {
	s, err := ev.evalWindow(ctx, e, 0, ev.N)
	if err != nil {
		return nil, err
	}
	return s.ToVector(), nil
}

// evalWindow is every evaluation: the set of rows in [lo, hi) matching e,
// bit i standing for row lo+i. ctx is observed between boolean terms and
// once per batch of a candidate check, so a canceled query stops within
// one chunk read. Each evaluation records one "bitmap-eval" span and
// feeds the fastbit_* instruments.
func (ev *Evaluator) evalWindow(ctx context.Context, e query.Expr, lo, hi uint64) (*bitmap.BitSet, error) {
	ctx, sp := obs.StartSpan(ctx, "bitmap-eval")
	start := time.Now()
	statsBefore := ev.Stats
	s, err := ev.evalSet(ctx, e, lo, hi)
	metricEvalSeconds.ObserveSince(start)
	metricEvals.Inc()
	metricEvalRows.Add(hi - lo)
	checks := ev.Stats.CandidateChecks - statsBefore.CandidateChecks
	metricCandidateChecks.Add(checks)
	ev.Cost.AddCandidateChecks(checks)
	ev.Cost.AddBitmapOps(uint64((ev.Stats.FullBins - statsBefore.FullBins) +
		(ev.Stats.BoundaryBins - statsBefore.BoundaryBins)))
	ev.Cost.AddApproxRows(ev.Stats.ApproxRows - statsBefore.ApproxRows)
	if sp != nil {
		sp.SetAttr("rows", strconv.FormatUint(hi-lo, 10))
		sp.SetAttr("candidate_checks", strconv.FormatUint(checks, 10))
		if s != nil {
			sp.SetAttr("hits", strconv.FormatUint(s.Count(), 10))
		}
		sp.End()
	}
	return s, err
}

// evalSet is the recursive evaluation body behind evalWindow.
func (ev *Evaluator) evalSet(ctx context.Context, e query.Expr, lo, hi uint64) (*bitmap.BitSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch t := e.(type) {
	case *query.Compare:
		return ev.evalCompare(ctx, t, lo, hi)
	case *query.In:
		return ev.evalIn(ctx, t, lo, hi)
	case *query.And:
		return ev.evalAnd(ctx, t.Terms, lo, hi)
	case *query.Or:
		return ev.evalOr(ctx, t.Terms, lo, hi)
	case *query.Not:
		s, err := ev.evalSet(ctx, t.Term, lo, hi)
		if err != nil {
			return nil, err
		}
		s.Invert()
		return s, nil
	default:
		return nil, fmt.Errorf("fastbit: unsupported expression %T", e)
	}
}

// evalOr combines the terms' sets in place, a disjunction.
func (ev *Evaluator) evalOr(ctx context.Context, terms []query.Expr, lo, hi uint64) (*bitmap.BitSet, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("fastbit: empty boolean term list")
	}
	var acc *bitmap.BitSet
	for _, t := range terms {
		s, err := ev.evalSet(ctx, t, lo, hi)
		switch {
		case err != nil:
			return nil, err
		case acc == nil:
			acc = s
		default:
			acc.OrWith(s)
		}
	}
	return acc, nil
}

// boundTerm is a range term of a conjunction after pass 1: the rows its
// full bins hold (sure) and its boundary bins' rows (cand).
type boundTerm struct {
	name       string
	ix         *Index
	iv         query.Interval
	sure, cand *bitmap.BitSet
}

// evalAnd evaluates a conjunction in two passes, so that a range term
// candidate-checks only the rows every other term still admits.
//
// Pass 1 reads the index only: each range term (a Compare other than !=)
// resolves to its sure and candidate rows (Index.bounds); every other
// term — in, !=, or, not, a nested and — is evaluated exactly. The upper
// bound u is the AND of the exact sets and of each range term's sure ∪
// candidates. With Approx, u is the answer.
//
// Pass 2 takes the range terms in the order the conjunction lists them
// and checks each one's candidates in u; its hits join its sure rows, and
// u shrinks to them. A row is in the result iff it is in pass 1's u and,
// for every range term, sure or a candidate that passed. The order does
// not depend on the row window, and whether a row is checked depends only
// on that row, so the checks over any split of the rows sum to the whole
// step's — except where u empties: both passes stop there, skipping the
// remaining terms.
func (ev *Evaluator) evalAnd(ctx context.Context, terms []query.Expr, lo, hi uint64) (*bitmap.BitSet, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("fastbit: empty boolean term list")
	}
	u := bitmap.NewBitSet(hi - lo)
	u.Invert() // every row, until a term leaves it out
	var bound []boundTerm
	for _, t := range terms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c, ok := t.(*query.Compare); ok && c.Op != query.NE {
			ix, iv, err := ev.rangeIndex(ctx, c, lo, hi)
			if err != nil {
				return nil, err
			}
			b := boundTerm{name: c.Var, ix: ix, iv: iv}
			var st EvalStats
			b.sure, b.cand, st, err = ix.bounds(iv, lo, hi)
			ev.accumulate(st)
			switch {
			case err != nil:
				return nil, err
			case b.cand == nil:
				u.AndWith(b.sure)
			default:
				u.AndWithUnion(b.sure, b.cand)
				if ev.Approx {
					ev.Stats.ApproxRows += b.cand.Count()
				}
				bound = append(bound, b)
			}
		} else {
			s, err := ev.evalSet(ctx, t, lo, hi)
			if err != nil {
				return nil, err
			}
			u.AndWith(s)
		}
		if !u.Any() {
			return u, nil
		}
	}
	if ev.Approx {
		return u, nil
	}
	for _, b := range bound {
		b.cand.AndWith(u)
		cctx, csp := obs.StartSpan(ctx, "candidate-check")
		csp.SetAttr("var", b.name)
		checks, err := b.ix.check(cctx, b.iv, ev.rawFor(b.name), b.cand, b.sure, lo)
		if csp != nil {
			csp.SetAttr("checks", strconv.FormatUint(checks, 10))
			csp.End()
		}
		ev.Stats.CandidateChecks += checks
		if err != nil {
			return nil, err
		}
		if u.AndWith(b.sure); !u.Any() {
			break
		}
	}
	return u, nil
}

func (ev *Evaluator) evalCompare(ctx context.Context, c *query.Compare, lo, hi uint64) (*bitmap.BitSet, error) {
	if c.Op == query.NE {
		s, err := ev.evalCompare(ctx, &query.Compare{Var: c.Var, Op: query.EQ, Value: c.Value}, lo, hi)
		if err != nil {
			return nil, err
		}
		s.Invert()
		return s, nil
	}
	ix, iv, err := ev.rangeIndex(ctx, c, lo, hi)
	if err != nil {
		return nil, err
	}
	cctx, csp := obs.StartSpan(ctx, "candidate-check")
	csp.SetAttr("var", c.Var)
	s, st, err := ix.evaluate(cctx, iv, ev.rawFor(c.Var), ev.Approx, lo, hi)
	if csp != nil {
		csp.SetAttr("checks", strconv.FormatUint(st.CandidateChecks, 10))
		csp.End()
	}
	ev.accumulate(st)
	return s, err
}

// rangeIndex resolves a range term's index, for reading rows [lo, hi),
// and its interval.
func (ev *Evaluator) rangeIndex(ctx context.Context, c *query.Compare, lo, hi uint64) (*Index, query.Interval, error) {
	_, lsp := obs.StartSpan(ctx, "index-load")
	lsp.SetAttr("var", c.Var)
	ix, err := ev.index(c.Var, lo, hi)
	lsp.End()
	if err != nil {
		return nil, query.Interval{}, err
	}
	iv, ok := query.CompareInterval(c)
	if !ok {
		return nil, query.Interval{}, fmt.Errorf("fastbit: cannot evaluate operator %v", c.Op)
	}
	return ix, iv, nil
}

// evalIn resolves a membership condition. The identifier column uses the
// dedicated ID index; any other variable is resolved through its range
// index with a single grouped candidate check.
func (ev *Evaluator) evalIn(ctx context.Context, in *query.In, lo, hi uint64) (*bitmap.BitSet, error) {
	s := bitmap.NewBitSet(hi - lo)
	if in.Var == ev.IDVar {
		if idIdx := ev.idIndex(); idIdx != nil {
			// A value no identifier equals (colstore.ExactInt) matches
			// nothing, as it does in a scan; truncated, it would match
			// another particle.
			ids := make([]int64, 0, len(in.Values))
			for _, v := range in.Values {
				if id, err := colstore.ExactInt(v); err == nil {
					ids = append(ids, id)
				}
			}
			for _, p := range idIdx.Lookup(ids) {
				if p >= ev.N {
					return nil, fmt.Errorf("fastbit: id index row %d out of range %d", p, ev.N)
				}
				if p >= lo && p < hi {
					s.Set(p - lo)
				}
			}
			return s, nil
		}
	}
	ix, err := ev.index(in.Var, lo, hi)
	if err != nil {
		return nil, err
	}
	// Gather the candidate bins holding any of the wanted values, check
	// raw values once.
	binsWanted := make([]binClass, ix.Bins())
	wanted := false
	for _, v := range in.Values {
		if v < ix.Min() || v > ix.Max() {
			continue
		}
		b := sort.SearchFloat64s(ix.Bounds, v)
		if b < len(ix.Bounds) && ix.Bounds[b] == v {
			// Value on a boundary can fall in the bin above it, or is the
			// top of the last bin.
			if b < ix.Bins() {
				binsWanted[b], wanted = binBoundary, true
			}
			if b == len(ix.Bounds)-1 {
				binsWanted[ix.Bins()-1], wanted = binBoundary, true
			}
		} else if b > 0 {
			binsWanted[b-1], wanted = binBoundary, true
		}
	}
	if !wanted {
		return s, nil
	}
	cand, err := ix.rowsIn(binsWanted, binBoundary, lo, hi)
	if err != nil {
		return nil, err
	}
	if ev.Approx {
		// Index-only: every record in a candidate bin is admitted wholesale.
		ev.Stats.ApproxRows += cand.Count()
		return cand, nil
	}
	positions := cand.Positions(lo)
	ev.Stats.CandidateChecks += uint64(len(positions))
	err = ev.rawFor(in.Var)(positions, func(pos []uint64, values []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, v := range values {
			if in.Contains(v) {
				s.Set(pos[i] - lo)
			}
		}
		return nil
	})
	if err != nil {
		return nil, checkErr(ctx, err)
	}
	return s, nil
}

// rawFor is the reader's column name as a RawValues: its VisitAt when it
// is a BatchReader, else its ValuesAt, Gathered.
func (ev *Evaluator) rawFor(name string) RawValues {
	switch r := ev.Raw.(type) {
	case nil:
		return nil
	case BatchReader:
		return func(positions []uint64, check func([]uint64, []float64) error) error {
			return r.VisitAt(name, positions, check)
		}
	default:
		return Gathered(func(positions []uint64) ([]float64, error) {
			return r.ValuesAt(name, positions)
		})
	}
}

// Gathered is the RawValues of a read that returns every value at once:
// it hands check the lot as one batch.
func Gathered(read func(positions []uint64) ([]float64, error)) RawValues {
	return func(positions []uint64, check func([]uint64, []float64) error) error {
		values, err := read(positions)
		if err != nil {
			return err
		}
		if len(values) != len(positions) {
			return fmt.Errorf("fastbit: read %d values for %d positions", len(values), len(positions))
		}
		return check(positions, values)
	}
}

// checkErr is what a candidate check that failed with err returns: the
// context's error when the check stopped for it, else err.
func checkErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

func (ev *Evaluator) accumulate(st EvalStats) {
	ev.Stats.FullBins += st.FullBins
	ev.Stats.BoundaryBins += st.BoundaryBins
	ev.Stats.CandidateChecks += st.CandidateChecks
	ev.Stats.ApproxRows += st.ApproxRows
}

// CountIn returns the number of rows in [lo, hi) matching e: SelectCtx's
// evaluation, counted in the set without listing its positions.
func (ev *Evaluator) CountIn(ctx context.Context, e query.Expr, lo, hi uint64) (uint64, error) {
	if lo > hi || hi > ev.N {
		return 0, fmt.Errorf("fastbit: row range [%d, %d) outside [0, %d)", lo, hi, ev.N)
	}
	s, err := ev.evalWindow(ctx, e, lo, hi)
	if err != nil {
		return 0, err
	}
	return s.Count(), nil
}

// SelectCtx returns the sorted positions in rows [lo, hi) matching e,
// with cooperative cancellation; the whole step is [0, N). The
// evaluation decodes only the bin words of rows inside [lo, hi) and
// candidate-checks only the boundary records there.
func (ev *Evaluator) SelectCtx(ctx context.Context, e query.Expr, lo, hi uint64) ([]uint64, error) {
	if lo > hi || hi > ev.N {
		return nil, fmt.Errorf("fastbit: row range [%d, %d) outside [0, %d)", lo, hi, ev.N)
	}
	s, err := ev.evalWindow(ctx, e, lo, hi)
	if err != nil {
		return nil, err
	}
	return s.Positions(lo), nil
}
