package fastquery

import (
	"context"
	"math"
	"slices"
	"strconv"

	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/scan"
)

// Rows is the row set a histogram bins: the sorted positions a selection
// returned, or, when All is set, every row of [Lo, Hi).
type Rows struct {
	Pos    []uint64
	All    bool
	Lo, Hi uint64

	// Gathered, when set, keeps the columns read at the rows, so that
	// every pass over one row set reads each column once.
	Gathered Gathered
}

// Gathered holds columns read at one row set. The values it hands out
// are shared: readers must not modify them.
type Gathered interface {
	// Column returns the named column's values at the rows, if kept.
	Column(name string) ([]float64, bool)
	// Keep offers a column just read at the rows.
	Keep(name string, vals []float64)
}

// Values reads a column at the set's rows, touching only the chunks that
// hold them and charging the read to ctx's cost accumulator. A column
// the rows' Gathered keeps is not read again, and costs nothing.
func (st *Step) Values(ctx context.Context, rows Rows, name string) (vs []float64, err error) {
	g := rows.Gathered
	if g != nil {
		if vs, ok := g.Column(name); ok {
			return vs, nil
		}
	}
	if rows.All {
		vs, err = st.file.ReadAsFloat64RangeCost(name, rows.Lo, rows.Hi, obs.CostFromContext(ctx))
	} else {
		vs, err = st.ValuesAtCtx(ctx, name, rows.Pos)
	}
	if err == nil && g != nil {
		g.Keep(name, vs)
	}
	return vs, err
}

// Histogram2DOver is the histogram kernel, the second step of the paper's
// conditional histogram (Section V-A2): gather the x and y values at rows
// and bin them against spec, with edges resolved from those values. Every
// FastBit histogram and every shard fragment's histogram is a selection
// followed by this call, so a data-derived range is the same whichever
// backend, shard split or fragment computed it. The result is a partial
// in the cells form (histogram.Partial2DCtx).
func (st *Step) Histogram2DOver(ctx context.Context, rows Rows, spec histogram.Spec2D) (*histogram.Cells2D, error) {
	return histogram2D(ctx, st, rows, spec, histogram.Partial2DCtx)
}

// histogram2D is Histogram2DOver with the binning left to bin: the cells
// form for a partial, or dense counts (histogram.Compute2DCtx) for a
// reader.
func histogram2D[H any](ctx context.Context, st *Step, rows Rows, spec histogram.Spec2D,
	bin func(ctx context.Context, xvar, yvar string, xs, ys, xedges, yedges []float64) (H, error)) (H, error) {
	var none H
	_, gsp := obs.StartSpan(ctx, "gather-values")
	xs, err := st.Values(ctx, rows, spec.XVar)
	var ys []float64
	if err == nil {
		ys, err = st.Values(ctx, rows, spec.YVar)
	}
	gsp.SetAttr("hits", strconv.Itoa(len(xs)))
	gsp.End()
	if err != nil {
		return none, err
	}
	bctx, bsp := obs.StartSpan(ctx, "histogram-binning")
	defer bsp.End()
	xe, ye, err := edges2D(xs, ys, spec)
	if err != nil {
		return none, err
	}
	return bin(bctx, spec.XVar, spec.YVar, xs, ys, xe, ye)
}

// Histogram1DOver is Histogram2DOver for one variable. An unconditional
// FastBit histogram over the whole step whose edges are exactly the
// index's bounds is the index's bin counts, read with no data access: the
// "efficient method for computing a histogram" of Section II-B. Both bin
// densely, and the partial is their counts encoded.
func (st *Step) Histogram1DOver(ctx context.Context, rows Rows, spec histogram.Spec1D, b Backend) (*histogram.Cells1D, error) {
	h, err := st.histogram1D(ctx, rows, spec, b)
	if err != nil {
		return nil, err
	}
	return h.Cells(), nil
}

// histogram1D is Histogram1DOver's dense counts.
func (st *Step) histogram1D(ctx context.Context, rows Rows, spec histogram.Spec1D, b Backend) (*histogram.Hist1D, error) {
	if ev := st.binAligned(ctx, rows, spec, b); ev != nil {
		return ev.Histogram1DFromBitmapsCtx(ctx, nil, spec.Var)
	}
	_, gsp := obs.StartSpan(ctx, "gather-values")
	vs, err := st.Values(ctx, rows, spec.Var)
	gsp.SetAttr("hits", strconv.Itoa(len(vs)))
	gsp.End()
	if err != nil {
		return nil, err
	}
	bctx, bsp := obs.StartSpan(ctx, "histogram-binning")
	defer bsp.End()
	edges, err := edges1D(vs, spec)
	if err != nil {
		return nil, err
	}
	return histogram.Compute1DCtx(bctx, spec.Var, vs, edges)
}

// binAligned returns an evaluator when the index answers the histogram
// from its bin counts: FastBit, every row of the step, no explicit range,
// and uniform edges over the column's min/max (the first bin's smallest
// value and the last bin's largest) that equal the index's bounds, so the
// counts are the ones the general path would bin.
func (st *Step) binAligned(ctx context.Context, rows Rows, spec histogram.Spec1D, b Backend) *fastbit.Evaluator {
	if b != FastBit || !rows.All || rows.Lo != 0 || rows.Hi != st.Rows() || rows.Hi == 0 ||
		spec.HasRange() || spec.Binning != histogram.Uniform ||
		st.index == nil || !st.index.HasColumn(spec.Var) {
		return nil
	}
	// Only the bounds and granules decide; the bin counts, if they
	// answer, are read over the whole step by the evaluator.
	ix, err := st.index.ColumnRows(spec.Var, 0, 0, obs.CostFromContext(ctx))
	if err != nil || ix.Bins() != spec.Bins {
		return nil
	}
	// Bit for bit: bounds that start at -0 where the data's first
	// smallest value is 0 compare equal, yet answer different edges.
	want, err := edges(nil, ix.BinMin[0], ix.BinMax[ix.Bins()-1], true, spec.Bins, histogram.Uniform, 0, nil)
	if err != nil || !slices.EqualFunc(want, ix.Bounds, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return nil
	}
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil
	}
	return ev
}

// edges resolves one axis of a histogram spec against the values being
// binned: the explicit range [lo, hi] when has is set, else the values'
// scan.MinMax, cut into uniform or equal-weight (adaptive) bins. An
// adaptive axis a fleet resolved carries its cuts of the fine grid over
// the range, and every shard expands them to the same edges. It is the
// only place a histogram's edges are derived.
func edges(vs []float64, lo, hi float64, has bool, bins int, b histogram.Binning, minDensity float64, cuts []int) ([]float64, error) {
	if !has {
		lo, hi = scan.MinMax(vs)
	}
	if b == histogram.Adaptive && len(cuts) == 0 {
		return histogram.AdaptiveEdges(vs, lo, hi, bins, minDensity)
	}
	return histogram.ResolvedEdges(lo, hi, bins, cuts)
}

func edges1D(vs []float64, s histogram.Spec1D) ([]float64, error) {
	return edges(vs, s.Lo, s.Hi, s.HasRange(), s.Bins, s.Binning, s.MinDensity, s.Cuts)
}

func edges2D(xs, ys []float64, s histogram.Spec2D) (xe, ye []float64, err error) {
	if xe, err = edges(xs, s.XLo, s.XHi, s.HasXRange(), s.XBins, s.Binning, s.MinDensity, s.XCuts); err != nil {
		return nil, nil, err
	}
	ye, err = edges(ys, s.YLo, s.YHi, s.HasYRange(), s.YBins, s.Binning, s.MinDensity, s.YCuts)
	return xe, ye, err
}
