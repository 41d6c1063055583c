package fastquery

import (
	"context"
	"math"
	"slices"
	"strconv"

	"repro/internal/colstore"
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

	// Gathered, when set, keeps the columns gathered at the positions, so
	// that every pass over one selection gathers each column once. Every
	// row of a range is read straight out of the chunks, run by run, and
	// kept nowhere.
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

// values gathers a column at the set's positions, touching only the
// chunks that hold them and charging the read to ctx's cost accumulator.
// A column the rows' Gathered keeps is not read again, and costs nothing.
func (st *Step) values(ctx context.Context, rows Rows, name string) ([]float64, error) {
	g := rows.Gathered
	if g != nil {
		if vs, ok := g.Column(name); ok {
			return vs, nil
		}
	}
	vs, err := st.ValuesAtCtx(ctx, name, rows.Pos)
	if err == nil && g != nil {
		g.Keep(name, vs)
	}
	return vs, err
}

// columns is what the histogram and min/max kernels read a row set's
// values through: every row of a range of file, visited run by run out of
// its verified chunk buffers (colstore.File.VisitRangeCost) as often as a
// kernel has passes, or values already in memory — a selection's
// gathered once, or a scan's — as one run.
type columns struct {
	file   *colstore.File
	lo, hi uint64               // the range of file, when file is set
	cost   *obs.Cost            // charged the range's reads
	vals   map[string][]float64 // else the values, by column
	n      uint64               // rows in the set
}

// columnsAt returns the columns of rows: a range's, or, for positions,
// the named columns gathered at them once.
func (st *Step) columnsAt(ctx context.Context, rows Rows, names ...string) (*columns, error) {
	if rows.All {
		return &columns{file: st.file, lo: rows.Lo, hi: rows.Hi, cost: obs.CostFromContext(ctx), n: rows.Hi - rows.Lo}, nil
	}
	_, sp := obs.StartSpan(ctx, "gather-values")
	defer sp.End()
	sp.SetAttr("hits", strconv.Itoa(len(rows.Pos)))
	c := &columns{vals: map[string][]float64{}, n: uint64(len(rows.Pos))}
	for _, name := range names {
		if _, ok := c.vals[name]; ok {
			continue
		}
		vs, err := st.values(ctx, rows, name)
		if err != nil {
			return nil, err
		}
		c.vals[name] = vs
	}
	return c, nil
}

// inMemory returns values already read as columns.
func inMemory(n int, vals map[string][]float64) *columns {
	return &columns{vals: vals, n: uint64(n)}
}

// visit hands fn the named columns run by run, vals[i] the run's values
// of names[i], testing ctx before each run; fn must keep no slice of
// them. An error from fn ends the visit and is returned.
func (c *columns) visit(ctx context.Context, names []string, fn func(vals [][]float64) error) error {
	if c.file != nil {
		return c.file.VisitRangeCost(names, c.lo, c.hi, c.cost, func(vals [][]float64) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fn(vals)
		})
	}
	vals := make([][]float64, len(names))
	for i, name := range names {
		vals[i] = c.vals[name]
	}
	return fn(vals)
}

// minMax returns the range of each named column, folded as scan.MinMax
// folds one slice: each run's range joins the ones before it by strict <
// and >, so NaN is passed over, the first of equal extremes (-0 before
// +0) stays, a set of only NaN gives NaN and an empty one (0, 0).
func (c *columns) minMax(ctx context.Context, names []string) (lo, hi []float64, err error) {
	lo, hi = make([]float64, len(names)), make([]float64, len(names))
	seen := make([]bool, len(names))
	err = c.visit(ctx, names, func(vals [][]float64) error {
		for i, vs := range vals {
			l, h := scan.MinMax(vs)
			switch {
			case len(vs) == 0 || math.IsNaN(l):
			case !seen[i]:
				lo[i], hi[i], seen[i] = l, h, true
			default:
				if l < lo[i] {
					lo[i] = l
				}
				if h > hi[i] {
					hi[i] = h
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range names {
		if !seen[i] && c.n > 0 {
			lo[i], hi[i] = math.NaN(), math.NaN()
		}
	}
	return lo, hi, nil
}

// axis is one axis of a histogram spec.
type axis struct {
	v          string
	lo, hi     float64
	has        bool // lo and hi are the spec's explicit range
	bins       int
	binning    histogram.Binning
	minDensity float64
	cuts       []int
}

func axes1D(s histogram.Spec1D) []axis {
	return []axis{{s.Var, s.Lo, s.Hi, s.HasRange(), s.Bins, s.Binning, s.MinDensity, s.Cuts}}
}

func axes2D(s histogram.Spec2D) []axis {
	return []axis{
		{s.XVar, s.XLo, s.XHi, s.HasXRange(), s.XBins, s.Binning, s.MinDensity, s.XCuts},
		{s.YVar, s.YLo, s.YHi, s.HasYRange(), s.YBins, s.Binning, s.MinDensity, s.YCuts},
	}
}

// edges resolves the axes of a histogram spec against the values being
// binned, one pass over the columns for each step that needs them: the
// explicit range, or else the values' range (minMax); uniform bins over
// it, or equal-weight (adaptive) ones cut from the counts of
// AdaptiveRefine·bins uniform bins (histogram.AdaptiveEdgesOf). An
// adaptive axis a fleet resolved carries its cuts of the fine grid, and
// every shard expands them to the same edges. It is the only place a
// histogram's edges are derived.
func (c *columns) edges(ctx context.Context, axes ...axis) ([][]float64, error) {
	var names []string
	for _, a := range axes {
		if !a.has && !slices.Contains(names, a.v) {
			names = append(names, a.v)
		}
	}
	if len(names) > 0 {
		lo, hi, err := c.minMax(ctx, names)
		if err != nil {
			return nil, err
		}
		for i, a := range axes {
			if !a.has {
				j := slices.Index(names, a.v)
				axes[i].lo, axes[i].hi = lo[j], hi[j]
			}
		}
	}
	fine := make([]*histogram.Binner1D, len(axes))
	var fineNames []string
	var binners []*histogram.Binner1D
	for i, a := range axes {
		if a.binning != histogram.Adaptive || len(a.cuts) > 0 {
			continue
		}
		b, err := histogram.NewBinner1D(a.v, histogram.UniformEdges(a.lo, a.hi, a.bins*histogram.AdaptiveRefine))
		if err != nil {
			return nil, err
		}
		fine[i] = b
		fineNames, binners = append(fineNames, a.v), append(binners, b)
	}
	if len(binners) > 0 {
		err := c.visit(ctx, fineNames, func(vals [][]float64) error {
			for i, b := range binners {
				if err := b.Add(ctx, vals[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([][]float64, len(axes))
	for i, a := range axes {
		var err error
		if fine[i] != nil {
			out[i], err = histogram.AdaptiveEdgesOf(fine[i].Hist(), a.lo, a.hi, a.bins, a.minDensity)
		} else {
			out[i], err = histogram.ResolvedEdges(a.lo, a.hi, a.bins, a.cuts)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Histogram2DOver is the histogram kernel, the second step of the paper's
// conditional histogram (Section V-A2): gather the x and y values at rows
// and bin them against spec, with edges resolved from those values. Every
// FastBit histogram and every shard fragment's histogram is a selection
// followed by this call, so a data-derived range is the same whichever
// backend, shard split or fragment computed it. Every row of a range is
// binned without a gather: each pass reads the range's chunks and bins
// them as they come, so no column is held (paper Section III-A1). The
// result is a partial in the cells form (histogram.NewBinner2D).
func (st *Step) Histogram2DOver(ctx context.Context, rows Rows, spec histogram.Spec2D) (*histogram.Cells2D, error) {
	b, err := st.histogram2D(ctx, rows, spec, false)
	if err != nil {
		return nil, err
	}
	return b.Cells(), nil
}

// histogram2D is Histogram2DOver up to the binner: edges resolved from
// the rows, then one more pass that bins, densely for a reader's counts
// (histogram.NewDenseBinner2D), else for a partial's.
func (st *Step) histogram2D(ctx context.Context, rows Rows, spec histogram.Spec2D, dense bool) (*histogram.Binner2D, error) {
	c, err := st.columnsAt(ctx, rows, spec.XVar, spec.YVar)
	if err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "histogram-binning")
	defer sp.End()
	e, err := c.edges(ctx, axes2D(spec)...)
	if err != nil {
		return nil, err
	}
	var b *histogram.Binner2D
	if dense {
		b, err = histogram.NewDenseBinner2D(spec.XVar, spec.YVar, e[0], e[1])
	} else {
		b, err = histogram.NewBinner2D(spec.XVar, spec.YVar, e[0], e[1], c.n)
	}
	if err != nil {
		return nil, err
	}
	err = c.visit(ctx, []string{spec.XVar, spec.YVar}, func(vals [][]float64) error {
		return b.Add(ctx, vals[0], vals[1])
	})
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
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
	c, err := st.columnsAt(ctx, rows, spec.Var)
	if err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "histogram-binning")
	defer sp.End()
	e, err := c.edges(ctx, axes1D(spec)...)
	if err != nil {
		return nil, err
	}
	h, err := histogram.NewBinner1D(spec.Var, e[0])
	if err != nil {
		return nil, err
	}
	err = c.visit(ctx, []string{spec.Var}, func(vals [][]float64) error {
		return h.Add(ctx, vals[0])
	})
	if err != nil {
		return nil, err
	}
	return h.Hist(), nil
}

// MinMaxOver returns the range of each named column over rows, folded as
// scan.MinMax folds a slice of the values, and the number of rows: the
// FragMinMax fragment a fleet resolves a histogram's range from.
func (st *Step) MinMaxOver(ctx context.Context, rows Rows, names []string) (lo, hi []float64, n uint64, err error) {
	c, err := st.columnsAt(ctx, rows, names...)
	if err != nil {
		return nil, nil, 0, err
	}
	lo, hi, err = c.minMax(ctx, names)
	return lo, hi, c.n, err
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
	want := histogram.UniformEdges(ix.BinMin[0], ix.BinMax[ix.Bins()-1], spec.Bins)
	if !slices.EqualFunc(want, ix.Bounds, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return nil
	}
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil
	}
	return ev
}
