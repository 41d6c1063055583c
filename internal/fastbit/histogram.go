package fastbit

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Histogram1DFromBitmapsCtx computes a conditional 1D histogram entirely in
// index space: every bin bitmap of the variable's index is counted against
// the condition's set (Vector.AndCount). No raw data is touched.
// The bin boundaries are the index's own; this is the algorithm family of
// Stockinger et al. for conditional histograms on SMP machines (paper
// Section II-C), provided here as the ablation counterpart to the
// two-step gather-then-bin strategy of fastquery's histogram kernel. ctx
// is observed by the condition's evaluation.
func (ev *Evaluator) Histogram1DFromBitmapsCtx(ctx context.Context, cond query.Expr, name string) (*histogram.Hist1D, error) {
	ix, err := ev.index(name, 0, ev.N)
	if err != nil {
		return nil, err
	}
	h := &histogram.Hist1D{
		Var:    name,
		Edges:  append([]float64(nil), ix.Bounds...),
		Counts: make([]uint64, ix.Bins()),
	}
	if cond == nil {
		copy(h.Counts, ix.BinCounts())
		return h, nil
	}
	hits, err := ev.evalWindow(ctx, cond, 0, ev.N)
	if err != nil {
		return nil, err
	}
	for b, bm := range ix.Bitmaps {
		h.Counts[b] = bm.AndCount(hits)
	}
	return h, nil
}

// Histogram2DFromBitmapsCtx computes a (conditional) 2D histogram entirely in
// index space: every bin bitmap of one axis is decoded into a row set,
// ANDed with the condition's set when there is one, and every bin bitmap
// of the other axis is counted against it (Vector.AndCount). Counting
// walks the counted bins' words once per row set, so the axis counted is
// the one whose bins, times the other's bin count, hold fewer bytes. No
// raw data is touched; the cell grid is the cross product of the two
// indexes' bins, which is exactly the histogram "cross product" interface
// of the paper's network-analysis predecessor (Section II-C). Quadratic in
// bin count, so intended for coarse overview grids. ctx is observed per
// row set.
func (ev *Evaluator) Histogram2DFromBitmapsCtx(ctx context.Context, cond query.Expr, xvar, yvar string) (*histogram.Hist2D, error) {
	ixX, err := ev.index(xvar, 0, ev.N)
	if err != nil {
		return nil, err
	}
	ixY, err := ev.index(yvar, 0, ev.N)
	if err != nil {
		return nil, err
	}
	h := &histogram.Hist2D{
		XVar: xvar, YVar: yvar,
		XEdges: append([]float64(nil), ixX.Bounds...),
		YEdges: append([]float64(nil), ixY.Bounds...),
		Counts: make([]uint64, ixX.Bins()*ixY.Bins()),
	}
	var hits *bitmap.BitSet
	if cond != nil {
		if hits, err = ev.evalWindow(ctx, cond, 0, ev.N); err != nil {
			return nil, err
		}
	}
	nx := ixX.Bins()
	rowSets, counted := ixY.Bitmaps, ixX.Bitmaps
	cell := func(r, c int) int { return r*nx + c }
	if ixY.Bins()*ixX.SizeBytes() > nx*ixY.SizeBytes() {
		rowSets, counted = counted, rowSets
		cell = func(r, c int) int { return c*nx + r }
	}
	row := bitmap.NewBitSet(ev.N)
	for r, bm := range rowSets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row.Reset()
		bm.OrInto(row, 0, ev.N)
		if hits != nil {
			row.AndWith(hits)
		}
		if !row.Any() {
			continue
		}
		for c, bmC := range counted {
			h.Counts[cell(r, c)] = bmC.AndCount(row)
		}
	}
	return h, nil
}
