package fastbit

import (
	"context"

	"repro/internal/bitmap"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Histogram1DFromBitmapsCtx computes a conditional 1D histogram entirely in
// index space: the condition's bitmap is ANDed with every bin bitmap of
// the variable's index and the ones are counted. No raw data is touched.
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
	hits, err := ev.EvalCtx(ctx, cond)
	if err != nil {
		return nil, err
	}
	for b, bm := range ix.Bitmaps {
		h.Counts[b] = hits.AndCount(bm)
	}
	return h, nil
}

// Histogram2DFromBitmapsCtx computes a (conditional) 2D histogram entirely in
// index space: for every (x-bin, y-bin) cell the two bin bitmaps — and the
// condition bitmap, when present — are intersected and counted. No raw
// data is touched; the cell grid is the cross product of the two indexes'
// bins, which is exactly the histogram "cross product" interface of the
// paper's network-analysis predecessor (Section II-C). Quadratic in bin
// count, so intended for coarse overview grids. ctx is observed per
// y-bin row of the cell grid.
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
	var hits, row *bitmap.BitSet
	if cond != nil {
		if hits, err = ev.evalWindow(ctx, cond, 0, ev.N); err != nil {
			return nil, err
		}
		row = bitmap.NewBitSet(ev.N)
	}
	nx := ixX.Bins()
	for iy, bmY := range ixY.Bitmaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rowV := bmY
		if hits != nil {
			row.Reset()
			bmY.OrInto(row, 0, ev.N)
			if row.AndWith(hits); !row.Any() {
				continue
			}
			rowV = row.ToVector()
		}
		if rowV.Count() == 0 {
			continue
		}
		for ix, bmX := range ixX.Bitmaps {
			if c := rowV.AndCount(bmX); c != 0 {
				h.Counts[iy*nx+ix] = c
			}
		}
	}
	return h, nil
}
