package plan

import (
	"context"

	"repro/internal/histogram"
)

// DenseResult is a merged answer with its histograms dense, as a caller
// outside the server reads them: Hist1 and Hist2 hold every count and
// shadow the Result's cells form; every other field is the Result's.
type DenseResult struct {
	*Result
	Hist1 *histogram.Hist1D
	Hist2 *histogram.Hist2D
}

// Execute is ExecuteCells with its histograms dense. The expansion is one
// grid per histogram, made here; the server calls ExecuteCells and writes
// the counts without one.
func Execute(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*DenseResult, error) {
	res, err := ExecuteCells(ctx, q, m, rows, r, policy)
	if err != nil {
		return nil, err
	}
	d := &DenseResult{Result: res}
	if res.Hist1 != nil {
		d.Hist1 = res.Hist1.Dense()
	}
	if res.Hist2 != nil {
		d.Hist2 = res.Hist2.Dense()
	}
	return d, nil
}
