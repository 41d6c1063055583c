package plan

import "context"

// Execute is ExecuteCells with its histograms dense: Counts holds every
// cell, as a caller outside the server reads them. The expansion is one
// grid per histogram, made here; the server calls ExecuteCells and writes
// the counts without one.
func Execute(ctx context.Context, q Query, m ShardMap, rows uint64, r Runner, policy PartialPolicy) (*Result, error) {
	res, err := ExecuteCells(ctx, q, m, rows, r, policy)
	if err != nil {
		return nil, err
	}
	if res.Hist1 != nil {
		res.Hist1 = res.Hist1.Dense()
	}
	if res.Hist2 != nil {
		res.Hist2 = res.Hist2.Dense()
	}
	return res, nil
}
