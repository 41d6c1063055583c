// Package shard implements the executor half of the planner/executor
// split: evaluating plan fragments over a shard's row ranges of the shared
// dataset, serving them over the cluster RPC layer with a per-shard result
// cache, and a scatter client that fans fragments out to shard workers
// with replica failover and hedging.
//
// Every shard worker opens the same dataset directory (the paper's
// parallel-filesystem deployment), so the shard map assigns work rather
// than data: a fragment names a row range, and any worker could evaluate
// any fragment. Whole-step fragments are routed to a stable home shard so
// its cache absorbs repeats.
package shard

import (
	"context"
	"fmt"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/scan"
)

// Eval evaluates one fragment against one step. It is the executor's
// kernel and is deliberately a free function over *fastquery.Step so the
// serving layer can run the identical code in-process for the one-shard
// case. Every ranged fragment costs work proportional to its row range:
// selections are evaluated over the range only, and an unconditional
// fragment reads the range's values directly.
func Eval(ctx context.Context, st *fastquery.Step, f plan.Fragment) (*plan.FragmentResult, error) {
	expr, err := parseQuery(f.Query)
	if err != nil {
		return nil, err
	}
	lo, hi := rangeOf(st, f.Rows)
	switch f.Op {
	case plan.FragWhole1D:
		h, err := st.Histogram1DCtx(ctx, expr, f.Spec1, f.Backend)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist1: h}, nil

	case plan.FragWhole2D:
		h, err := st.Histogram2DCtx(ctx, expr, f.Spec2, f.Backend)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist2: h}, nil

	case plan.FragCount:
		if expr == nil {
			return &plan.FragmentResult{Count: hi - lo}, nil
		}
		pos, err := st.SelectCtx(ctx, expr, f.Backend, lo, hi)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Count: uint64(len(pos))}, nil

	case plan.FragSelect:
		var sel []uint64
		if expr == nil {
			sel = make([]uint64, hi-lo)
			for i := range sel {
				sel[i] = lo + uint64(i)
			}
		} else if sel, err = st.SelectCtx(ctx, expr, f.Backend, lo, hi); err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Sel: sel, Count: uint64(len(sel))}, nil

	case plan.FragMinMax, plan.FragHist1D, plan.FragHist2D:
		rows := rowSet{all: expr == nil, lo: lo, hi: hi}
		if expr != nil {
			if rows.pos, err = st.SelectCtx(ctx, expr, f.Backend, lo, hi); err != nil {
				return nil, err
			}
		}
		return evalOver(ctx, st, f, rows)

	default:
		return nil, fastquery.Fatalf("shard: unknown fragment op %v", f.Op)
	}
}

// rowSet is what a min/max or histogram fragment reads its values over:
// the matching positions of a conditional fragment, or every row of
// [lo, hi) for an unconditional one.
type rowSet struct {
	pos    []uint64
	all    bool
	lo, hi uint64
}

// values reads a column at the set's rows.
func (r rowSet) values(ctx context.Context, st *fastquery.Step, name string) ([]float64, error) {
	if r.all {
		return st.ValuesInRangeCtx(ctx, name, r.lo, r.hi)
	}
	return st.ValuesAtCtx(ctx, name, r.pos)
}

// evalOver computes a FragMinMax, FragHist1D or FragHist2D fragment over
// rows already selected.
func evalOver(ctx context.Context, st *fastquery.Step, f plan.Fragment, rows rowSet) (*plan.FragmentResult, error) {
	switch f.Op {
	case plan.FragMinMax:
		res := &plan.FragmentResult{}
		for _, v := range f.Vars {
			vs, err := rows.values(ctx, st, v)
			if err != nil {
				return nil, err
			}
			lo, hi := scan.MinMax(vs)
			res.MinMax = append(res.MinMax, plan.VarRange{Var: v, Lo: lo, Hi: hi, N: uint64(len(vs))})
		}
		return res, nil

	case plan.FragHist1D:
		vs, err := rows.values(ctx, st, f.Spec1.Var)
		if err != nil {
			return nil, err
		}
		// Edges are recomputed from the resolved spec rather than
		// shipped: UniformEdges is deterministic, so every shard (and
		// the merging frontend) derives bit-identical boundaries.
		edges := histogram.UniformEdges(f.Spec1.Lo, f.Spec1.Hi, f.Spec1.Bins)
		h, err := histogram.Compute1DCtx(ctx, f.Spec1.Var, vs, edges)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist1: h}, nil

	case plan.FragHist2D:
		xs, err := rows.values(ctx, st, f.Spec2.XVar)
		if err != nil {
			return nil, err
		}
		ys, err := rows.values(ctx, st, f.Spec2.YVar)
		if err != nil {
			return nil, err
		}
		xe := histogram.UniformEdges(f.Spec2.XLo, f.Spec2.XHi, f.Spec2.XBins)
		ye := histogram.UniformEdges(f.Spec2.YLo, f.Spec2.YHi, f.Spec2.YBins)
		h, err := histogram.Compute2DCtx(ctx, f.Spec2.XVar, f.Spec2.YVar, xs, ys, xe, ye)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist2: h}, nil

	default:
		return nil, fastquery.Fatalf("shard: fragment op %v does not read selected rows", f.Op)
	}
}

// parseQuery parses a fragment's canonical query text. A malformed query
// is fatal: retrying or failing over will not fix it.
func parseQuery(src string) (query.Expr, error) {
	if src == "" {
		return nil, nil
	}
	e, err := query.Parse(src)
	if err != nil {
		return nil, fastquery.Fatal(fmt.Errorf("shard: parse query: %w", err))
	}
	return query.Canonical(e), nil
}

// rangeOf resolves a fragment's row range to [lo, hi) on this step: the
// whole step for the zero range, clamped to the step's rows, and empty
// when Hi <= Lo.
func rangeOf(st *fastquery.Step, rr plan.RowRange) (lo, hi uint64) {
	if rr.Whole() {
		return 0, st.Rows()
	}
	hi = min(rr.Hi, st.Rows())
	return min(rr.Lo, hi), hi
}
