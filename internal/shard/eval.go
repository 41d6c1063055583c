// Package shard implements the executor half of the planner/executor
// split: evaluating plan fragments over a shard's row ranges of the shared
// dataset, serving them over the cluster RPC layer with a per-shard result
// cache, and a scatter client that fans fragments out to shard workers
// with replica failover and hedging.
//
// Every shard worker opens the same dataset directory (the paper's
// parallel-filesystem deployment), so the shard map assigns work rather
// than data: a fragment names a row range, and any worker could evaluate
// any fragment. On a fleet every fragment is one shard's row range, the
// phases of a histogram included, so what a worker keeps in memory
// follows its rows: the first ranged fragment on a step makes its range
// the step's resident index window (Executor.RunCached).
package shard

import (
	"context"
	"fmt"

	"repro/internal/fastquery"
	"repro/internal/plan"
	"repro/internal/query"
)

// Eval evaluates one fragment against one step. It is the executor's
// kernel and is deliberately a free function over *fastquery.Step so the
// serving layer can run the identical code in-process for the one-shard
// case. Every ranged fragment costs work proportional to its row range:
// selections are evaluated over the range only, and an unconditional
// fragment visits the range's chunks, once a pass, and keeps nothing.
func Eval(ctx context.Context, st *fastquery.Step, f plan.Fragment) (*plan.FragmentResult, error) {
	expr, err := parseQuery(f.Query)
	if err != nil {
		return nil, err
	}
	lo, hi := rangeOf(st, f.Rows)
	switch f.Op {
	case plan.FragCount:
		if expr == nil {
			return &plan.FragmentResult{Count: hi - lo}, nil
		}
		n, err := st.CountIn(ctx, expr, f.Backend, lo, hi)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Count: n}, nil

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
		rows := fastquery.Rows{All: expr == nil, Lo: lo, Hi: hi}
		if expr != nil {
			if rows.Pos, err = st.SelectCtx(ctx, expr, f.Backend, lo, hi); err != nil {
				return nil, err
			}
		}
		return evalOver(ctx, st, f, rows)

	default:
		return nil, fastquery.Fatalf("shard: unknown fragment op %v", f.Op)
	}
}

// evalOver computes a FragMinMax, FragHist1D or FragHist2D fragment over
// rows already selected. Histograms go through the one fastquery kernel,
// which resolves the spec's edges from the rows it bins: a scattered
// fragment's resolved spec — its range and any adaptive cuts — yields the
// same edges on every shard (and at the merging frontend), and a
// whole-step fragment's spec resolves exactly as a single process would.
func evalOver(ctx context.Context, st *fastquery.Step, f plan.Fragment, rows fastquery.Rows) (*plan.FragmentResult, error) {
	switch f.Op {
	case plan.FragMinMax:
		lo, hi, n, err := st.MinMaxOver(ctx, rows, f.Vars)
		if err != nil {
			return nil, err
		}
		res := &plan.FragmentResult{}
		for i, v := range f.Vars {
			res.MinMax = append(res.MinMax, plan.VarRange{Var: v, Lo: lo[i], Hi: hi[i], N: n})
		}
		return res, nil

	case plan.FragHist1D:
		h, err := st.Histogram1DOver(ctx, rows, f.Spec1, f.Backend)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist1: h}, nil

	case plan.FragHist2D:
		h, err := st.Histogram2DOver(ctx, rows, f.Spec2)
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
