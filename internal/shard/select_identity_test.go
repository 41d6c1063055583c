// Shard-split identity for the analysis-session primitives: an OpSelect
// scatter over any shard split must materialize byte-identical sorted
// positions to the single-process plan, the particle-ID membership
// predicate built from those positions must count identically across
// splits, and a selection fragment is the handoff a histogram over the
// same brush reads.
package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
)

// execSelect runs one OpSelect through the planner over the given shard
// count, on a fresh executor so stored selections cannot leak between
// topologies.
func execSelect(t *testing.T, shards int, q string, backend fastquery.Backend, step int) *plan.DenseResult {
	t.Helper()
	ex := testExecutor(t)
	src, err := fastquery.Open(testDataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := src.OpenStep(step)
	if err != nil {
		t.Fatal(err)
	}
	rows := st.Rows()
	pq := plan.Query{Op: plan.OpSelect, Dataset: "lwfa", Step: step, Query: q, Backend: backend}
	res, err := plan.Execute(context.Background(), pq, plan.ShardMap{Shards: shards}, rows, execRunner{ex}, plan.FailFast)
	if err != nil {
		t.Fatalf("%d shards, %q: %v", shards, q, err)
	}
	return res
}

func TestSelectScatterIdentity(t *testing.T) {
	med := pxMedian(t)
	queries := []string{
		"",
		fmt.Sprintf("px > %g", med),
		fmt.Sprintf("px > %g && y < 0.75", med),
	}
	backends := []fastquery.Backend{fastquery.FastBit, fastquery.Scan}
	for _, b := range backends {
		for _, src := range queries {
			q := ""
			if src != "" {
				q = canonical(t, src)
			}
			want := execSelect(t, 1, q, b, 1)
			if want.Partial || len(want.Sel) == 0 && src == "" {
				t.Fatalf("baseline select %q: %+v", q, want)
			}
			for _, shards := range []int{1, 2, 3, 5, 7} {
				got := execSelect(t, shards, q, b, 1)
				if !reflect.DeepEqual(got.Sel, want.Sel) {
					t.Fatalf("%v %q: %d-shard selection diverges from 1-shard (%d vs %d positions)",
						b, q, shards, len(got.Sel), len(want.Sel))
				}
				if got.Count != want.Count {
					t.Fatalf("%v %q: %d-shard count %d != %d", b, q, shards, got.Count, want.Count)
				}
			}
		}
	}
}

// TestTrackedIDSetIdentity follows the session track path across shard
// splits: positions selected at one step materialize into particle IDs,
// and the resulting `id in (…)` membership predicate must select and
// count identically over {1, 2, 3, 5, 7} shard splits on every step and
// both backends.
func TestTrackedIDSetIdentity(t *testing.T) {
	med := pxMedian(t)
	src, err := fastquery.Open(testDataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := src.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	base := execSelect(t, 1, canonical(t, fmt.Sprintf("px > %g && y < 0.6", med)), fastquery.FastBit, 0)
	if len(base.Sel) == 0 {
		t.Fatal("brush selected nothing; broaden the test predicate")
	}
	ids, err := st.IDsAtCtx(context.Background(), base.Sel)
	if err != nil {
		t.Fatal(err)
	}
	fids := make([]float64, len(ids))
	for i, id := range ids {
		fids[i] = float64(id)
	}
	inQ := query.Canonical(query.NewIn(st.IDVar(), fids)).String()

	for _, b := range []fastquery.Backend{fastquery.FastBit, fastquery.Scan} {
		for step := 0; step < 3; step++ {
			want := execSelect(t, 1, inQ, b, step)
			if step == 0 && want.Count != uint64(len(ids)) {
				t.Fatalf("%v: at the brush step the ID set selects %d of its %d particles", b, want.Count, len(ids))
			}
			for _, shards := range []int{1, 2, 3, 5, 7} {
				got := execSelect(t, shards, inQ, b, step)
				if !reflect.DeepEqual(got.Sel, want.Sel) || got.Count != want.Count {
					t.Fatalf("%v step %d: %d-shard tracked selection diverges (%d vs %d)",
						b, step, shards, got.Count, want.Count)
				}
			}
		}
	}
}

// TestSelectFragmentsHandoff: a requested FragSelect (a session select
// on a fleet) is stored as the two-phase handoff, under the key a ranged
// conditional histogram over the same rows reads its positions at: that
// histogram then charges gathers only, and the select asked again is
// found there and charges nothing.
func TestSelectFragmentsHandoff(t *testing.T) {
	ex := testExecutor(t)
	f := plan.Fragment{
		Op: plan.FragSelect, Dataset: "lwfa", Step: 0,
		Rows:  plan.RowRange{Lo: 0, Hi: 500},
		Query: canonical(t, "px > 0"), Backend: fastquery.FastBit,
	}
	ctx := context.Background()
	res, err := ex.Run(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sel) == 0 {
		t.Fatal("the selection is empty; the property would be vacuous")
	}
	if st := ex.Stats(); st.Evals != 1 || st.CacheEntries != 1 {
		t.Fatalf("after the select: %+v, want 1 evaluation and 1 stored selection", st)
	}

	hist := f
	hist.Op, hist.Spec2 = plan.FragHist2D, histogram.NewSpec2D("x", "px", 8, 8).WithXRange(-1, 1).WithYRange(-1, 1)
	var c obs.Cost
	if _, err := ex.Run(obs.WithCost(ctx, &c), hist); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.CandidateChecks != 0 || s.BitmapOps != 0 || s.ValuesRead == 0 {
		t.Fatalf("histogram over the selected rows cost %+v: want gathers only", s)
	}

	var ca obs.Cost
	again, err := ex.Run(obs.WithCost(ctx, &ca), f)
	if err != nil || !reflect.DeepEqual(again, res) {
		t.Fatalf("select asked again: err=%v, same answer=%v", err, reflect.DeepEqual(again, res))
	}
	if s := ca.Snapshot(); s != (obs.CostSnapshot{}) {
		t.Fatalf("select asked again cost %+v: its stored selection was not found", s)
	}
	if st := ex.Stats(); st.Evals != 3 {
		t.Fatalf("%d evaluations counted, want 3: every requested fragment runs", st.Evals)
	}
}
