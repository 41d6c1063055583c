// Exact-work property across shard splits: a fragment does the work of
// its own row range and nothing more, so splitting a request over any
// number of shards answers byte-identically to one process while the
// selection work and the values read, summed over the fragments, equal
// the one-process work (or, for a conjunction that short-circuits per
// window, undercut it), and the data bytes exceed it only by the chunks
// that neighbouring windows share.
package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shard"
)

// fragCost is one fragment execution and what it charged.
type fragCost struct {
	op   plan.FragOp
	cost obs.CostSnapshot
}

// costRunner runs fragments on one executor, each under its own cost
// accumulator, the way a shard worker profiles a fragment for explain.
type costRunner struct {
	ex    *shard.Executor
	mu    sync.Mutex
	frags []fragCost
}

func (r *costRunner) RunFragment(ctx context.Context, _ int, f plan.Fragment) (*plan.FragmentResult, error) {
	var c obs.Cost
	res, _, err := r.ex.RunCached(obs.WithCost(ctx, &c), f)
	r.mu.Lock()
	r.frags = append(r.frags, fragCost{op: f.Op, cost: c.Snapshot()})
	r.mu.Unlock()
	return res, err
}

func (r *costRunner) total() obs.CostSnapshot {
	var t obs.CostSnapshot
	for _, f := range r.frags {
		t.Add(f.cost)
	}
	return t
}

// stepColumn returns a step's row count and the sorted values of one of
// its columns.
func stepColumn(t *testing.T, step int, name string) (uint64, []float64) {
	t.Helper()
	src, err := fastquery.Open(testDataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := src.OpenStep(step)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	vals, err := st.ReadColumn(name)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(vals)
	return st.Rows(), vals
}

func TestExactWorkAcrossShardSplits(t *testing.T) {
	// Thresholds at data quantiles fall inside bins, not on their edges,
	// so the index has boundary rows to candidate-check.
	const step = 1
	rows, px := stepColumn(t, step, "px")
	_, x := stepColumn(t, step, "x")
	quantile := func(vs []float64, q float64) float64 { return vs[int(q*float64(len(vs)))] }
	pq, xq := quantile(px, 0.37), quantile(x, 0.61)
	// A conjunction stops at the first term that leaves its window
	// empty, so split over shards it may check fewer rows than one
	// process does; every other shape checks exactly the same rows.
	queries := []struct {
		name, cond string
		vars       int // the columns the condition reads
		atMost     bool
	}{
		{"compare", canonical(t, fmt.Sprintf("px > %g", pq)), 1, false},
		{"not-or", canonical(t, fmt.Sprintf("!(px > %g) || x != %g", pq, xq)), 2, false},
		{"and", canonical(t, fmt.Sprintf("px > %g && !(x < %g)", pq, xq)), 2, true},
	}
	// A window boundary inside a chunk makes both neighbours read it.
	chunkBytes := 8 * min(uint64(colstore.DefaultChunkRows), rows)
	for _, backend := range []fastquery.Backend{fastquery.FastBit, fastquery.Scan} {
		for _, qc := range queries {
			cond := qc.cond
			for _, op := range []plan.Op{plan.OpCount, plan.OpHist2D} {
				name := fmt.Sprintf("%v/%s/%v", backend, qc.name, op)
				t.Run(name, func(t *testing.T) {
					q := plan.Query{Op: op, Dataset: "lwfa", Step: step, Query: cond, Backend: backend,
						Spec2: histogram.NewSpec2D("x", "px", 16, 16)}
					run := func(shards int) (*plan.Result, *costRunner) {
						r := &costRunner{ex: testExecutor(t)}
						res, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast)
						if err != nil {
							t.Fatalf("%d shards: %v", shards, err)
						}
						return res, r
					}
					want, single := run(1)
					if backend == fastquery.FastBit && single.total().CandidateChecks == 0 {
						t.Fatal("one process candidate-checked nothing; the sum property would be vacuous")
					}
					for _, shards := range []int{1, 2, 3, 5, 7} {
						got, r := run(shards)
						if got.Count != want.Count || !reflect.DeepEqual(got.Hist2, want.Hist2) {
							t.Fatalf("%d shards: answer differs from one process", shards)
						}
						if backend == fastquery.FastBit {
							if g, w := r.total().CandidateChecks, single.total().CandidateChecks; g > w || g < w && !qc.atMost {
								t.Errorf("%d shards: fragments candidate-check %d rows, one process %d", shards, g, w)
							}
						} else if op == plan.OpCount {
							if g := r.total().Rows; g != rows {
								t.Errorf("%d shards: fragments scan %d rows, the step has %d", shards, g, rows)
							}
						}
						// Every value is read once, whichever fragment or
						// phase reads it: phase 1 gathers the histogram's
						// columns and phase 2 bins what it kept.
						if g, w := r.total().ValuesRead, single.total().ValuesRead; g > w || g < w && !qc.atMost {
							t.Errorf("%d shards: fragments read %d values, one process %d", shards, g, w)
						}
						// Each column read (the condition's, then the
						// histogram's two gathers) may read one chunk twice
						// at each of the shards-1 interior split points.
						reads := uint64(qc.vars)
						if op == plan.OpHist2D {
							reads += 2
						}
						if g, w := r.total().DataBytes, single.total().DataBytes; g > w+uint64(shards-1)*reads*chunkBytes {
							t.Errorf("%d shards: fragments read %d data bytes, one process %d + %d split points × %d column reads × %d-byte chunks",
								shards, g, w, shards-1, reads, chunkBytes)
						}
						// Phase 2 gathers at the selection phase 1 cached:
						// it charges no selection work at all. (One shard
						// runs one whole-step fragment, with no phase 1.)
						twoPhase := slices.ContainsFunc(r.frags, func(f fragCost) bool { return f.op == plan.FragMinMax })
						for _, f := range r.frags {
							if twoPhase && f.op == plan.FragHist2D && (f.cost.CandidateChecks != 0 || f.cost.BitmapOps != 0 || f.cost.Rows != 0) {
								t.Errorf("%d shards: a phase-2 fragment charged selection work: %+v", shards, f.cost)
							}
						}
					}
				})
			}
		}
	}
}

// TestSharedSelection: the two phases of a histogram, and a select over
// the same range, share one FragSelect cache entry — and an evicted
// entry is recomputed, not an error.
func TestSharedSelection(t *testing.T) {
	ex := testExecutor(t)
	rows := plan.RowRange{Lo: 1000, Hi: 2200}
	base := plan.Fragment{Dataset: "lwfa", Step: 0, Rows: rows,
		Query: canonical(t, "px > 0"), Backend: fastquery.FastBit}
	minmax, hist, sel := base, base, base
	minmax.Op, minmax.Vars = plan.FragMinMax, []string{"x"}
	hist.Op, hist.Spec2 = plan.FragHist2D, histogram.NewSpec2D("x", "px", 8, 8).WithXRange(-1, 1).WithYRange(-1, 1)
	sel.Op = plan.FragSelect

	ctx := context.Background()
	if _, err := ex.Run(ctx, minmax); err != nil {
		t.Fatal(err)
	}
	// The shared selection is not a requested fragment: only the
	// requested ones move the hit, miss and evaluation counters.
	counters := func(evals, misses, hits uint64) {
		t.Helper()
		s := ex.Stats()
		if s.Evals != evals || s.CacheMisses != misses || s.CacheHits != hits {
			t.Fatalf("evals/misses/hits = %d/%d/%d, want %d/%d/%d",
				s.Evals, s.CacheMisses, s.CacheHits, evals, misses, hits)
		}
	}
	counters(1, 1, 0)
	if _, ok := ex.Peek(sel); !ok {
		t.Fatal("phase 1 did not leave its selection in the fragment cache")
	}
	var c obs.Cost
	if _, err := ex.Run(obs.WithCost(ctx, &c), hist); err != nil {
		t.Fatal(err)
	}
	counters(2, 2, 1)
	if s := c.Snapshot(); s.CandidateChecks != 0 || s.BitmapOps != 0 || s.ValuesRead == 0 {
		t.Fatalf("phase 2 cost %+v: want gathers only", s)
	}
	got, hit, err := ex.RunCached(ctx, sel)
	if err != nil || !hit {
		t.Fatalf("session select over the same range: hit=%v err=%v", hit, err)
	}
	for _, p := range got.Sel {
		if p < rows.Lo || p >= rows.Hi {
			t.Fatalf("selected position %d outside %v", p, rows)
		}
	}

	// Without a cache every fragment evaluates its own selection.
	cold := shard.NewExecutor(0)
	defer cold.Close()
	if err := cold.AddDataset("lwfa", testDataDir(t)); err != nil {
		t.Fatal(err)
	}
	want, err := ex.Run(ctx, hist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cold.Run(ctx, hist)
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("uncached executor: err=%v, answer equal=%v", err, reflect.DeepEqual(res, want))
	}
}
