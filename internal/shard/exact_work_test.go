// Exact-work property across shard splits: a fragment does the work of
// its own row range and nothing more, so splitting a request over any
// number of shards answers byte-identically to one process while the
// selection work and the values read, summed over the fragments, equal
// the one-process work (or, for a conjunction that short-circuits per
// window, undercut it), the bitmap operations equal the one-process
// count once per shard, and the data bytes exceed it only by the chunks
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
	res, err := r.ex.Run(obs.WithCost(ctx, &c), f)
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
	// A conjunction stops once its bound leaves a window empty, so split
	// over shards it may check fewer rows than one process does; every
	// other shape checks exactly the same rows. So does a conjunction
	// whose windows all keep rows: "and-ranges" cuts both its terms
	// mid-bin, and checks each term's candidates only where the other
	// term's bins still admit the row, which depends on the row alone.
	queries := []struct {
		name, cond string
		vars       int // the columns the condition reads
		atMost     bool
	}{
		{"compare", canonical(t, fmt.Sprintf("px > %g", pq)), 1, false},
		{"not-or", canonical(t, fmt.Sprintf("!(px > %g) || x != %g", pq, xq)), 2, false},
		{"and", canonical(t, fmt.Sprintf("px > %g && !(x < %g)", pq, xq)), 2, true},
		{"and-ranges", canonical(t, fmt.Sprintf("px > %g && x < %g", pq, xq)), 2, false},
	}
	// A window boundary inside a chunk makes both neighbours read it.
	const chunkBytes = 8 * testChunkRows
	for _, backend := range []fastquery.Backend{fastquery.FastBit, fastquery.Scan} {
		for _, qc := range queries {
			cond := qc.cond
			for _, op := range []plan.Op{plan.OpCount, plan.OpHist2D} {
				name := fmt.Sprintf("%v/%s/%v", backend, qc.name, op)
				t.Run(name, func(t *testing.T) {
					q := plan.Query{Op: op, Dataset: "lwfa", Step: step, Query: cond, Backend: backend,
						Spec2: histogram.NewSpec2D("x", "px", 16, 16)}
					run := func(shards int) (*plan.DenseResult, *costRunner) {
						r := &costRunner{ex: testExecutor(t)}
						res, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast)
						if err != nil {
							t.Fatalf("%d shards: %v", shards, err)
						}
						return res, r
					}
					want, single := run(1)
					if backend == fastquery.FastBit && (single.total().CandidateChecks == 0 || single.total().BitmapOps == 0) {
						t.Fatal("one process candidate-checked nothing or read no bins; the sum properties would be vacuous")
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
							// Which bins a term reads, full or boundary,
							// depends only on its interval and the index
							// bounds, which every cut keeps whole: each
							// shard evaluates the selection once (phase 2
							// reads phase 1's) and charges the one-process
							// bins, fewer where a conjunction stops on an
							// empty window.
							if g, w := r.total().BitmapOps, uint64(shards)*single.total().BitmapOps; g > w || g < w && !qc.atMost {
								t.Errorf("%d shards: fragments charge %d bitmap ops, %d shards × one process's %d",
									shards, g, shards, single.total().BitmapOps)
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

	// An unconditional histogram reads its fragment's range straight out
	// of the chunks, once a pass: min/max without a range, a fine count
	// for an adaptive axis, then the bins; one process makes the same
	// passes over the whole step. So at every split the values read and
	// the bitmap operations are the one-process ones, and the data bytes
	// exceed them only by the chunks two windows share, once a column
	// pass.
	unconditional := []struct {
		name   string
		q      plan.Query
		passes uint64 // column passes: (min/max, fine, bins) × columns
	}{
		{"hist2d", plan.Query{Op: plan.OpHist2D, Spec2: histogram.NewSpec2D("x", "px", 16, 16)}, 4},
		{"hist1d", plan.Query{Op: plan.OpHist1D, Spec1: histogram.NewSpec1D("px", 16)}, 2},
		{"adaptive", plan.Query{Op: plan.OpHist2D, Spec2: histogram.NewSpec2D("x", "px", 16, 16).WithBinning(histogram.Adaptive)}, 6},
	}
	for _, backend := range []fastquery.Backend{fastquery.FastBit, fastquery.Scan} {
		for _, uc := range unconditional {
			t.Run(fmt.Sprintf("%v/unconditional/%s", backend, uc.name), func(t *testing.T) {
				q := uc.q
				q.Dataset, q.Step, q.Backend = "lwfa", step, backend
				run := func(shards int) (*plan.DenseResult, obs.CostSnapshot) {
					r := &costRunner{ex: testExecutor(t)}
					res, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast)
					if err != nil {
						t.Fatalf("%d shards: %v", shards, err)
					}
					for _, f := range r.frags {
						if f.cost.CandidateChecks != 0 || f.cost.Rows != 0 {
							t.Fatalf("%d shards: a %v fragment of an unconditional histogram selected: %+v", shards, f.op, f.cost)
						}
					}
					return res, r.total()
				}
				want, single := run(1)
				if single.ValuesRead != uc.passes*rows {
					t.Fatalf("one process read %d values, want %d passes over %d rows", single.ValuesRead, uc.passes, rows)
				}
				for _, shards := range []int{1, 2, 3, 5, 7} {
					got, c := run(shards)
					if !reflect.DeepEqual(got.Hist1, want.Hist1) || !reflect.DeepEqual(got.Hist2, want.Hist2) {
						t.Fatalf("%d shards: answer differs from one process", shards)
					}
					if c.ValuesRead != single.ValuesRead || c.BitmapOps != single.BitmapOps {
						t.Errorf("%d shards: %d values read, %d bitmap ops; one process %d, %d",
							shards, c.ValuesRead, c.BitmapOps, single.ValuesRead, single.BitmapOps)
					}
					if g, w := c.DataBytes, single.DataBytes; g < w || g > w+uint64(shards-1)*uc.passes*chunkBytes {
						t.Errorf("%d shards: fragments read %d data bytes, one process %d + up to %d split points × %d column passes × %d-byte chunks",
							shards, g, w, shards-1, uc.passes, chunkBytes)
					}
				}
			})
		}
	}
}

// TestSharedSelection: the two phases of a histogram, and a select over
// the same range, share one stored FragSelect — and an evicted entry is
// recomputed, not an error.
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
	// Every requested fragment is an evaluation; the shared selection is
	// not one of them, but it and the column phase 1 gathered are kept.
	counters := func(evals uint64, entries int) {
		t.Helper()
		if s := ex.Stats(); s.Evals != evals || s.CacheEntries != entries {
			t.Fatalf("evals/entries = %d/%d, want %d/%d", s.Evals, s.CacheEntries, evals, entries)
		}
	}
	counters(1, 2)
	var c obs.Cost
	if _, err := ex.Run(obs.WithCost(ctx, &c), hist); err != nil {
		t.Fatal(err)
	}
	counters(2, 3) // phase 2 gathered px beside phase 1's x
	if s := c.Snapshot(); s.CandidateChecks != 0 || s.BitmapOps != 0 || s.ValuesRead == 0 {
		t.Fatalf("phase 2 cost %+v: want gathers only", s)
	}
	var cs obs.Cost
	got, err := ex.Run(obs.WithCost(ctx, &cs), sel)
	if err != nil {
		t.Fatal(err)
	}
	counters(3, 3)
	if s := cs.Snapshot(); s != (obs.CostSnapshot{}) {
		t.Fatalf("session select over the same range cost %+v: it did not find phase 1's selection", s)
	}
	for _, p := range got.Sel {
		if p < rows.Lo || p >= rows.Hi {
			t.Fatalf("selected position %d outside %v", p, rows)
		}
	}

	// Without a handoff store every fragment evaluates its own selection.
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
		t.Fatalf("executor keeping nothing: err=%v, answer equal=%v", err, reflect.DeepEqual(res, want))
	}
}

// shardedCost is costRunner with one executor per shard, as a fleet
// runs: each shard's fragments share only that shard's handoff store.
type shardedCost struct {
	exs   []*shard.Executor
	mu    sync.Mutex
	frags []fragCost
}

func (r *shardedCost) RunFragment(ctx context.Context, i int, f plan.Fragment) (*plan.FragmentResult, error) {
	var c obs.Cost
	res, err := r.exs[i].Run(obs.WithCost(ctx, &c), f)
	r.mu.Lock()
	r.frags = append(r.frags, fragCost{op: f.Op, cost: c.Snapshot()})
	r.mu.Unlock()
	return res, err
}

// TestHandoffStaysInProbation: a stream of distinct two-phase histograms
// on 3 shards, over handoff stores whose probation holds a few requests'
// handoffs but not the stream's, cycles probation and still evaluates
// each selection exactly once: phase 1 selects and gathers, and phase 2
// reads what it kept, charging no selection work and reading no values.
func TestHandoffStaysInProbation(t *testing.T) {
	const shards, n, budget = 3, 24, 256 << 10
	rows, px := stepColumn(t, 1, "px")
	r := &shardedCost{}
	for i := 0; i < shards; i++ {
		ex := shard.NewExecutor(budget)
		if err := ex.AddDataset("lwfa", testDataDir(t)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ex.Close() })
		r.exs = append(r.exs, ex)
	}
	for i := 0; i < n; i++ {
		cut := px[len(px)*(60+i)/100]
		q := plan.Query{Op: plan.OpHist2D, Dataset: "lwfa", Step: 1,
			Query: canonical(t, fmt.Sprintf("px > %g", cut)), Backend: fastquery.FastBit,
			Spec2: histogram.NewSpec2D("x", "px", 16, 16)}
		r.frags = r.frags[:0]
		if _, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast); err != nil {
			t.Fatal(err)
		}
		var phase1, phase2 obs.CostSnapshot
		for _, f := range r.frags {
			switch f.op {
			case plan.FragMinMax:
				phase1.Add(f.cost)
			case plan.FragHist2D:
				phase2.Add(f.cost)
			default:
				t.Fatalf("request %d ran a %v fragment", i, f.op)
			}
		}
		if phase1.CandidateChecks+phase1.BitmapOps == 0 || phase1.ValuesRead == 0 {
			t.Fatalf("request %d: phase 1 cost %+v, want a selection and gathers", i, phase1)
		}
		if phase2.CandidateChecks != 0 || phase2.BitmapOps != 0 || phase2.Rows != 0 || phase2.ValuesRead != 0 {
			t.Fatalf("request %d: phase 2 cost %+v, want none: its handoff was recomputed", i, phase2)
		}
	}
	for i, ex := range r.exs {
		st := ex.Stats()
		if st.Evals != 2*n {
			t.Fatalf("shard %d: %+v, want %d evaluations", i, st, 2*n)
		}
		// Three entries a request (the selection and two gathered
		// columns), and no phase's result: probation cycled.
		if st.CacheEntries >= 3*n || st.CacheBytes > budget {
			t.Fatalf("shard %d: %d entries of %d bytes: probation never cycled", i, st.CacheEntries, st.CacheBytes)
		}
	}
}

// TestUnconditionalFragmentsKeepNothing: an unconditional histogram
// without a range — uniform or adaptive — answers on a fleet as in one
// process, and no fragment of it leaves anything in a shard's handoff
// store: each phase visits its range's chunks again, which costs less
// than a column kept. A single-phase histogram,
// its range given, is the same.
func TestUnconditionalFragmentsKeepNothing(t *testing.T) {
	const shards = 3
	rows, _ := stepColumn(t, 1, "px")
	specs := []histogram.Spec2D{
		histogram.NewSpec2D("x", "px", 16, 16),
		histogram.NewSpec2D("x", "px", 16, 16).WithBinning(histogram.Adaptive),
		histogram.NewSpec2D("x", "px", 16, 16).WithXRange(-1, 1).WithYRange(-1, 1),
	}
	for _, spec := range specs {
		q := plan.Query{Op: plan.OpHist2D, Dataset: "lwfa", Step: 1, Backend: fastquery.FastBit, Spec2: spec}
		want, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: 1}, rows, execRunner{testExecutor(t)}, plan.FailFast)
		if err != nil {
			t.Fatal(err)
		}
		r := &shardedCost{}
		for range shards {
			r.exs = append(r.exs, testExecutor(t))
		}
		got, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast)
		if err != nil || !reflect.DeepEqual(got.Hist2, want.Hist2) {
			t.Fatalf("%+v: %d shards answer differently (%v)", spec, shards, err)
		}
		for _, f := range r.frags {
			if f.cost.ValuesRead == 0 {
				t.Fatalf("%+v: a %v fragment read nothing: %+v", spec, f.op, f.cost)
			}
		}
		for i, ex := range r.exs {
			if st := ex.Stats(); st.Evals == 0 || st.CacheEntries != 0 {
				t.Fatalf("%+v: shard %d left %d entries after %d evaluations", spec, i, st.CacheEntries, st.Evals)
			}
		}
	}
}
