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
	if _, err := runFragment(ctx, ex, minmax); err != nil {
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
	if _, err := runFragment(obs.WithCost(ctx, &c), ex, hist); err != nil {
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
	want, err := runFragment(ctx, ex, hist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runFragment(ctx, cold, hist)
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Fatalf("uncached executor: err=%v, answer equal=%v", err, reflect.DeepEqual(res, want))
	}
}

// shardedCost is costRunner with one executor per shard, as a fleet
// runs: each shard's fragments share only that shard's fragment cache.
type shardedCost struct {
	exs   []*shard.Executor
	mu    sync.Mutex
	frags []fragCost
}

func (r *shardedCost) RunFragment(ctx context.Context, i int, f plan.Fragment) (*plan.FragmentResult, error) {
	var c obs.Cost
	res, _, err := r.exs[i].RunCached(obs.WithCost(ctx, &c), f)
	r.mu.Lock()
	r.frags = append(r.frags, fragCost{op: f.Op, cost: c.Snapshot()})
	r.mu.Unlock()
	return res, err
}

// TestHandoffStaysInProbation: a stream of distinct two-phase histograms
// on 3 shards, over caches whose probation holds a few requests' handoffs
// but not the stream's, promotes nothing — every shard's protected bytes
// stay 0 — and still evaluates each selection exactly once: phase 1
// selects and gathers, and phase 2 reads what it kept, charging no
// selection work and reading no values.
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
		if st.CacheProtectedBytes != 0 || st.Evals != 2*n || st.CacheHits != 0 {
			t.Fatalf("shard %d: %+v, want %d evaluations, no hit, nothing protected", i, st, 2*n)
		}
		// Five entries a request (both phases' results, the selection
		// and two gathered columns): probation cycled.
		if st.CacheEntries >= 5*n || st.CacheBytes > budget {
			t.Fatalf("shard %d: %d entries of %d bytes: probation never cycled", i, st.CacheEntries, st.CacheBytes)
		}
	}
}

// TestUnconditionalPhasesReadOnce: an unconditional histogram without a
// range — uniform or adaptive — reads each column once on a fleet, as in
// one process: phase 1 (min/max) reads its range and keeps what it read,
// and the fine and final phases read none. A single-phase unconditional
// histogram, its range given, keeps nothing beside its result.
func TestUnconditionalPhasesReadOnce(t *testing.T) {
	const shards = 3
	rows, _ := stepColumn(t, 1, "px")
	fleet := func() *shardedCost {
		r := &shardedCost{}
		for range shards {
			r.exs = append(r.exs, testExecutor(t))
		}
		return r
	}
	for _, binning := range []histogram.Binning{histogram.Uniform, histogram.Adaptive} {
		q := plan.Query{Op: plan.OpHist2D, Dataset: "lwfa", Step: 1, Backend: fastquery.FastBit,
			Spec2: histogram.NewSpec2D("x", "px", 16, 16).WithBinning(binning)}
		single := &costRunner{ex: testExecutor(t)}
		want, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: 1}, rows, single, plan.FailFast)
		if err != nil {
			t.Fatal(err)
		}
		r := fleet()
		got, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast)
		if err != nil || !reflect.DeepEqual(got.Hist2, want.Hist2) {
			t.Fatalf("%v: %d shards answer differently (%v)", binning, shards, err)
		}
		var read uint64
		for _, f := range r.frags {
			read += f.cost.ValuesRead
			if f.op != plan.FragMinMax && (f.cost.ValuesRead != 0 || f.cost.DataBytes != 0) {
				t.Fatalf("%v: a %v fragment after phase 1 read data: %+v", binning, f.op, f.cost)
			}
		}
		if w := single.total().ValuesRead; read != w || w != 2*rows {
			t.Fatalf("%v: %d shards read %d values, one process %d, the columns hold %d", binning, shards, read, w, 2*rows)
		}
	}

	q := plan.Query{Op: plan.OpHist2D, Dataset: "lwfa", Step: 1, Backend: fastquery.FastBit,
		Spec2: histogram.NewSpec2D("x", "px", 16, 16).WithXRange(-1, 1).WithYRange(-1, 1)}
	r := fleet()
	if _, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows, r, plan.FailFast); err != nil {
		t.Fatal(err)
	}
	for i, ex := range r.exs {
		if st := ex.Stats(); st.Evals != 1 || st.CacheEntries != 1 {
			t.Fatalf("shard %d: a single-phase histogram left %d entries for %d evaluations", i, st.CacheEntries, st.Evals)
		}
	}
}
