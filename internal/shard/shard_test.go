// Merge-identity property tests: a scatter over any shard split must
// produce byte-identical answers to the single-process plan, for every
// routing path (direct scatter, the min/max phase, the adaptive fine
// phase) and both backends. This is the core correctness contract of the sharded tier —
// shard boundaries are invisible in results.
package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/sim"
)

// testChunkRows is the chunk size of the test dataset: a few chunks a
// column, whatever colstore.DefaultChunkRows is, so that shard windows
// split chunks.
const testChunkRows = 1 << 10

var (
	datasetOnce sync.Once
	datasetDir  string
	datasetErr  error
)

func testDataDir(t *testing.T) string {
	t.Helper()
	datasetOnce.Do(func() {
		dir, err := os.MkdirTemp("", "shard-test-*")
		if err != nil {
			datasetErr = err
			return
		}
		cfg := sim.DefaultConfig()
		cfg.Steps = 3
		cfg.BackgroundPerStep = 2500
		cfg.BeamParticles = 50
		_, datasetErr = sim.WriteDataset(dir, cfg, sim.WriteOptions{
			ChunkRows: testChunkRows,
			Index:     fastbit.IndexOptions{Bins: 64},
		})
		datasetDir = dir
	})
	if datasetErr != nil {
		t.Fatal(datasetErr)
	}
	return datasetDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if datasetDir != "" {
		os.RemoveAll(datasetDir)
	}
	os.Exit(code)
}

func testExecutor(t *testing.T) *shard.Executor {
	t.Helper()
	ex := shard.NewExecutor(shard.FragCacheBytes)
	if err := ex.AddDataset("lwfa", testDataDir(t)); err != nil {
		ex.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Close() })
	return ex
}

// runFragment evaluates f on ex as the shard service does.
func runFragment(ctx context.Context, ex *shard.Executor, f plan.Fragment) (*plan.FragmentResult, error) {
	res, _, err := ex.RunCached(ctx, f)
	return res, err
}

// execRunner adapts an Executor into a plan.Runner: every "shard" is the
// same local executor, so results differ from single-process evaluation
// only through the planner's scatter/merge — exactly what these tests
// isolate.
type execRunner struct{ ex *shard.Executor }

func (r execRunner) RunFragment(ctx context.Context, _ int, f plan.Fragment) (*plan.FragmentResult, error) {
	return runFragment(ctx, r.ex, f)
}

// canonical parses and canonicalizes query text the way the serve layer
// does before planning.
func canonical(t *testing.T, src string) string {
	t.Helper()
	expr, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return query.Canonical(expr).String()
}

// pxMedian finds a threshold that splits the px column, so conditional
// queries select a nontrivial subset.
func pxMedian(t *testing.T) float64 {
	t.Helper()
	src, err := fastquery.Open(testDataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := src.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := st.ReadColumn("px")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo + 0.5*(hi-lo)
}

func TestScatterIdentity(t *testing.T) {
	thresh := pxMedian(t)
	cond := canonical(t, fmt.Sprintf("px > %g", thresh))

	spec1 := func(bins int, lo, hi float64) histogram.Spec1D {
		s := histogram.NewSpec1D("x", bins)
		s.Lo, s.Hi = lo, hi
		return s
	}

	type qcase struct {
		name string
		q    plan.Query
	}
	mkCases := func(backend fastquery.Backend) []qcase {
		adaptive := histogram.NewSpec1D("x", 16)
		adaptive.Binning = histogram.Adaptive
		adaptive2d := histogram.NewSpec2D("x", "px", 6, 10).WithBinning(histogram.Adaptive)
		ranged2d := histogram.NewSpec2D("x", "px", 8, 8).WithXRange(-1, 1).WithYRange(-0.5, 0.5)
		return []qcase{
			{"count-cond", plan.Query{Op: plan.OpCount, Query: cond, Backend: backend}},
			{"count-uncond", plan.Query{Op: plan.OpCount, Backend: backend}},
			{"hist1d-explicit-range", plan.Query{Op: plan.OpHist1D, Query: cond, Backend: backend,
				Spec1: spec1(32, -2, 2)}},
			{"hist1d-cond-no-range", plan.Query{Op: plan.OpHist1D, Query: cond, Backend: backend,
				Spec1: histogram.NewSpec1D("x", 24)}},
			{"hist1d-uncond", plan.Query{Op: plan.OpHist1D, Backend: backend,
				Spec1: histogram.NewSpec1D("x", 16)}},
			{"hist1d-adaptive", plan.Query{Op: plan.OpHist1D, Query: cond, Backend: backend,
				Spec1: adaptive}},
			{"hist2d-cond-no-range", plan.Query{Op: plan.OpHist2D, Query: cond, Backend: backend,
				Spec2: histogram.NewSpec2D("x", "px", 12, 12)}},
			{"hist2d-explicit-range", plan.Query{Op: plan.OpHist2D, Query: cond, Backend: backend,
				Spec2: ranged2d}},
			{"hist1d-adaptive-uncond", plan.Query{Op: plan.OpHist1D, Backend: backend, Spec1: adaptive}},
			{"hist2d-adaptive", plan.Query{Op: plan.OpHist2D, Query: cond, Backend: backend, Spec2: adaptive2d}},
			{"hist2d-uncond-no-range", plan.Query{Op: plan.OpHist2D, Backend: backend,
				Spec2: histogram.NewSpec2D("x", "px", 12, 12)}},
		}
	}

	for _, backend := range []fastquery.Backend{fastquery.FastBit, fastquery.Scan} {
		for _, tc := range mkCases(backend) {
			tc := tc
			t.Run(fmt.Sprintf("%v/%s", backend, tc.name), func(t *testing.T) {
				for step := 0; step < 3; step++ {
					q := tc.q
					q.Dataset, q.Step = "lwfa", step

					// Fresh executor per topology so the fragment cache
					// cannot leak results between shard splits.
					base := testExecutor(t)
					src, err := fastquery.Open(testDataDir(t))
					if err != nil {
						t.Fatal(err)
					}
					st, err := src.OpenStep(step)
					if err != nil {
						src.Close()
						t.Fatal(err)
					}
					rows := st.Rows()
					src.Close()

					want, err := plan.Execute(context.Background(), q,
						plan.ShardMap{Shards: 1}, rows, execRunner{base}, plan.FailFast)
					if err != nil {
						t.Fatal(err)
					}

					for _, shards := range []int{2, 3, 5, 7, 8} {
						ex := testExecutor(t)
						got, err := plan.Execute(context.Background(), q,
							plan.ShardMap{Shards: shards}, rows, execRunner{ex}, plan.FailFast)
						if err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						if got.Partial {
							t.Fatalf("shards=%d: unexpected partial", shards)
						}
						if got.Count != want.Count {
							t.Fatalf("shards=%d step=%d: count %d != %d", shards, step, got.Count, want.Count)
						}
						if !reflect.DeepEqual(got.Hist1, want.Hist1) {
							t.Fatalf("shards=%d step=%d: hist1 mismatch\n got %+v\nwant %+v",
								shards, step, got.Hist1, want.Hist1)
						}
						if !reflect.DeepEqual(got.Hist2, want.Hist2) {
							t.Fatalf("shards=%d step=%d: hist2 mismatch", shards, step)
						}
					}
				}
			})
		}
	}
}

// TestAdaptiveEqualWeight is the equal-weight property of adaptive bins,
// in one process and scattered over 3 shards, on a seeded normal sample:
// every edge is an edge of the fine grid, AdaptiveRefine·bins uniform
// bins over the sample's range, and each bin holds at least its running
// target — what is left, divided evenly among the bins left — and less
// than that target plus the fine cell that closed it; the last bin holds
// what is left. That is all the greedy cut guarantees: the target drifts
// below N/bins by under one fine cell per bin left, so a bin can sit
// slightly more than one fine cell from N/bins (1.13 cells at 32 bins on
// a sample like this one).
func TestAdaptiveEqualWeight(t *testing.T) {
	const rows, bins = 100000, 32
	rng := rand.New(rand.NewSource(7))
	cols := map[string][]float64{"b": make([]float64, rows), "c": make([]float64, rows)}
	for range rows {
		cols["a"] = append(cols["a"], rng.NormFloat64())
	}
	dir := planDataset(t, cols, planIDs(rows, 0), 8192, 64)
	lo, hi := scan.MinMax(cols["a"])
	fineEdges := histogram.UniformEdges(lo, hi, bins*histogram.AdaptiveRefine)
	fine, err := histogram.Compute1D("a", cols["a"], fineEdges)
	if err != nil {
		t.Fatal(err)
	}
	spec := histogram.NewSpec1D("a", bins)
	spec.Binning = histogram.Adaptive
	for _, shards := range []int{1, 3} {
		ex := shard.NewExecutor(shard.FragCacheBytes)
		if err := ex.AddDataset("fuzz", dir); err != nil {
			t.Fatal(err)
		}
		res, err := plan.Execute(context.Background(), plan.Query{Op: plan.OpHist1D, Dataset: "fuzz",
			Backend: fastquery.Scan, Spec1: spec}, plan.ShardMap{Shards: shards}, rows, execRunner{ex}, plan.FailFast)
		ex.Close()
		if err != nil {
			t.Fatal(err)
		}
		h := res.Hist1
		if h.Bins() != bins || h.Total() != rows {
			t.Fatalf("%d shards: %d bins holding %d rows", shards, h.Bins(), h.Total())
		}
		left, cut := uint64(rows), 0
		for k, c := range h.Counts {
			next := slices.IndexFunc(fineEdges, func(e float64) bool { return math.Float64bits(e) == math.Float64bits(h.Edges[k+1]) })
			if next <= cut {
				t.Fatalf("%d shards: edge %d (%v) is not a later edge of the fine grid", shards, k+1, h.Edges[k+1])
			}
			target := left / uint64(bins-k)
			closer := fine.Counts[next-1]
			if k == bins-1 && c != left || k < bins-1 && (c < target || c >= target+closer) {
				t.Fatalf("%d shards: bin %d holds %d, target %d, closing fine cell %d", shards, k, c, target, closer)
			}
			left, cut = left-c, next
		}
	}
}

func TestExecutorCache(t *testing.T) {
	ex := testExecutor(t)
	f := plan.Fragment{
		Op: plan.FragCount, Dataset: "lwfa", Step: 0,
		Rows: plan.RowRange{Lo: 0, Hi: 100}, Backend: fastquery.Scan,
	}
	ctx := context.Background()
	first, err := runFragment(ctx, ex, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Peek(f); !ok {
		t.Fatal("fragment not cached after Run")
	}
	second, err := runFragment(ctx, ex, f)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("cached Run did not return the shared result")
	}
	st := ex.Stats()
	if st.CacheHits < 2 || st.Evals != 1 {
		t.Fatalf("stats = %+v, want >=2 hits and 1 eval", st)
	}

}

func TestUnknownDatasetFatal(t *testing.T) {
	ex := testExecutor(t)
	_, err := runFragment(context.Background(), ex, plan.Fragment{
		Op: plan.FragCount, Dataset: "nope", Backend: fastquery.Scan,
	})
	if err == nil || !fastquery.IsFatal(err) {
		t.Fatalf("unknown dataset err = %v, want fatal", err)
	}
}
