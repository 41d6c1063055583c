package repro

// Benchmark harness: one benchmark family per figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md
// calls out. `figures serial` and `figures scale` produce the
// paper-formatted tables; these testing.B benchmarks regenerate the same
// measurements under `go test -bench`. The rendering figures (2, 3/4)
// are benchmarked beside the driver that draws them, in cmd/figures.
//
// The shared dataset is generated once per process into a temp directory
// (generation time is not benchmarked).

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/cluster"
	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
)

const (
	benchSteps     = 6
	benchParticles = 120000
	benchBeam      = 400
)

var (
	benchOnce sync.Once
	benchDir  string
	benchErr  error
)

func benchDataset(b *testing.B) string {
	b.Helper()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-bench-*")
		if err != nil {
			benchErr = err
			return
		}
		cfg := sim.DefaultConfig()
		cfg.Steps = benchSteps
		cfg.BackgroundPerStep = benchParticles
		cfg.BeamParticles = benchBeam
		if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{
			Index: fastbit.IndexOptions{Bins: 256},
		}); err != nil {
			benchErr = err
			return
		}
		benchDir = dir
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func benchStep(b *testing.B) *fastquery.Step {
	b.Helper()
	src, err := fastquery.Open(benchDataset(b))
	if err != nil {
		b.Fatal(err)
	}
	st, err := src.OpenStep(benchSteps / 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// --- Fig. 11: unconditional 2D histograms vs bin count ---------------------

func BenchmarkFig11UnconditionalHistogram(b *testing.B) {
	st := benchStep(b)
	for _, bins := range []int{32, 256, 1024} {
		for _, variant := range []struct {
			name    string
			binning histogram.Binning
			backend fastquery.Backend
		}{
			{"FastBitRegular", histogram.Uniform, fastquery.FastBit},
			{"FastBitAdaptive", histogram.Adaptive, fastquery.FastBit},
			{"CustomRegular", histogram.Uniform, fastquery.Scan},
		} {
			b.Run(fmt.Sprintf("%s/bins=%d", variant.name, bins), func(b *testing.B) {
				spec := histogram.NewSpec2D("x", "px", bins, bins).WithBinning(variant.binning)
				for i := 0; i < b.N; i++ {
					if _, err := st.Histogram2DCtx(context.Background(), nil, spec, variant.backend); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 12: conditional 2D histograms vs hit count ------------------------

// benchThresholds returns px thresholds for approximate hit-count targets.
func benchThresholds(b *testing.B, st *fastquery.Step, targets []int) map[int]float64 {
	b.Helper()
	px, err := st.ReadColumn("px")
	if err != nil {
		b.Fatal(err)
	}
	sorted := append([]float64(nil), px...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	out := map[int]float64{}
	for _, k := range targets {
		if k > 0 && k < len(sorted) {
			out[k] = (sorted[k-1] + sorted[k]) / 2
		}
	}
	return out
}

func BenchmarkFig12ConditionalHistogram(b *testing.B) {
	st := benchStep(b)
	thresholds := benchThresholds(b, st, []int{100, 10000, int(st.Rows()) * 3 / 4})
	keys := make([]int, 0, len(thresholds))
	for k := range thresholds {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, hits := range keys {
		cond := &query.Compare{Var: "px", Op: query.GT, Value: thresholds[hits]}
		for _, variant := range []struct {
			name    string
			binning histogram.Binning
			backend fastquery.Backend
		}{
			{"FastBitRegular", histogram.Uniform, fastquery.FastBit},
			{"FastBitAdaptive", histogram.Adaptive, fastquery.FastBit},
			{"CustomRegular", histogram.Uniform, fastquery.Scan},
		} {
			b.Run(fmt.Sprintf("%s/hits=%d", variant.name, hits), func(b *testing.B) {
				spec := histogram.NewSpec2D("x", "px", 1024, 1024).WithBinning(variant.binning)
				for i := 0; i < b.N; i++ {
					if _, err := st.Histogram2DCtx(context.Background(), cond, spec, variant.backend); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 13: identifier queries vs search-set size -------------------------

func BenchmarkFig13IDQuery(b *testing.B) {
	st := benchStep(b)
	all, err := st.ReadIDs()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{10, 1000, 100000} {
		if size > len(all) {
			continue
		}
		set := make([]int64, size)
		for i := range set {
			set[i] = all[rng.Intn(len(all))]
		}
		for _, variant := range []struct {
			name    string
			backend fastquery.Backend
		}{
			{"FastBit", fastquery.FastBit},
			{"Custom", fastquery.Scan},
		} {
			b.Run(fmt.Sprintf("%s/set=%d", variant.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := st.FindIDsCtx(context.Background(), set, variant.backend); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figs. 14/15: parallel histogram computation ----------------------------

func BenchmarkFig14ParallelHistograms(b *testing.B) {
	dir := benchDataset(b)
	src, err := fastquery.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	st, err := src.OpenStep(benchSteps - 1)
	if err != nil {
		b.Fatal(err)
	}
	_, hi, err := st.MinMax(context.Background(), "px")
	st.Close()
	if err != nil {
		b.Fatal(err)
	}
	cond := &query.Compare{Var: "px", Op: query.GT, Value: 0.6 * hi}

	makeTasks := func(c query.Expr, backend fastquery.Backend) []cluster.Task {
		tasks := make([]cluster.Task, src.Steps())
		for t := 0; t < src.Steps(); t++ {
			t := t
			tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
				step, err := src.OpenStep(t)
				if err != nil {
					return 0, 0, err
				}
				defer step.Close()
				spec := histogram.NewSpec2D("x", "px", 1024, 1024)
				if _, err := step.Histogram2DCtx(context.Background(), c, spec, backend); err != nil {
					return 0, 0, err
				}
				return step.IOBytes(), 2, nil
			}}
		}
		return tasks
	}
	workers := runtime.GOMAXPROCS(0)
	for _, variant := range []struct {
		name    string
		cond    query.Expr
		backend fastquery.Backend
	}{
		{"FastBitUncond", nil, fastquery.FastBit},
		{"CustomUncond", nil, fastquery.Scan},
		{"FastBitCond", cond, fastquery.FastBit},
		{"CustomCond", cond, fastquery.Scan},
	} {
		b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Run(makeTasks(variant.cond, variant.backend), workers, cluster.IOModel{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs. 16/17: parallel particle tracking --------------------------------

// The paper's tracking task: locate one identifier set in every timestep.
func BenchmarkFig16ParallelTracking(b *testing.B) {
	src, err := fastquery.Open(benchDataset(b))
	if err != nil {
		b.Fatal(err)
	}
	last, err := src.OpenStep(benchSteps - 1)
	if err != nil {
		b.Fatal(err)
	}
	_, hi, err := last.MinMax(context.Background(), "px")
	if err != nil {
		b.Fatal(err)
	}
	ids, err := last.SelectIDsCtx(context.Background(), &query.Compare{Var: "px", Op: query.GT, Value: 0.75 * hi}, fastquery.FastBit)
	last.Close()
	if err != nil {
		b.Fatal(err)
	}
	if len(ids) == 0 {
		b.Fatal("no particles selected")
	}
	makeTasks := func(backend fastquery.Backend) []cluster.Task {
		tasks := make([]cluster.Task, src.Steps())
		for t := range tasks {
			t := t
			tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
				step, err := src.OpenStep(t)
				if err != nil {
					return 0, 0, err
				}
				defer step.Close()
				if _, err := step.FindIDsCtx(context.Background(), ids, backend); err != nil {
					return 0, 0, err
				}
				return step.IOBytes(), 1, nil
			}}
		}
		return tasks
	}
	workers := runtime.GOMAXPROCS(0)
	for _, variant := range []struct {
		name    string
		backend fastquery.Backend
	}{
		{"FastBit", fastquery.FastBit},
		{"Custom", fastquery.Scan},
	} {
		b.Run(fmt.Sprintf("%s/ids=%d/workers=%d", variant.name, len(ids), workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Run(makeTasks(variant.backend), workers, cluster.IOModel{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Preprocessing: index construction and (de)serialization -----------------

// The paper notes FastBit indices "can be constructed much faster than
// others" (Section II-B); this benchmark measures our builder's
// throughput, plus the sidecar file round trip.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := 500000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e9
	}
	for _, opt := range []struct {
		name string
		o    fastbit.IndexOptions
	}{
		{"Uniform256", fastbit.IndexOptions{Bins: 256}},
		{"Uniform2048", fastbit.IndexOptions{Bins: 2048}},
		{"Precision2", fastbit.IndexOptions{Precision: 2}},
	} {
		b.Run(opt.name, func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				if _, err := fastbit.BuildIndex("v", vals, opt.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("IDIndex", func(b *testing.B) {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = rng.Int63n(1 << 40)
		}
		b.SetBytes(int64(8 * n))
		for i := 0; i < b.N; i++ {
			fastbit.BuildIDIndex(ids)
		}
	})
}

func BenchmarkIndexSerialization(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 200000
	cols := map[string][]float64{}
	for _, name := range []string{"x", "px"} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		cols[name] = vals
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	si, err := fastbit.BuildStepIndex(cols, ids, "id", fastbit.IndexOptions{Bins: 256})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("Write", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if _, err := si.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Read", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "step.idx")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			ls, err := fastbit.OpenLazy(path)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range ls.Columns() {
				if _, err := ls.Column(name); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ls.IDIndex(); err != nil {
				b.Fatal(err)
			}
			ls.Close()
		}
	})
}

// --- Ablation: WAH compression vs uncompressed bit sets ----------------------

func BenchmarkAblationWAH(b *testing.B) {
	// Sparse clustered bitmaps: the index workload WAH targets.
	const n = 1 << 22
	mkVec := func(seed int64) *bitmap.Vector {
		rng := rand.New(rand.NewSource(seed))
		v := bitmap.New(n)
		at := uint64(0)
		for at < n {
			run := uint64(rng.Intn(4096) + 1)
			if at+run > n {
				run = n - at
			}
			v.AppendRun(rng.Intn(8) == 0, run)
			at += run
		}
		return v
	}
	va, vb := mkVec(1), mkVec(2)
	sa, sb := bitmap.NewBitSet(n), bitmap.NewBitSet(n)
	va.OrInto(sa, 0, n)
	vb.OrInto(sb, 0, n)

	b.Run("WAH/And", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			va.And(vb)
		}
	})
	b.Run("BitSet/And", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.And(sb)
		}
	})
	b.Run("WAH/Count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			va.Count()
		}
	})
	b.Run("BitSet/Count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.Count()
		}
	})
	b.ReportMetric(float64(va.SizeBytes()), "wah-bytes")
	b.ReportMetric(float64(sa.SizeBytes()), "bitset-bytes")
}

// --- Ablation: index bin count ----------------------------------------------

func BenchmarkAblationBinning(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 200000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e9
	}
	raw := func(pos []uint64) ([]float64, error) {
		out := make([]float64, len(pos))
		for i, p := range pos {
			out[i] = vals[p]
		}
		return out, nil
	}
	for _, bins := range []int{16, 256, 2048} {
		ix, err := fastbit.BuildIndex("v", vals, fastbit.IndexOptions{Bins: bins})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			iv := query.Interval{Lo: 1.2345e9, Hi: 2.3456e9}
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.EvaluateCtx(context.Background(), iv, fastbit.Gathered(raw), 0, ix.N); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: precision binning answers low-precision queries index-only ----

func BenchmarkAblationPrecision(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 200000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e9
	}
	raw := func(pos []uint64) ([]float64, error) {
		out := make([]float64, len(pos))
		for i, p := range pos {
			out[i] = vals[p]
		}
		return out, nil
	}
	uniform, err := fastbit.BuildIndex("v", vals, fastbit.IndexOptions{Bins: 256})
	if err != nil {
		b.Fatal(err)
	}
	precise, err := fastbit.BuildIndex("v", vals, fastbit.IndexOptions{Precision: 2})
	if err != nil {
		b.Fatal(err)
	}
	iv := query.Interval{Lo: 2.5e8, Hi: 1.5e9} // 2-digit constants
	// The headline property is the candidate-check count: precision bins
	// answer low-precision queries from the index alone (checks = 0),
	// which is what matters when the raw data lives on disk rather than
	// in this benchmark's in-memory reader.
	b.Run("UniformBins", func(b *testing.B) {
		var checks uint64
		for i := 0; i < b.N; i++ {
			_, st, err := uniform.EvaluateCtx(context.Background(), iv, fastbit.Gathered(raw), 0, uniform.N)
			if err != nil {
				b.Fatal(err)
			}
			checks = st.CandidateChecks
		}
		b.ReportMetric(float64(checks), "candidate-checks")
	})
	b.Run("PrecisionBins", func(b *testing.B) {
		var checks uint64
		for i := 0; i < b.N; i++ {
			_, st, err := precise.EvaluateCtx(context.Background(), iv, fastbit.Gathered(raw), 0, precise.N)
			if err != nil {
				b.Fatal(err)
			}
			checks = st.CandidateChecks
		}
		b.ReportMetric(float64(checks), "candidate-checks")
	})
}

// --- Ablation: exact (per-distinct-value) vs binned index on categorical data

func BenchmarkAblationExactIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	n := 500000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(8)) // 8 categories
	}
	raw := func(pos []uint64) ([]float64, error) {
		out := make([]float64, len(pos))
		for i, p := range pos {
			out[i] = vals[p]
		}
		return out, nil
	}
	exact, err := fastbit.BuildIndex("cat", vals, fastbit.IndexOptions{Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	binned, err := fastbit.BuildIndex("cat", vals, fastbit.IndexOptions{Bins: 4})
	if err != nil {
		b.Fatal(err)
	}
	iv := query.Interval{Lo: 3, Hi: 3} // equality on one category
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := exact.EvaluateCtx(context.Background(), iv, fastbit.Gathered(raw), 0, exact.N); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Binned4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := binned.EvaluateCtx(context.Background(), iv, fastbit.Gathered(raw), 0, binned.N); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: two-step gather-then-bin vs bitmap AND-count histograms -------

func BenchmarkAblationHistogramStrategy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 200000
	px := make([]float64, n)
	y := make([]float64, n)
	for i := range px {
		px[i] = rng.NormFloat64() * 1e9
		y[i] = rng.NormFloat64()
	}
	si, err := fastbit.BuildStepIndex(map[string][]float64{"px": px, "y": y}, nil, "", fastbit.IndexOptions{Bins: 256})
	if err != nil {
		b.Fatal(err)
	}
	mem := fastbit.MemReader{"px": px, "y": y}
	ev := si.Evaluator(mem)
	for _, sel := range []struct {
		name string
		cond string
	}{
		{"Selective", "y > 2.5"},   // few hits: gather wins
		{"Unselective", "y > -10"}, // nearly all hits: bitmap counting wins
	} {
		cond := query.MustParse(sel.cond)
		b.Run("TwoStepGather/"+sel.name, func(b *testing.B) {
			// Select the matching rows, gather their values, bin them.
			edges := histogram.UniformEdges(si.Columns["px"].Min(), si.Columns["px"].Max(), 256)
			for i := 0; i < b.N; i++ {
				pos, err := ev.SelectCtx(context.Background(), cond, 0, ev.N)
				if err != nil {
					b.Fatal(err)
				}
				vs, err := mem.ValuesAt("px", pos)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := histogram.Compute1D("px", vs, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("BitmapCount/"+sel.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.Histogram1DFromBitmapsCtx(context.Background(), cond, "px"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: strided vs blocked timestep assignment ------------------------

func BenchmarkAblationAssignment(b *testing.B) {
	// Tasks with a linear duration ramp (later timesteps cost more, as
	// particle counts grow): strided spreads the expensive tail across
	// nodes, blocked piles it onto the last node.
	results := make([]cluster.Result, 100)
	for i := range results {
		results[i].Wall = time.Duration(i+1) * 100 * time.Microsecond
	}
	for _, variant := range []struct {
		name   string
		assign func(nTasks, nodes int) cluster.Assignment
	}{
		{"Strided", cluster.Strided},
		{"Blocked", cluster.Blocked},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				pts := cluster.StrongScaling(results, []int{10}, variant.assign)
				worst = pts[0].Speedup
			}
			b.ReportMetric(worst, "speedup@10nodes")
		})
	}
}
