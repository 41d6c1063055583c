package fastquery

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/scan"
)

// writeStep writes the data columns to a multi-chunk step file, indexes
// the indexed columns (which need not be in the data), and opens both.
func writeStep(t *testing.T, data, indexed map[string][]float64, opt fastbit.IndexOptions) *Step {
	t.Helper()
	dir := t.TempDir()
	dataPath, indexPath := filepath.Join(dir, "step.col"), filepath.Join(dir, "step.idx")
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	w, err := colstore.NewWriter(dataPath, uint64(len(data[names[0]])), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := w.AddFloat64(name, data[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	si, err := fastbit.BuildStepIndex(indexed, nil, "", opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.WriteFile(indexPath); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := fastbit.OpenLazy(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	st := &Step{file: f, index: ls}
	t.Cleanup(func() { st.Close() })
	return st
}

// histStep writes an indexed step of n rows with a momentum-like column px
// (a 3 % accelerated tail above 1e9) and position-like columns x and y,
// returning it with its columns, the scan reference's input.
func histStep(t *testing.T, n int, seed int64, opt fastbit.IndexOptions) (*Step, scan.Columns) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	px := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range px {
		if rng.Float64() < 0.03 {
			px[i] = math.Pow(10, 9+rng.Float64()*2)
		} else {
			px[i] = rng.NormFloat64() * 1e8
		}
		x[i] = rng.Float64() * 1e-3
		y[i] = rng.NormFloat64() * 1e-5
	}
	cols := map[string][]float64{"px": px, "x": x, "y": y}
	return writeStep(t, cols, cols, opt), scan.Columns(cols)
}

func TestUnconditionalHistogram2DMatchesScan(t *testing.T) {
	st, cols := histStep(t, 6000, 31, fastbit.IndexOptions{Bins: 64})
	spec := histogram.NewSpec2D("x", "px", 32, 32)
	got, err := st.Histogram2DCtx(context.Background(), nil, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.ConditionalHistogram2DCtx(context.Background(), cols, "x", "px", nil, got.XEdges, got.YEdges)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != want.Total() || got.Total() != 6000 {
		t.Fatalf("totals: fastbit %d scan %d", got.Total(), want.Total())
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

func TestConditionalHistogram2DMatchesScan(t *testing.T) {
	st, cols := histStep(t, 6000, 32, fastbit.IndexOptions{Bins: 64})
	cond := query.MustParse("px > 1e9")
	spec := histogram.NewSpec2D("x", "px", 16, 16).WithXRange(0, 1e-3).WithYRange(1e9, 1e11)
	got, err := st.Histogram2DCtx(context.Background(), cond, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.ConditionalHistogram2DCtx(context.Background(), cols, "x", "px", cond, got.XEdges, got.YEdges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
	if got.Total() == 0 {
		t.Fatal("conditional histogram empty — test data has no accelerated tail?")
	}
}

func TestConditionalHistogramDerivedRange(t *testing.T) {
	st, _ := histStep(t, 4000, 33, fastbit.IndexOptions{Bins: 32})
	cond := query.MustParse("px > 1e9")
	spec := histogram.NewSpec2D("x", "px", 8, 8) // ranges derived from selection
	h, err := st.Histogram2DCtx(context.Background(), cond, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := st.CountCtx(context.Background(), cond, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	// Derived ranges cover the selected values exactly, so no mass is lost.
	if h.Total() != cnt {
		t.Fatalf("histogram total %d != selection count %d", h.Total(), cnt)
	}
	if h.YEdges[0] <= 1e9 {
		// The derived Y range must come from the selected values only.
		t.Fatalf("derived y range starts at %g, expected above threshold", h.YEdges[0])
	}
}

func TestAdaptiveHistogram2D(t *testing.T) {
	st, _ := histStep(t, 8000, 34, fastbit.IndexOptions{Bins: 64})
	spec := histogram.NewSpec2D("x", "px", 16, 16).WithBinning(histogram.Adaptive)
	h, err := st.Histogram2DCtx(context.Background(), nil, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 8000 {
		t.Fatalf("adaptive histogram total %d", h.Total())
	}
	// Equal-weight property along each axis (marginals roughly balanced).
	mx := make([]uint64, h.XBins())
	h.NonEmpty(func(ix, _ int, c uint64) { mx[ix] += c })
	target := float64(h.Total()) / float64(len(mx))
	for i, c := range mx {
		if float64(c) > 4*target {
			t.Errorf("adaptive x bin %d holds %d, target %.0f", i, c, target)
		}
	}
	// Edges strictly increasing, non-uniform in general.
	for i := 1; i < len(h.XEdges); i++ {
		if !(h.XEdges[i] > h.XEdges[i-1]) {
			t.Fatal("adaptive x edges not increasing")
		}
	}
}

func TestHistogram1DFromIndexCounts(t *testing.T) {
	st, cols := histStep(t, 5000, 35, fastbit.IndexOptions{Bins: 32})
	spec := histogram.NewSpec1D("px", 32) // matches index bins exactly
	before := st.IOBytes()
	h, err := st.Histogram1DCtx(context.Background(), nil, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if st.IOBytes() != before {
		t.Fatal("a bin-aligned unconditional histogram read the data file")
	}
	want, err := scan.Histogram1DCtx(context.Background(), cols, "px", nil, h.Edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Counts {
		if h.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, h.Counts[i], want.Counts[i])
		}
	}
	if h.Total() != 5000 {
		t.Fatalf("total %d", h.Total())
	}
	// The index's counts are the answer the scan derives for itself.
	if s, err := st.Histogram1DCtx(context.Background(), nil, spec, Scan); err != nil || !reflect.DeepEqual(s, h) {
		t.Fatalf("scan answer %+v (%v) differs from the index counts", s, err)
	}
}

func TestHistogram1DConditionalAndAdaptive(t *testing.T) {
	st, cols := histStep(t, 5000, 36, fastbit.IndexOptions{Bins: 32})
	cond := query.MustParse("px > 0")
	_, pxMax := scan.MinMax(cols["px"])
	spec := histogram.Spec1D{Var: "px", Bins: 10, Binning: histogram.Adaptive, Lo: 0, Hi: pxMax}
	h, err := st.Histogram1DCtx(context.Background(), cond, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	cnt, _ := st.CountCtx(context.Background(), cond, FastBit)
	// Values equal to 0 are excluded by the condition but lie on the low
	// edge; totals must still match the selection size.
	if h.Total() != cnt {
		t.Fatalf("1D conditional total %d != count %d", h.Total(), cnt)
	}
	// Unknown variable errors.
	if _, err := st.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("zz", 8), FastBit); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

// TestHistogramRequiresRawReader: only the bin-aligned unconditional 1D
// histogram comes from the index alone; every other histogram gathers raw
// values, so a variable the index holds but the data file lacks fails.
func TestHistogramRequiresRawReader(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x, w := make([]float64, 100), make([]float64, 100)
	for i := range x {
		x[i], w[i] = rng.Float64(), rng.NormFloat64()
	}
	st := writeStep(t, map[string][]float64{"x": x},
		map[string][]float64{"x": x, "w": w}, fastbit.IndexOptions{Bins: 8})
	if _, err := st.Histogram2DCtx(context.Background(), nil, histogram.NewSpec2D("x", "w", 4, 4), FastBit); err == nil {
		t.Fatal("2D histogram without the raw column accepted")
	}
	if _, err := st.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("w", 4), FastBit); err == nil {
		t.Fatal("1D histogram without the raw column accepted")
	}
	if h, err := st.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("w", 8), FastBit); err != nil || h.Total() != 100 {
		t.Fatalf("bin-aligned histogram from the index: %+v, %v", h, err)
	}
}
