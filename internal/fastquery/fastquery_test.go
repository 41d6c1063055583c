package fastquery

import (
	"context"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
)

// sharedDataset generates one small dataset for all tests in the package.
var (
	datasetOnce sync.Once
	datasetDir  string
	datasetErr  error
)

func testSource(t *testing.T) *Source {
	t.Helper()
	datasetOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fastquery-test-*")
		if err != nil {
			datasetErr = err
			return
		}
		cfg := sim.DefaultConfig()
		cfg.Steps = 6
		cfg.BackgroundPerStep = 3000
		cfg.BeamParticles = 60
		_, datasetErr = sim.WriteDataset(dir, cfg, sim.WriteOptions{
			Index: fastbit.IndexOptions{Bins: 64},
		})
		datasetDir = dir
	})
	if datasetErr != nil {
		t.Fatal(datasetErr)
	}
	src, err := Open(datasetDir)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestMain(m *testing.M) {
	code := m.Run()
	if datasetDir != "" {
		os.RemoveAll(datasetDir)
	}
	os.Exit(code)
}

func TestOpenAndMeta(t *testing.T) {
	src := testSource(t)
	if src.Steps() != 6 {
		t.Fatalf("Steps = %d", src.Steps())
	}
	vars := src.Variables()
	if len(vars) == 0 {
		t.Fatal("no variables")
	}
	if src.Dataset() == nil {
		t.Fatal("nil dataset")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestStepBasics(t *testing.T) {
	src := testSource(t)
	st, err := src.OpenStep(3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.T() != 3 {
		t.Fatalf("T = %d", st.T())
	}
	if st.Rows() == 0 {
		t.Fatal("no rows")
	}
	if !st.HasIndex() {
		t.Fatal("index not loaded")
	}
	col, err := st.ReadColumn("px")
	if err != nil || uint64(len(col)) != st.Rows() {
		t.Fatalf("ReadColumn: %d values, %v", len(col), err)
	}
	ids, err := st.ReadIDs()
	if err != nil || uint64(len(ids)) != st.Rows() {
		t.Fatalf("ReadIDs: %d values, %v", len(ids), err)
	}
	if _, err := src.OpenStep(99); err == nil {
		t.Fatal("bad step accepted")
	}
}

func TestBackendsAgreeOnSelect(t *testing.T) {
	src := testSource(t)
	st, err := src.OpenStep(5)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, q := range []string{
		"px > 1e9",
		"px > 1e9 && y > 0",
		"px > 5e10 || px < -2e8",
		"xrel > -5e-5 && px > 1e8",
	} {
		e := query.MustParse(q)
		fb, err := st.SelectCtx(context.Background(), e, FastBit, 0, st.Rows())
		if err != nil {
			t.Fatalf("%q fastbit: %v", q, err)
		}
		sc, err := st.SelectCtx(context.Background(), e, Scan, 0, st.Rows())
		if err != nil {
			t.Fatalf("%q scan: %v", q, err)
		}
		if len(fb) != len(sc) {
			t.Fatalf("%q: fastbit %d vs scan %d hits", q, len(fb), len(sc))
		}
		for i := range fb {
			if fb[i] != sc[i] {
				t.Fatalf("%q: hit %d differs", q, i)
			}
		}
	}
}

func TestBackendsAgreeOnCount(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(4)
	defer st.Close()
	e := query.MustParse("px > 1e9")
	a, err := st.CountCtx(context.Background(), e, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.CountCtx(context.Background(), e, Scan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("counts differ: %d vs %d", a, b)
	}
}

func TestBackendsAgreeOnSelectIDs(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(5)
	defer st.Close()
	e := query.MustParse("px > 5e10")
	a, err := st.SelectIDsCtx(context.Background(), e, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.SelectIDsCtx(context.Background(), e, Scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no beam particles selected; check sim thresholds")
	}
	if len(a) != len(b) {
		t.Fatalf("id counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBackendsAgreeOnFindIDs(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(5)
	defer st.Close()
	ids, err := st.SelectIDsCtx(context.Background(), query.MustParse("px > 5e10"), FastBit)
	if err != nil {
		t.Fatal(err)
	}
	search := append(ids[:10:10], -1, -2) // include misses
	a, err := st.FindIDsCtx(context.Background(), search, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.FindIDsCtx(context.Background(), search, Scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("FindIDs: %d / %d hits, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("FindIDs position %d differs", i)
		}
	}
}

func TestBackendsAgreeOnHistogram2D(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(5)
	defer st.Close()
	// Fixed ranges so both backends bin identically.
	lo, hi, err := st.MinMax(context.Background(), "px")
	if err != nil {
		t.Fatal(err)
	}
	xlo, xhi, err := st.MinMax(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	spec := histogram.NewSpec2D("x", "px", 24, 24).WithXRange(xlo, xhi).WithYRange(lo, hi)

	for _, cond := range []query.Expr{nil, query.MustParse("px > 1e9")} {
		a, err := st.Histogram2DCtx(context.Background(), cond, spec, FastBit)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.Histogram2DCtx(context.Background(), cond, spec, Scan)
		if err != nil {
			t.Fatal(err)
		}
		if a.Total() != b.Total() {
			t.Fatalf("totals differ: %d vs %d", a.Total(), b.Total())
		}
		for i := range a.Counts {
			if a.Counts[i] != b.Counts[i] {
				t.Fatalf("bin %d differs: %d vs %d", i, a.Counts[i], b.Counts[i])
			}
		}
	}
}

func TestBackendsAgreeOnAdaptiveHistogram(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(5)
	defer st.Close()
	lo, hi, _ := st.MinMax(context.Background(), "px")
	xlo, xhi, _ := st.MinMax(context.Background(), "x")
	spec := histogram.NewSpec2D("x", "px", 8, 8).
		WithBinning(histogram.Adaptive).WithXRange(xlo, xhi).WithYRange(lo, hi)
	a, err := st.Histogram2DCtx(context.Background(), nil, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Histogram2DCtx(context.Background(), nil, spec, Scan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.XEdges {
		if a.XEdges[i] != b.XEdges[i] {
			t.Fatalf("adaptive x edge %d differs: %g vs %g", i, a.XEdges[i], b.XEdges[i])
		}
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatalf("adaptive bin %d differs", i)
		}
	}
}

func TestBackendsAgreeOnHistogram1D(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(4)
	defer st.Close()
	lo, hi, _ := st.MinMax(context.Background(), "px")
	spec := histogram.Spec1D{Var: "px", Bins: 40, Lo: lo, Hi: hi}
	for _, cond := range []query.Expr{nil, query.MustParse("y > 0")} {
		a, err := st.Histogram1DCtx(context.Background(), cond, spec, FastBit)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.Histogram1DCtx(context.Background(), cond, spec, Scan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Counts {
			if a.Counts[i] != b.Counts[i] {
				t.Fatalf("1D bin %d differs: %d vs %d", i, a.Counts[i], b.Counts[i])
			}
		}
	}
}

func TestScanBackendWorksWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 500
	cfg.BeamParticles = 10
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.OpenStep(1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.HasIndex() {
		t.Fatal("index reported without index file")
	}
	if _, err := st.SelectCtx(context.Background(), query.MustParse("px > 0"), Scan, 0, st.Rows()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SelectCtx(context.Background(), query.MustParse("px > 0"), FastBit, 0, st.Rows()); err == nil {
		t.Fatal("FastBit backend worked without index")
	}
	if _, err := st.FindIDsCtx(context.Background(), []int64{1}, FastBit); err == nil {
		t.Fatal("FastBit FindIDs worked without index")
	}
	if _, err := st.Histogram2DCtx(context.Background(), nil, histogram.NewSpec2D("x", "px", 4, 4), FastBit); err == nil {
		t.Fatal("FastBit histogram worked without index")
	}
}

func TestUnknownBackend(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(0)
	defer st.Close()
	e := query.MustParse("px > 0")
	if _, err := st.SelectCtx(context.Background(), e, Backend(42), 0, st.Rows()); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := st.FindIDsCtx(context.Background(), []int64{1}, Backend(42)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := st.Histogram2DCtx(context.Background(), nil, histogram.NewSpec2D("x", "px", 4, 4), Backend(42)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := st.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("px", 4), Backend(42)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if Backend(42).String() == "" || FastBit.String() != "fastbit" || Scan.String() != "custom" {
		t.Fatal("Backend.String wrong")
	}
}

func TestIOBytesGrows(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(2)
	defer st.Close()
	before := st.IOBytes()
	if _, err := st.ReadColumn("px"); err != nil {
		t.Fatal(err)
	}
	if st.IOBytes() <= before {
		t.Fatal("IOBytes did not grow after a read")
	}
}

func TestMinMaxPrefersIndex(t *testing.T) {
	src := testSource(t)
	st, _ := src.OpenStep(2)
	defer st.Close()
	before := st.IOBytes()
	lo, hi, err := st.MinMax(context.Background(), "px")
	if err != nil {
		t.Fatal(err)
	}
	if st.IOBytes() != before {
		t.Fatal("MinMax read data despite index")
	}
	if !(lo < hi) {
		t.Fatalf("MinMax = %g, %g", lo, hi)
	}
	if _, _, err := st.MinMax(context.Background(), "nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestIdentifiersAreExact: the tracking handoff (IDsAtCtx) and ID
// selection (SelectIDsCtx, both backends) refuse an identifier that is
// not an integer within ±colstore.MaxExactInt rather than truncate it
// into another particle's: a float64 id column holding 1.5 errors, it
// does not track particle 1.
func TestIdentifiersAreExact(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		id float64
		ok bool
	}{
		{7, true},
		{-3, true},
		{colstore.MaxExactInt, true},
		{1.5, false},
		{-0.5, false},
		{colstore.MaxExactInt + 2, false},
		{math.Inf(1), false},
	} {
		px := []float64{0, 1, 2, 3}
		st := writeStep(t, map[string][]float64{"px": px, "id": {1, c.id, 2, 3}},
			map[string][]float64{"px": px}, fastbit.IndexOptions{Bins: 2})
		ids, err := st.IDsAtCtx(ctx, []uint64{0, 1})
		if (err == nil) != c.ok || (c.ok && (len(ids) != 2 || float64(ids[1]) != c.id)) {
			t.Errorf("IDsAtCtx over id %g: %v, %v", c.id, ids, err)
		}
		for _, b := range []Backend{FastBit, Scan} {
			ids, err := st.SelectIDsCtx(ctx, query.MustParse("px > 0.5 && px < 1.5"), b)
			if (err == nil) != c.ok || (c.ok && (len(ids) != 1 || float64(ids[0]) != c.id)) {
				t.Errorf("%v SelectIDsCtx over id %g: %v, %v", b, c.id, ids, err)
			}
		}
	}
}
