package main

import (
	"image/color"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
)

var (
	testOnce sync.Once
	testDir  string
	testErr  error
	testSim  *sim.Simulation
)

// testSource opens a small generated run shared by the package's tests
// and benchmarks.
func testSource(tb testing.TB) *fastquery.Source {
	tb.Helper()
	testOnce.Do(func() {
		dir, err := os.MkdirTemp("", "figures-test-*")
		if err != nil {
			testErr = err
			return
		}
		cfg := sim.DefaultConfig()
		cfg.Steps = 12
		cfg.BackgroundPerStep = 2500
		cfg.BeamParticles = 80
		if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{
			Index: fastbit.IndexOptions{Bins: 48},
		}); err != nil {
			testErr = err
			return
		}
		testSim, testErr = sim.New(cfg)
		testDir = dir
	})
	if testErr != nil {
		tb.Fatal(testErr)
	}
	src, err := fastquery.Open(testDir)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testDir != "" {
		os.RemoveAll(testDir)
	}
	os.Exit(code)
}

// beamIDs selects the accelerated particles at step t.
func beamIDs(t *testing.T, src *fastquery.Source, step int, q string) []int64 {
	t.Helper()
	var ids []int64
	err := withStep(src, step, func(st *fastquery.Step) error {
		var err error
		ids, err = st.SelectIDs(query.MustParse(q), fastquery.FastBit)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// countPixels counts canvas pixels matching pred.
func countPixels(c interface {
	Size() (int, int)
	At(x, y int) color.RGBA
}, pred func(color.RGBA) bool) int {
	var n int
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if pred(c.At(x, y)) {
				n++
			}
		}
	}
	return n
}

func TestHitTargets(t *testing.T) {
	got := hitTargets(100000)
	// Decades 10..10000 plus half and 90% marks.
	want := []uint64{10, 100, 1000, 10000, 50000, 90000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hitTargets = %v, want %v", got, want)
	}
}

func TestParseNodes(t *testing.T) {
	got, err := parseNodes("1,2, 5 ,100")
	if err != nil || len(got) != 4 || got[3] != 100 {
		t.Fatalf("parseNodes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "x", "1,,x"} {
		if _, err := parseNodes(bad); err == nil {
			t.Fatalf("parseNodes(%q) accepted", bad)
		}
	}
}

func TestHistPairs(t *testing.T) {
	specs := histPairs(64)
	if len(specs) != 5 {
		t.Fatalf("histPairs = %d specs", len(specs))
	}
	for _, s := range specs {
		if s.XBins != 64 || s.YBins != 64 {
			t.Fatalf("spec bins = %d x %d", s.XBins, s.YBins)
		}
	}
}

func TestSubsample(t *testing.T) {
	vs := []float64{0, 1, 2, 3, 4, 5, 6}
	got := subsample(vs, 3)
	if len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 6 {
		t.Fatalf("subsample = %v", got)
	}
	if sub := subsample(vs, 1); len(sub) != len(vs) {
		t.Fatal("stride 1 must be identity")
	}
}

func TestVarRangeAndGlobalRange(t *testing.T) {
	src := testSource(t)
	lo, hi, err := varRange(src, 3, "x")
	if err != nil || !(hi > lo) {
		t.Fatalf("varRange: %g %g %v", lo, hi, err)
	}
	glo, ghi, err := globalRange(src, "x", []int{1, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if glo > lo || ghi < hi {
		t.Fatalf("global range [%g,%g] does not contain step range [%g,%g]", glo, ghi, lo, hi)
	}
	if _, _, err := globalRange(src, "x", nil); err == nil {
		t.Fatal("empty step list accepted")
	}
	if _, _, err := globalRange(src, "nope", []int{1}); err == nil {
		t.Fatal("unknown var accepted")
	}
}

// TestOpenAndMeta: the driver opens a generated run through fastquery
// and sees its steps and variables; -backend names map to the two
// backends, and a directory holding no run is refused.
func TestOpenAndMeta(t *testing.T) {
	src := testSource(t)
	if src.Steps() != 12 {
		t.Fatalf("Steps = %d", src.Steps())
	}
	if len(src.Variables()) == 0 {
		t.Fatal("no variables")
	}
	for name, want := range map[string]fastquery.Backend{
		"fastbit": fastquery.FastBit, "custom": fastquery.Scan, "scan": fastquery.Scan,
	} {
		if b, err := parseBackend(name); err != nil || b != want {
			t.Fatalf("parseBackend(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := parseBackend("nope"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := fastquery.Open(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestSelectAndRefine: a refinement ANDed onto a selection, as track
// -refine builds it, keeps a subset whose records satisfy both terms.
func TestSelectAndRefine(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	sel := query.MustParse("px > 5e10")
	ids, _, err := selectBeam(src, last, sel, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("beam selection empty")
	}
	refined := &query.And{Terms: []query.Expr{sel, query.MustParse("y > 0")}}
	vals, err := selectValues(src, last, refined, "y", "px")
	if err != nil {
		t.Fatal(err)
	}
	ys, pxs := vals[0], vals[1]
	if len(ys) > len(ids) {
		t.Fatalf("refinement grew: %d -> %d", len(ids), len(ys))
	}
	for i := range ys {
		if ys[i] <= 0 || pxs[i] <= 5e10 {
			t.Fatalf("refined record %d violates conditions (y=%g px=%g)", i, ys[i], pxs[i])
		}
	}
	if _, err := query.Parse("bad >"); err == nil {
		t.Fatal("bad refinement accepted")
	}
	if _, _, err := selectBeam(src, 99, sel, fastquery.FastBit); err == nil {
		t.Fatal("bad step accepted")
	}
}

// TestSelectByIDsAndAtStep: an identifier set selected at the last step
// and looked up at one earlier step finds only members of the set, each
// once and at that step; at t=0, before injection, the lookup finds none.
func TestSelectByIDsAndAtStep(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	ids := beamIDs(t, src, last, "px > 5e10")
	member := map[int64]bool{}
	for _, id := range ids {
		member[id] = true
	}
	early := testSim.InjectionStep() + 2
	tracks, err := trackIDs(src, ids, early, early, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) == 0 {
		t.Fatal("beam particles not found at earlier step")
	}
	if len(tracks) > len(ids) {
		t.Fatal("more particles found than searched")
	}
	for _, tr := range tracks {
		if !member[tr.ID] {
			t.Fatalf("found id %d not in search set", tr.ID)
		}
		if len(tr.Steps) != 1 || tr.Steps[0] != early {
			t.Fatalf("id %d found at steps %v, want [%d]", tr.ID, tr.Steps, early)
		}
	}
	err = withStep(src, 0, func(st *fastquery.Step) error {
		pos, err := st.FindIDs(ids, fastquery.FastBit)
		if err == nil && len(pos) != 0 {
			t.Fatalf("%d beam particles present at t=0", len(pos))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHistograms: the histograms the figures are drawn from — a
// conditional one counts a strict, non-empty part of the step, a 1D
// histogram counts what the 2D one does, and both backends agree.
func TestHistograms(t *testing.T) {
	src := testSource(t)
	spec2 := histogram.NewSpec2D("x", "px", 32, 32)
	cond := query.MustParse("px > 1e9")
	err := withStep(src, 5, func(st *fastquery.Step) error {
		h2, err := st.Histogram2D(nil, spec2, fastquery.FastBit)
		if err != nil {
			return err
		}
		if h2.Total() == 0 {
			t.Fatal("empty unconditional histogram")
		}
		hc, err := st.Histogram2D(cond, spec2, fastquery.FastBit)
		if err != nil {
			return err
		}
		if hc.Total() == 0 || hc.Total() >= h2.Total() {
			t.Fatalf("conditional total %d vs unconditional %d", hc.Total(), h2.Total())
		}
		hs, err := st.Histogram2D(cond, spec2, fastquery.Scan)
		if err != nil {
			return err
		}
		if hs.Total() != hc.Total() {
			t.Fatalf("scan total %d != fastbit total %d", hs.Total(), hc.Total())
		}
		h1, err := st.Histogram1D(nil, histogram.NewSpec1D("px", 64), fastquery.FastBit)
		if err != nil {
			return err
		}
		if h1.Total() != h2.Total() {
			t.Fatalf("1D total %d != 2D total %d", h1.Total(), h2.Total())
		}
		if _, err := st.Histogram2D(nil, histogram.NewSpec2D("x", "nope", 8, 8), fastquery.FastBit); err == nil {
			t.Fatal("unknown variable accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrackIDs: tracks come back sorted by identifier, each one only
// from the beam's injection on, with strictly increasing steps and x
// advancing with the moving window; an identifier set looked up at an
// earlier step finds only members of the set, and none before injection.
func TestTrackIDs(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	ids := beamIDs(t, src, last, "px > 5e10")
	if len(ids) > 30 {
		ids = ids[:30]
	}
	tracks, err := trackIDs(src, ids, 0, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != len(ids) {
		t.Fatalf("tracked %d of %d particles", len(tracks), len(ids))
	}
	member := map[int64]bool{}
	for _, id := range ids {
		member[id] = true
	}
	inj := testSim.InjectionStep()
	for _, tr := range tracks {
		n := len(tr.Steps)
		if n == 0 || !member[tr.ID] {
			t.Fatalf("id %d: %d steps, in set %v", tr.ID, n, member[tr.ID])
		}
		for _, vs := range [][]float64{tr.X, tr.Y, tr.Z, tr.Px, tr.Py, tr.Pz} {
			if len(vs) != n {
				t.Fatalf("id %d ragged track", tr.ID)
			}
		}
		if tr.Steps[0] < inj {
			t.Fatalf("id %d tracked at t=%d before injection %d", tr.ID, tr.Steps[0], inj)
		}
		for i := 1; i < n; i++ {
			if tr.Steps[i] <= tr.Steps[i-1] {
				t.Fatalf("id %d steps not increasing", tr.ID)
			}
			if tr.X[i] <= tr.X[i-1] {
				t.Fatalf("id %d x not advancing with window", tr.ID)
			}
		}
	}
	if !sort.SliceIsSorted(tracks, func(i, j int) bool { return tracks[i].ID < tracks[j].ID }) {
		t.Fatal("tracks not sorted by id")
	}
	// Before injection the beam ids are absent.
	if before, err := trackIDs(src, ids, 0, 0, fastquery.FastBit); err != nil || len(before) != 0 {
		t.Fatalf("%d beam particles present at t=0 (%v)", len(before), err)
	}
	// A reversed range is normalised; a range past the run is rejected.
	if _, err := trackIDs(src, ids[:1], last, 0, fastquery.FastBit); err != nil {
		t.Fatal(err)
	}
	if _, err := trackIDs(src, ids[:1], 0, 99, fastquery.FastBit); err == nil {
		t.Fatal("bad range accepted")
	}
}

// TestBackendsAgree: the scan baseline tracks exactly what the index does.
func TestBackendsAgree(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	ids := beamIDs(t, src, last, "px > 5e10 && y > 0")
	fb, err := trackIDs(src, ids, 0, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := trackIDs(src, ids, 0, last, fastquery.Scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) == 0 || !reflect.DeepEqual(fb, sc) {
		t.Fatalf("backends disagree: %d vs %d tracks", len(fb), len(sc))
	}
}

func TestBeamDephasingVisibleInTracks(t *testing.T) {
	src := testSource(t)
	last, peak := src.Steps()-1, testSim.PeakStep()
	ids := beamIDs(t, src, peak, "px > 8e10")
	if len(ids) == 0 {
		t.Skip("no particles above threshold at peak in this scaled run")
	}
	if len(ids) > 20 {
		ids = ids[:20]
	}
	tracks, err := trackIDs(src, ids, peak, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	// Mean px at the end must be lower than at the peak (dephasing).
	var sumPeak, sumLast float64
	var n int
	for _, tr := range tracks {
		if len(tr.Steps) < 2 {
			continue
		}
		sumPeak += tr.Px[0]
		sumLast += tr.Px[len(tr.Px)-1]
		n++
	}
	if n == 0 {
		t.Skip("no multi-step tracks")
	}
	if sumLast >= sumPeak {
		t.Fatalf("beam 1 did not decelerate after peak: %g -> %g", sumPeak/float64(n), sumLast/float64(n))
	}
}

func TestSelectionBeamQuality(t *testing.T) {
	src := testSource(t)
	cols, err := selectValues(src, testSim.PeakStep(), query.MustParse("px > 8e10"), "px", "py", "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols[0]) == 0 {
		t.Skip("no beam at peak in this scaled run")
	}
	q, err := stats.Beam(cols[0], cols[1], cols[2])
	if err != nil {
		t.Fatal(err)
	}
	if q.N != len(cols[0]) || q.MeanPx <= 8e10 || q.EnergySpread <= 0 {
		t.Fatalf("peak quality: %+v", q)
	}
}

func TestBeamHistory(t *testing.T) {
	src := testSource(t)
	last, inj := src.Steps()-1, testSim.InjectionStep()
	tracks, err := trackIDs(src, beamIDs(t, src, last, "px > 5e10"), inj, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	steps, quality, err := beamHistory(tracks, inj, last)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 2 || len(steps) != len(quality) {
		t.Fatalf("history: %d steps, %d qualities", len(steps), len(quality))
	}
	// Momentum grows from injection toward the end for the tracked set.
	if first, end := quality[0].MeanPx, quality[len(quality)-1].MeanPx; end <= first {
		t.Fatalf("beam did not gain momentum: %g -> %g", first, end)
	}
	// No tracked particle before injection: an absent range errors.
	if _, _, err := beamHistory(tracks, 0, 0); err == nil {
		t.Fatal("pre-injection history accepted")
	}
}

func TestWriteTracksCSV(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	ids := beamIDs(t, src, last, "px > 5e10")
	if len(ids) > 5 {
		ids = ids[:5]
	}
	tracks, err := trackIDs(src, ids, 0, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeTracksCSV(&sb, tracks); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "id,step,x,y,z,px,py,pz" {
		t.Fatalf("header = %q", lines[0])
	}
	var wantRows int
	for _, tr := range tracks {
		wantRows += len(tr.Steps)
	}
	if len(lines)-1 != wantRows {
		t.Fatalf("rows = %d, want %d", len(lines)-1, wantRows)
	}
}

func TestContextFocusPlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	vars := []string{"x", "y", "px", "py"}
	c, err := focusPlot(src, last, vars, defaultStyle(), layer{query.MustParse("px > 5e10"), focusColor})
	if err != nil {
		t.Fatal(err)
	}
	if w, h := c.Size(); w != 1000 || h != 560 {
		t.Fatalf("canvas %dx%d", w, h)
	}
	if countPixels(c, func(px color.RGBA) bool { return px.G > 150 && px.G > px.R+40 && px.G > px.B+40 }) == 0 {
		t.Fatal("focus layer invisible")
	}
	if _, err := focusPlot(src, last, []string{"x"}, defaultStyle()); err == nil {
		t.Fatal("single variable accepted")
	}
	if _, err := focusPlot(src, last, []string{"x", "nope"}, defaultStyle()); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

// TestMultiFocusPlot: stacked focus layers (Fig. 8's whole beam and its
// refined subset) both show.
func TestMultiFocusPlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	c, err := focusPlot(src, last, []string{"x", "px", "y"}, defaultStyle(),
		layer{query.MustParse("px > 5e10"), color.RGBA{230, 60, 60, 255}},
		layer{query.MustParse("px > 5e10 && y > 0"), color.RGBA{80, 220, 120, 255}})
	if err != nil {
		t.Fatal(err)
	}
	reds := countPixels(c, func(px color.RGBA) bool { return px.R > 150 && px.R > px.G+50 })
	greens := countPixels(c, func(px color.RGBA) bool { return px.G > 150 && px.G > px.R+50 })
	if reds == 0 || greens == 0 {
		t.Fatalf("focus layers missing: red=%d green=%d", reds, greens)
	}
}

func TestTemporalPlot(t *testing.T) {
	src := testSource(t)
	c, err := temporalPlot(src, []int{6, 8, 10}, []string{"x", "xrel", "px", "y"}, query.MustParse("px > 1e9"), defaultStyle())
	if err != nil || c == nil {
		t.Fatalf("temporalPlot: %v", err)
	}
	if _, err := temporalPlot(src, nil, []string{"x", "px"}, nil, defaultStyle()); err == nil {
		t.Fatal("no steps accepted")
	}
}

func TestLinePlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	c, err := linePlot(src, last, []string{"x", "px", "y"}, query.MustParse("px > 5e10"), 0.4)
	if err != nil || c == nil {
		t.Fatalf("linePlot: %v", err)
	}
	if _, err := linePlot(src, last, []string{"x", "px"}, query.MustParse("px > 5e10"), 0); err == nil {
		t.Fatal("zero alpha accepted")
	}
}

func TestDensityPlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	c, err := densityPlot(src, last, "x", "y", 128, query.MustParse("px > 5e10"))
	if err != nil {
		t.Fatal(err)
	}
	if hot := countPixels(c, func(px color.RGBA) bool { return px.R > 100 && px.R >= px.G && px.G >= px.B }); hot < 500 {
		t.Fatalf("density field invisible: %d hot pixels", hot)
	}
	if _, err := densityPlot(src, last, "nope", "y", 64, query.MustParse("px > 5e10")); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestScatterPlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	sel := query.MustParse("px > 5e10")
	c, err := scatterPlot(src, last, "x", "y", "px", sel)
	if err != nil {
		t.Fatal(err)
	}
	// Coloured selection markers must be present (non-gray pixels).
	if n := countPixels(c, func(px color.RGBA) bool {
		return int(px.R)+int(px.G)+int(px.B) > 80 && (px.R != px.G || px.G != px.B)
	}); n < 20 {
		t.Fatalf("selection markers invisible: %d colored pixels", n)
	}
	if _, err := scatterPlot(src, last, "nope", "y", "px", sel); err == nil {
		t.Fatal("unknown x var accepted")
	}
	if _, err := scatterPlot(src, last, "x", "y", "nope", sel); err == nil {
		t.Fatal("unknown color var accepted")
	}
}

// TestScatterPlotSubsamplesContext: the gray context keeps every record
// of a small step and is strided to at most maxContext records past that;
// a pseudocolor view draws over it.
func TestScatterPlotSubsamplesContext(t *testing.T) {
	src := testSource(t)
	xs, ys, err := contextXY(src, 3, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	var rows uint64
	if err := withStep(src, 3, func(st *fastquery.Step) error { rows = st.Rows(); return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(len(xs)) != rows || len(ys) != len(xs) {
		t.Fatalf("context has %d x and %d y of %d records", len(xs), len(ys), rows)
	}
	for _, n := range []int{maxContext, maxContext + 1, 3*maxContext + 7} {
		got := len(subsample(make([]float64, n), contextStride(n)))
		if got > maxContext || got < maxContext/4 {
			t.Fatalf("%d records strided to %d, want (%d/4, %d]", n, got, maxContext, maxContext)
		}
	}
	if _, err := scatterPlot(src, 3, "x", "y", "px", query.MustParse("px > 1e9")); err != nil {
		t.Fatal(err)
	}
}

func TestTracePlot(t *testing.T) {
	src := testSource(t)
	last := src.Steps() - 1
	ids := beamIDs(t, src, last, "px > 5e10")
	if len(ids) > 15 {
		ids = ids[:15]
	}
	tracks, err := trackIDs(src, ids, 0, last, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := tracePlot(src, tracks, last); err != nil || c == nil {
		t.Fatalf("tracePlot: %v", err)
	}
	if _, err := tracePlot(src, nil, last); err == nil {
		t.Fatal("empty track list accepted")
	}
}

// TestGallery: render's nine figures draw on a small run, each a full
// canvas, with the focus threshold derived from the data.
func TestGallery(t *testing.T) {
	src := testSource(t)
	figs, err := gallery(src, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 9 {
		t.Fatalf("gallery has %d figures", len(figs))
	}
	for _, f := range figs {
		if w, h := f.canvas.Size(); w == 0 || h == 0 || !strings.HasSuffix(f.file, ".png") {
			t.Fatalf("%s: %dx%d", f.file, w, h)
		}
	}
	if _, err := gallery(src, -1, "px >"); err == nil {
		t.Fatal("bad focus query accepted")
	}
}

// TestSerialAndScaleTables: the studies' deterministic columns — rows,
// hit counts, node counts — are what the paper's figures plot against.
func TestSerialAndScaleTables(t *testing.T) {
	src := testSource(t)
	tables, err := serialStudy(src, 5, "all", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 || len(tables[0].Rows) != 7 {
		t.Fatalf("serial: %d tables", len(tables))
	}
	if _, err := serialStudy(src, 5, "fig99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	s := &scaleStudy{src: src, nodes: []int{1, 2, 4}, bins: 16, schedules: true}
	tables, err = s.run("all", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("scale: %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 3 || tb.Rows[2][0] != "4" {
			t.Fatalf("%s: rows %v", tb.Title, tb.Rows)
		}
	}
	// One node is the serial time: every speedup there is exactly 1.
	for _, cell := range tables[1].Rows[0][1:] {
		if cell != "1.00" {
			t.Fatalf("1-node speedup %s", cell)
		}
	}
}
