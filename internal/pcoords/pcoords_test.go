package pcoords

import (
	"image/color"
	"math/rand"
	"testing"

	"repro/internal/histogram"
)

var (
	green = color.RGBA{80, 220, 120, 255}
	red   = color.RGBA{230, 60, 60, 255}
)

func testAxes() []Axis {
	return []Axis{
		{Var: "x", Min: 0, Max: 1},
		{Var: "px", Min: -1, Max: 1},
		{Var: "y", Min: 0, Max: 10},
	}
}

// testValues builds correlated columns for the test axes.
func testValues(n int, seed int64) map[string][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	pxs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		pxs[i] = 2*xs[i] - 1 + 0.1*rng.NormFloat64()
		ys[i] = 5 + 4*pxs[i] + 0.5*rng.NormFloat64()
	}
	return map[string][]float64{"x": xs, "px": pxs, "y": ys}
}

// pairHists builds per-pair histograms matching the test axes.
func pairHists(t *testing.T, vals map[string][]float64, axes []Axis, bins int) []*histogram.Hist2D {
	t.Helper()
	out := make([]*histogram.Hist2D, len(axes)-1)
	for i := 0; i < len(axes)-1; i++ {
		a, b := axes[i], axes[i+1]
		h, err := histogram.Compute2D(a.Var, b.Var, vals[a.Var], vals[b.Var],
			histogram.UniformEdges(a.Min, a.Max, bins),
			histogram.UniformEdges(b.Min, b.Max, bins))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = h
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Axis{{Var: "x", Min: 0, Max: 1}}, DefaultOptions()); err == nil {
		t.Fatal("single axis accepted")
	}
	bad := testAxes()
	bad[1].Max = bad[1].Min
	if _, err := New(bad, DefaultOptions()); err == nil {
		t.Fatal("empty axis range accepted")
	}
	opt := DefaultOptions()
	opt.Width = 5
	if _, err := New(testAxes(), opt); err == nil {
		t.Fatal("tiny canvas accepted")
	}
	opt = DefaultOptions()
	opt.Gamma = -1
	if _, err := New(testAxes(), opt); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestHistLayerValidation(t *testing.T) {
	p, err := New(testAxes(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(500, 1)
	hists := pairHists(t, vals, testAxes(), 16)
	if err := p.AddHistLayer(&HistLayer{Hists: hists[:1], Color: green}); err == nil {
		t.Fatal("wrong histogram count accepted")
	}
	swapped := []*histogram.Hist2D{hists[1], hists[0]}
	if err := p.AddHistLayer(&HistLayer{Hists: swapped, Color: green}); err == nil {
		t.Fatal("mismatched variables accepted")
	}
	if err := p.AddHistLayer(&HistLayer{Hists: []*histogram.Hist2D{nil, nil}, Color: green}); err == nil {
		t.Fatal("nil histogram accepted")
	}
	if err := p.AddHistLayer(&HistLayer{Hists: hists, Color: green}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderHistogramPlot(t *testing.T) {
	p, err := New(testAxes(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(2000, 2)
	if err := p.AddHistLayer(&HistLayer{Hists: pairHists(t, vals, testAxes(), 32), Color: green}); err != nil {
		t.Fatal(err)
	}
	c, err := p.Render()
	if err != nil {
		t.Fatal(err)
	}
	// The positively correlated data must light pixels between the axes.
	var lit int
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px := c.At(x, y)
			if px.G > 100 && px.G > px.R {
				lit++
			}
		}
	}
	if lit < 500 {
		t.Fatalf("histogram plot lit only %d greenish pixels", lit)
	}
}

func TestGammaCullsSparseBins(t *testing.T) {
	axes := testAxes()
	vals := testValues(3000, 3)
	countLit := func(gamma float64) int {
		p, err := New(axes, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddHistLayer(&HistLayer{
			Hists: pairHists(t, vals, axes, 32),
			Color: green,
			Gamma: gamma,
		}); err != nil {
			t.Fatal(err)
		}
		c, err := p.Render()
		if err != nil {
			t.Fatal(err)
		}
		var lit int
		w, h := c.Size()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if px := c.At(x, y); px.G > 30 && px.G > px.R {
					lit++
				}
			}
		}
		return lit
	}
	bright := countLit(2.0)
	dim := countLit(0.3)
	if dim >= bright {
		t.Fatalf("low gamma (%d px) not dimmer than high gamma (%d px)", dim, bright)
	}
}

func TestLineLayer(t *testing.T) {
	p, err := New(testAxes(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(50, 4)
	if err := p.AddLineLayer(&LineLayer{Values: vals, Color: red, Alpha: 0.5}); err != nil {
		t.Fatal(err)
	}
	c, err := p.Render()
	if err != nil {
		t.Fatal(err)
	}
	var lit int
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if px := c.At(x, y); px.R > 60 && px.R > px.G {
				lit++
			}
		}
	}
	if lit < 100 {
		t.Fatalf("line plot lit only %d pixels", lit)
	}
}

func TestLineLayerValidation(t *testing.T) {
	p, _ := New(testAxes(), DefaultOptions())
	vals := testValues(10, 5)
	delete(vals, "y")
	if err := p.AddLineLayer(&LineLayer{Values: vals, Color: red, Alpha: 0.5}); err == nil {
		t.Fatal("missing column accepted")
	}
	vals = testValues(10, 5)
	vals["y"] = vals["y"][:5]
	if err := p.AddLineLayer(&LineLayer{Values: vals, Color: red, Alpha: 0.5}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	vals = testValues(10, 5)
	if err := p.AddLineLayer(&LineLayer{Values: vals, Color: red, Alpha: 0}); err == nil {
		t.Fatal("zero alpha accepted")
	}
}

func TestFocusOverContext(t *testing.T) {
	axes := testAxes()
	p, err := New(axes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all := testValues(3000, 6)
	// Focus: upper half in y.
	focus := map[string][]float64{"x": nil, "px": nil, "y": nil}
	for i := range all["y"] {
		if all["y"][i] > 5 {
			for k := range focus {
				focus[k] = append(focus[k], all[k][i])
			}
		}
	}
	if err := p.AddHistLayer(&HistLayer{Hists: pairHists(t, all, axes, 32), Color: color.RGBA{120, 120, 130, 255}}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddHistLayer(&HistLayer{Hists: pairHists(t, focus, axes, 64), Color: green}); err != nil {
		t.Fatal(err)
	}
	c, err := p.Render()
	if err != nil {
		t.Fatal(err)
	}
	// Greenish pixels (focus) must appear mostly in the upper half of the
	// rightmost axis region.
	w, h := c.Size()
	var upper, lower int
	for y := 0; y < h; y++ {
		for x := 3 * w / 4; x < w; x++ {
			if px := c.At(x, y); px.G > 120 && px.G > px.R+40 {
				if y < h/2 {
					upper++
				} else {
					lower++
				}
			}
		}
	}
	if upper <= lower*2 {
		t.Fatalf("focus not concentrated in upper half: %d upper vs %d lower", upper, lower)
	}
}

func TestAdaptiveLayerUsesDensityOrdering(t *testing.T) {
	axes := testAxes()
	vals := testValues(3000, 7)
	// Build adaptive histograms per pair.
	hists := make([]*histogram.Hist2D, len(axes)-1)
	for i := 0; i < len(axes)-1; i++ {
		a, b := axes[i], axes[i+1]
		xe, err := histogram.AdaptiveEdges(vals[a.Var], a.Min, a.Max, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		ye, err := histogram.AdaptiveEdges(vals[b.Var], b.Min, b.Max, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := histogram.Compute2D(a.Var, b.Var, vals[a.Var], vals[b.Var], xe, ye)
		if err != nil {
			t.Fatal(err)
		}
		hists[i] = h
	}
	p, err := New(axes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddHistLayer(&HistLayer{Hists: hists, Color: green}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestAxisLabelsToggle(t *testing.T) {
	opt := DefaultOptions()
	lit := map[bool]int{}
	for _, labels := range []bool{false, true} {
		opt.DrawLabels = labels
		p, err := New(testAxes(), opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Render()
		if err != nil {
			t.Fatal(err)
		}
		w, h := c.Size()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if c.At(x, y) != opt.Background {
					lit[labels]++
				}
			}
		}
	}
	if lit[false] == 0 || lit[false] >= lit[true] {
		t.Fatalf("%d pixels drawn without labels, %d with", lit[false], lit[true])
	}
}

func TestFormatAxisValue(t *testing.T) {
	cases := map[float64]string{
		8.872e10: "8.87e+10",
		0.5:      "0.5",
		0:        "0",
	}
	for v, want := range cases {
		if got := formatAxisValue(v); got != want {
			t.Errorf("formatAxisValue(%g) = %q, want %q", v, got, want)
		}
	}
}
