package scatter

import (
	"math/rand"
	"testing"

	"repro/internal/render"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", "y", 0, 0, 0, 1, DefaultOptions()); err == nil {
		t.Fatal("empty x range accepted")
	}
	if _, err := New("x", "y", 0, 1, 1, 1, DefaultOptions()); err == nil {
		t.Fatal("empty y range accepted")
	}
	opt := DefaultOptions()
	opt.Width = 4
	if _, err := New("x", "y", 0, 1, 0, 1, opt); err == nil {
		t.Fatal("tiny canvas accepted")
	}
	opt = DefaultOptions()
	opt.Colormap = nil
	if _, err := New("x", "y", 0, 1, 0, 1, opt); err != nil {
		t.Fatal("nil colormap should default, not fail")
	}
}

func TestScatterRender(t *testing.T) {
	p, err := New("x", "px", 0, 1, 0, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := 2000
	cx := make([]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		cx[i], cy[i] = rng.Float64(), rng.Float64()*0.3
	}
	if err := p.SetContext(cx, cy); err != nil {
		t.Fatal(err)
	}
	// Selection: a high-y cluster coloured by value.
	sx := []float64{0.2, 0.5, 0.8}
	sy := []float64{0.9, 0.9, 0.9}
	sc := []float64{0, 0.5, 1}
	if err := p.SetSelection("px", sx, sy, sc, 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := p.Render()
	if err != nil {
		t.Fatal(err)
	}
	// The low-value marker should be blue-ish, the high-value red-ish.
	blue, red := 0, 0
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px := c.At(x, y)
			if px.B > 200 && px.R < 60 && px.G < 120 {
				blue++
			}
			if px.R > 200 && px.B < 60 && px.G < 120 {
				red++
			}
		}
	}
	if blue == 0 || red == 0 {
		t.Fatalf("colormap endpoints missing: blue=%d red=%d", blue, red)
	}
	// Context grayish pixels present in the lower band.
	var gray int
	for y := h / 2; y < h; y++ {
		for x := 0; x < w; x++ {
			px := c.At(x, y)
			if px.R > 40 && px.R == px.G && px.G >= px.B-12 && px.B > 40 {
				gray++
			}
		}
	}
	if gray < 100 {
		t.Fatalf("context particles invisible: %d gray pixels", gray)
	}
}

func TestScatterValidation(t *testing.T) {
	p, _ := New("x", "y", 0, 1, 0, 1, DefaultOptions())
	if err := p.SetContext([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("ragged context accepted")
	}
	if err := p.SetSelection("c", []float64{1}, []float64{1}, []float64{1, 2}, 0, 0); err == nil {
		t.Fatal("ragged selection accepted")
	}
	// Constant colour values still render.
	if err := p.SetSelection("c", []float64{0.5}, []float64{0.5}, []float64{3}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestScatterPointSizeAndNoLabels(t *testing.T) {
	opt := DefaultOptions()
	opt.PointSize = 0
	opt.DrawLabels = false
	p, err := New("x", "y", 0, 1, 0, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetSelection("c", []float64{0.5}, []float64{0.5}, []float64{1}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestTracePlot(t *testing.T) {
	tp, err := NewTracePlot("x", "y", 0, 10, 0, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Add(Trace{X: []float64{1, 2}, Y: []float64{0.5}, C: []float64{1, 2}}); err == nil {
		t.Fatal("ragged trace accepted")
	}
	if err := tp.Add(Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	for k := 0; k < 5; k++ {
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		cs := make([]float64, 8)
		for i := range xs {
			xs[i] = float64(i) + float64(k)*0.1
			ys[i] = 0.2 + 0.1*float64(k)
			cs[i] = float64(i * k)
		}
		if err := tp.Add(Trace{X: xs, Y: ys, C: cs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.SetContext([]float64{5}, []float64{0.9}); err != nil {
		t.Fatal(err)
	}
	c, err := tp.Render()
	if err != nil {
		t.Fatal(err)
	}
	var lit int
	w, h := c.Size()
	bg := DefaultOptions().Background
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if c.At(x, y) != bg {
				lit++
			}
		}
	}
	if lit < 200 {
		t.Fatalf("trace plot lit only %d pixels", lit)
	}
}

func TestTracePlotConstantColor(t *testing.T) {
	tp, err := NewTracePlot("x", "y", 0, 1, 0, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Add(Trace{X: []float64{0.1, 0.9}, Y: []float64{0.5, 0.5}, C: []float64{7, 7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestColormaps(t *testing.T) {
	for name, cm := range map[string]render.Colormap{
		"rainbow": render.Rainbow, "heat": render.Heat,
	} {
		lo, hi := cm(0), cm(1)
		if lo == hi {
			t.Errorf("%s: endpoints identical", name)
		}
		// Out-of-range and NaN clamp rather than panic.
		cm(-1)
		cm(2)
	}
	if render.Rainbow(0).B != 255 || render.Rainbow(1).R != 255 {
		t.Error("rainbow endpoints wrong")
	}
	n := render.Normalize(10, 20)
	if n(10) != 0 || n(20) != 1 || n(15) != 0.5 {
		t.Error("Normalize wrong")
	}
	if c := render.Normalize(5, 5); c(5) != 0.5 {
		t.Error("degenerate Normalize should return midpoint")
	}
}
