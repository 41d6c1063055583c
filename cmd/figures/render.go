package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/render"
)

// figure is one rendered gallery image.
type figure struct {
	file, caption string
	canvas        *render.Canvas
}

// gallery renders the paper's qualitative figures at step t (-1 = last)
// with the focus selection focus ("" = px above half its maximum at t):
//
//	fig02a_lines.png        traditional polyline parallel coordinates
//	fig02b_hist700.png      histogram-based, 700 bins/axis
//	fig02c_lowgamma.png     same, low gamma (sparse bins culled)
//	fig02d_hist80.png       same, 80 bins/axis
//	fig04a_uniform32.png    32x32 uniform binning
//	fig04b_adaptive32.png   32x32 adaptive (equal-weight) binning
//	fig05_selection.png     context + focus beam selection
//	fig09_temporal.png      temporal parallel coordinates
//	fig10b_density.png      particle density + selection (volume-rendering
//	                        substitute)
func gallery(src *fastquery.Source, t int, focus string) ([]figure, error) {
	if t < 0 {
		t = src.Steps() - 1
	}
	if focus == "" {
		_, hi, err := varRange(src, t, "px")
		if err != nil {
			return nil, err
		}
		focus = fmt.Sprintf("px > %g", 0.5*hi)
	}
	sel, err := query.Parse(focus)
	if err != nil {
		return nil, err
	}
	vars := []string{"x", "y", "px", "py"}
	beam := layer{sel, focusColor}
	bins := func(n int, b histogram.Binning, gamma float64) style {
		s := defaultStyle()
		s.contextBins, s.binning, s.gamma = n, b, gamma
		return s
	}
	// Fig. 9 plots the selection over the second half of the run.
	var steps []int
	for s := src.Steps() / 2; s < src.Steps(); s += 2 {
		steps = append(steps, s)
	}
	figs := []struct {
		file, caption string
		draw          func() (*render.Canvas, error)
	}{
		// Polylines over everything would saturate, which is the paper's
		// point; the focus subset keeps the figure legible.
		{"fig02a_lines.png", "Fig. 2a: traditional polyline parallel coordinates of " + focus,
			func() (*render.Canvas, error) { return linePlot(src, t, vars, sel, 0.3) }},
		{"fig02b_hist700.png", "Fig. 2b: histogram-based, 700 bins per axis",
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, bins(700, histogram.Uniform, 1)) }},
		{"fig02c_lowgamma.png", "Fig. 2c: 700 bins, low gamma (sparse bins culled)",
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, bins(700, histogram.Uniform, 0.35)) }},
		{"fig02d_hist80.png", "Fig. 2d: 80 bins per axis",
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, bins(80, histogram.Uniform, 1)) }},
		{"fig04a_uniform32.png", "Figs. 3/4: 32x32 uniform binning, focus " + focus,
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, bins(32, histogram.Uniform, 1), beam) }},
		{"fig04b_adaptive32.png", "Figs. 3/4: 32x32 adaptive (equal-weight) binning, focus " + focus,
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, bins(32, histogram.Adaptive, 1), beam) }},
		{"fig05_selection.png", fmt.Sprintf("Fig. 5: beam selection %s at t=%d, context + focus", focus, t),
			func() (*render.Canvas, error) { return focusPlot(src, t, vars, defaultStyle(), beam) }},
		{"fig09_temporal.png", fmt.Sprintf("Fig. 9: temporal parallel coordinates of %s at steps %v", focus, steps),
			func() (*render.Canvas, error) {
				return temporalPlot(src, steps, []string{"x", "xrel", "px", "y"}, sel, defaultStyle())
			}},
		{"fig10b_density.png", "Fig. 10b substitute: particle density with the selection coloured by px",
			func() (*render.Canvas, error) { return densityPlot(src, t, "x", "y", 256, sel) }},
	}
	out := make([]figure, len(figs))
	for i, f := range figs {
		c, err := f.draw()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.file, err)
		}
		out[i] = figure{f.file, f.caption, c}
	}
	return out, nil
}

// runRender writes the gallery as PNGs.
func runRender(args []string) error {
	fs, data := flags("render")
	var (
		out   = fs.String("out", "figures", "output directory")
		step  = fs.Int("step", -1, "timestep for the static figures (-1 = last)")
		focus = fs.String("focus", "", "beam selection query (default: derived px threshold)")
	)
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	figs, err := gallery(src, *step, *focus)
	if err != nil {
		return err
	}
	for _, f := range figs {
		path := filepath.Join(*out, f.file)
		if err := f.canvas.SavePNG(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
