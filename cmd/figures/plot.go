package main

import (
	"context"
	"fmt"
	"image/color"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/pcoords"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/scatter"
)

// This file draws every figure from histograms and selections computed
// by fastquery, always on the FastBit backend (the backends answer
// identically; the serial study compares their cost).

var (
	contextColor = color.RGBA{120, 130, 150, 255}
	focusColor   = color.RGBA{90, 220, 120, 255}
	// temporalColors cycles over timestep layers, ordered for maximum
	// contrast between consecutive timesteps.
	temporalColors = []color.RGBA{
		{66, 135, 245, 255}, {245, 179, 66, 255}, {66, 245, 182, 255},
		{245, 66, 147, 255}, {242, 245, 66, 255}, {188, 66, 245, 255},
		{245, 108, 66, 255}, {66, 200, 245, 255}, {152, 245, 66, 255},
	}
)

// maxContext bounds the gray background of the pseudocolor views: more
// records than this are drawn strided, which at plot resolution is
// indistinguishable from drawing them all.
const maxContext = 200000

// style is one parallel-coordinates configuration. The context layer is
// coarser than the focus layers for smooth drill-down (paper Section
// III-A2).
type style struct {
	contextBins, focusBins int
	binning                histogram.Binning
	gamma                  float64
}

func defaultStyle() style { return style{contextBins: 128, focusBins: 256, gamma: 1} }

// layer is one highlighted selection drawn over the context.
type layer struct {
	cond  query.Expr
	color color.RGBA
}

// withStep runs f on an opened timestep.
func withStep(src *fastquery.Source, t int, f func(st *fastquery.Step) error) error {
	st, err := src.OpenStep(t)
	if err != nil {
		return err
	}
	defer st.Close()
	return f(st)
}

// varRange returns a variable's value range at one timestep.
func varRange(src *fastquery.Source, t int, name string) (lo, hi float64, err error) {
	err = withStep(src, t, func(st *fastquery.Step) error {
		lo, hi, err = st.MinMax(name)
		return err
	})
	return lo, hi, err
}

// globalRange returns a variable's value range across the given steps.
func globalRange(src *fastquery.Source, name string, steps []int) (lo, hi float64, err error) {
	if len(steps) == 0 {
		return 0, 0, fmt.Errorf("no steps")
	}
	for i, t := range steps {
		l, h, err := varRange(src, t, name)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || l < lo {
			lo = l
		}
		if i == 0 || h > hi {
			hi = h
		}
	}
	return lo, hi, nil
}

// selectValues returns the values of vars at the records of step t that
// match cond, in record order.
func selectValues(src *fastquery.Source, t int, cond query.Expr, vars ...string) ([][]float64, error) {
	out := make([][]float64, len(vars))
	err := withStep(src, t, func(st *fastquery.Step) error {
		pos, err := st.SelectCtx(context.Background(), cond, fastquery.FastBit, 0, st.Rows())
		if err != nil {
			return err
		}
		for i, v := range vars {
			if out[i], err = st.ValuesAtCtx(context.Background(), v, pos); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// newPlot builds an empty parallel-coordinates plot whose axes span the
// variables' ranges over the given steps.
func newPlot(src *fastquery.Source, vars []string, steps []int, s style) (*pcoords.Plot, []pcoords.Axis, error) {
	if len(vars) < 2 {
		return nil, nil, fmt.Errorf("need at least 2 plot variables")
	}
	axes := make([]pcoords.Axis, len(vars))
	for i, v := range vars {
		lo, hi, err := globalRange(src, v, steps)
		if err != nil {
			return nil, nil, err
		}
		if hi <= lo {
			hi = lo + 1e-12
		}
		axes[i] = pcoords.Axis{Var: v, Min: lo, Max: hi}
	}
	opt := pcoords.DefaultOptions()
	opt.Width, opt.Height, opt.Gamma = 1000, 560, s.gamma
	plot, err := pcoords.New(axes, opt)
	return plot, axes, err
}

// addHistLayer draws the per-adjacent-pair conditional histograms of one
// step (cond nil = every record) as one layer.
func addHistLayer(plot *pcoords.Plot, src *fastquery.Source, t int, axes []pcoords.Axis, cond query.Expr, bins int, binning histogram.Binning, col color.RGBA) error {
	hists := make([]*histogram.Hist2D, len(axes)-1)
	err := withStep(src, t, func(st *fastquery.Step) error {
		for i := range hists {
			a, b := axes[i], axes[i+1]
			spec := histogram.NewSpec2D(a.Var, b.Var, bins, bins).
				WithBinning(binning).
				WithXRange(a.Min, a.Max).
				WithYRange(b.Min, b.Max)
			var err error
			if hists[i], err = st.Histogram2DCtx(context.Background(), cond, spec, fastquery.FastBit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return plot.AddHistLayer(&pcoords.HistLayer{Hists: hists, Color: col})
}

// focusPlot renders a histogram-based parallel coordinates plot of one
// step: the whole step as context, then each focus layer on top at the
// focus resolution (Figs. 2b–d, 4, 5 and the refinement overlay of
// Fig. 8).
func focusPlot(src *fastquery.Source, t int, vars []string, s style, focus ...layer) (*render.Canvas, error) {
	plot, axes, err := newPlot(src, vars, []int{t}, s)
	if err != nil {
		return nil, err
	}
	if err := addHistLayer(plot, src, t, axes, nil, s.contextBins, s.binning, contextColor); err != nil {
		return nil, err
	}
	for _, f := range focus {
		if err := addHistLayer(plot, src, t, axes, f.cond, s.focusBins, s.binning, f.color); err != nil {
			return nil, err
		}
	}
	return plot.Render()
}

// temporalPlot renders one selection at several steps into one plot, one
// colour per step (Fig. 9).
func temporalPlot(src *fastquery.Source, steps []int, vars []string, cond query.Expr, s style) (*render.Canvas, error) {
	plot, axes, err := newPlot(src, vars, steps, s)
	if err != nil {
		return nil, err
	}
	for i, t := range steps {
		if err := addHistLayer(plot, src, t, axes, cond, s.focusBins, s.binning, temporalColors[i%len(temporalColors)]); err != nil {
			return nil, err
		}
	}
	return plot.Render()
}

// linePlot renders the traditional polyline parallel coordinates of a
// selection (Fig. 2a).
func linePlot(src *fastquery.Source, t int, vars []string, cond query.Expr, alpha float64) (*render.Canvas, error) {
	plot, axes, err := newPlot(src, vars, []int{t}, defaultStyle())
	if err != nil {
		return nil, err
	}
	cols, err := selectValues(src, t, cond, vars...)
	if err != nil {
		return nil, err
	}
	values := map[string][]float64{}
	for i, a := range axes {
		values[a.Var] = cols[i]
	}
	if err := plot.AddLineLayer(&pcoords.LineLayer{Values: values, Color: focusColor, Alpha: alpha}); err != nil {
		return nil, err
	}
	return plot.Render()
}

// subsample keeps every stride-th value.
func subsample(vs []float64, stride int) []float64 {
	if stride <= 1 {
		return vs
	}
	out := make([]float64, 0, len(vs)/stride+1)
	for i := 0; i < len(vs); i += stride {
		out = append(out, vs[i])
	}
	return out
}

// contextXY reads the gray background of a pseudocolor view: the step's
// x and y columns, strided down to maxContext records.
func contextXY(src *fastquery.Source, t int, xVar, yVar string) (xs, ys []float64, err error) {
	err = withStep(src, t, func(st *fastquery.Step) error {
		if xs, err = st.ReadColumn(xVar); err != nil {
			return err
		}
		ys, err = st.ReadColumn(yVar)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	stride := contextStride(len(xs))
	return subsample(xs, stride), subsample(ys, stride), nil
}

// contextStride is the smallest stride that brings n records down to at
// most maxContext.
func contextStride(n int) int { return (n + maxContext - 1) / maxContext }

// scatterPlot renders a pseudocolor view of one step (Figs. 5b/5d, 6,
// 8b): every record in gray, the selection as markers coloured by
// colorVar.
func scatterPlot(src *fastquery.Source, t int, xVar, yVar, colorVar string, cond query.Expr) (*render.Canvas, error) {
	xlo, xhi, err := varRange(src, t, xVar)
	if err != nil {
		return nil, err
	}
	ylo, yhi, err := varRange(src, t, yVar)
	if err != nil {
		return nil, err
	}
	p, err := scatter.New(xVar, yVar, xlo, xhi, ylo, yhi, scatter.DefaultOptions())
	if err != nil {
		return nil, err
	}
	ctxX, ctxY, err := contextXY(src, t, xVar, yVar)
	if err != nil {
		return nil, err
	}
	if err := p.SetContext(ctxX, ctxY); err != nil {
		return nil, err
	}
	sel, err := selectValues(src, t, cond, xVar, yVar, colorVar)
	if err != nil {
		return nil, err
	}
	if err := p.SetSelection(colorVar, sel[0], sel[1], sel[2], 0, 0); err != nil {
		return nil, err
	}
	return p.Render()
}

// tracePlot renders tracked particles as world lines in (x, y) coloured
// by px (Figs. 7, 8c), over the gray context of one reference step.
func tracePlot(src *fastquery.Source, tracks []*track, contextStep int) (*render.Canvas, error) {
	if len(tracks) == 0 {
		return nil, fmt.Errorf("no tracks to plot")
	}
	xlo, xhi := tracks[0].X[0], tracks[0].X[0]
	ylo, yhi := tracks[0].Y[0], tracks[0].Y[0]
	for _, tr := range tracks {
		for i := range tr.X {
			xlo, xhi = min(xlo, tr.X[i]), max(xhi, tr.X[i])
			ylo, yhi = min(ylo, tr.Y[i]), max(yhi, tr.Y[i])
		}
	}
	if lo, hi, err := varRange(src, contextStep, "x"); err == nil {
		xlo, xhi = min(xlo, lo), max(xhi, hi)
	}
	if lo, hi, err := varRange(src, contextStep, "y"); err == nil {
		ylo, yhi = min(ylo, lo), max(yhi, hi)
	}
	if xhi <= xlo {
		xhi = xlo + 1e-12
	}
	if yhi <= ylo {
		yhi = ylo + 1e-12
	}
	tp, err := scatter.NewTracePlot("x", "y", xlo, xhi, ylo, yhi, scatter.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if ctxX, ctxY, err := contextXY(src, contextStep, "x", "y"); err == nil {
		if err := tp.SetContext(ctxX, ctxY); err != nil {
			return nil, err
		}
	}
	for _, tr := range tracks {
		if err := tp.Add(scatter.Trace{X: tr.X, Y: tr.Y, C: tr.Px}); err != nil {
			return nil, err
		}
	}
	return tp.Render()
}

// densityPlot renders one step's particle number density as a
// heat-mapped 2D histogram — the stand-in for the paper's volume
// rendering of plasma density (Fig. 10b) — with the selection cond
// overlaid as markers coloured by px.
func densityPlot(src *fastquery.Source, t int, xVar, yVar string, bins int, cond query.Expr) (*render.Canvas, error) {
	var h *histogram.Hist2D
	err := withStep(src, t, func(st *fastquery.Step) error {
		var err error
		h, err = st.Histogram2DCtx(context.Background(), nil, histogram.NewSpec2D(xVar, yVar, bins, bins), fastquery.FastBit)
		return err
	})
	if err != nil {
		return nil, err
	}
	opt := scatter.DefaultOptions()
	c, err := render.NewCanvas(opt.Width, opt.Height, opt.Background)
	if err != nil {
		return nil, err
	}
	m, w, hgt := opt.Margin, opt.Width, opt.Height
	maxC := float64(h.MaxCount())
	if maxC == 0 {
		maxC = 1
	}
	plotW, plotH := w-2*m, hgt-2*m
	for py := 0; py < plotH; py++ {
		for px := 0; px < plotW; px++ {
			ix := px * h.XBins() / plotW
			iy := (plotH - 1 - py) * h.YBins() / plotH
			if cnt := float64(h.At(ix, iy)); cnt != 0 {
				c.Blend(m+px, m+py, render.Heat(0.15+0.85*(cnt/maxC)), 1)
			}
		}
	}
	sel, err := selectValues(src, t, cond, xVar, yVar, "px")
	if err != nil {
		return nil, err
	}
	p, err := scatter.New(xVar, yVar, h.XEdges[0], h.XEdges[len(h.XEdges)-1],
		h.YEdges[0], h.YEdges[len(h.YEdges)-1], opt)
	if err != nil {
		return nil, err
	}
	if err := p.SetSelection("px", sel[0], sel[1], sel[2], 0, 0); err != nil {
		return nil, err
	}
	over, err := p.Render()
	if err != nil {
		return nil, err
	}
	// Composite the selection markers (non-background pixels) on top.
	for y := 0; y < hgt; y++ {
		for x := 0; x < w; x++ {
			if px := over.At(x, y); px != opt.Background {
				c.Blend(x, y, px, 1)
			}
		}
	}
	return c, nil
}
