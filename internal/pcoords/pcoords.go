// Package pcoords renders histogram-based parallel coordinates plots
// (paper Section III-A). Instead of one polyline per record, each
// adjacent-axis pair is drawn from a 2D histogram: one quadrilateral per
// non-empty bin, connecting the bin's value range on the left axis to its
// value range on the right axis.
//
// Features reproduced from the paper:
//
//   - Brightness reflects records per bin; bins are drawn back-to-front by
//     count (uniform bins) or by record density h(i,j)/a(i,j) (adaptive
//     bins), so dense trends end up on top.
//   - A user gamma controls overall plot brightness and can cull sparse
//     bins entirely, decluttering the view (Fig. 2c).
//   - Focus layers render over context layers in a different colour, both
//     histogram-based, at independent resolutions (Section III-A2).
//   - Temporal plots stack one layer per timestep, each with its own
//     colour (Fig. 9).
//   - Traditional polyline rendering is available for comparison (Fig. 2a).
package pcoords

import (
	"fmt"
	"image/color"
	"math"
	"sort"

	"repro/internal/histogram"
	"repro/internal/render"
)

// Axis describes one parallel axis: a variable and its displayed range.
type Axis struct {
	Var      string
	Min, Max float64
}

// Options controls plot geometry and appearance.
type Options struct {
	Width, Height int
	Margin        int     // pixels around the plot area
	Gamma         float64 // default layer gamma; 1 when zero
	Background    color.RGBA
	AxisColor     color.RGBA
	LabelColor    color.RGBA
	DrawLabels    bool
}

// DefaultOptions returns the standard dark plot styling.
func DefaultOptions() Options {
	return Options{
		Width:      900,
		Height:     500,
		Margin:     40,
		Gamma:      1,
		Background: color.RGBA{10, 10, 14, 255},
		AxisColor:  color.RGBA{150, 150, 160, 255},
		LabelColor: color.RGBA{210, 210, 220, 255},
		DrawLabels: true,
	}
}

// Layer is anything that can draw itself between the axes.
type Layer interface {
	draw(p *Plot, c *render.Canvas) error
}

// Plot is a parallel coordinates plot under construction.
type Plot struct {
	axes   []Axis
	layers []Layer
	opt    Options
}

// New creates a plot over the given axes.
func New(axes []Axis, opt Options) (*Plot, error) {
	if len(axes) < 2 {
		return nil, fmt.Errorf("pcoords: need at least 2 axes, got %d", len(axes))
	}
	for i, a := range axes {
		if !(a.Max > a.Min) {
			return nil, fmt.Errorf("pcoords: axis %d (%s) has empty range [%g, %g]", i, a.Var, a.Min, a.Max)
		}
	}
	if opt.Width < 10*len(axes) || opt.Height < 40 {
		return nil, fmt.Errorf("pcoords: canvas %dx%d too small", opt.Width, opt.Height)
	}
	if opt.Gamma == 0 {
		opt.Gamma = 1
	}
	if opt.Gamma < 0 {
		return nil, fmt.Errorf("pcoords: negative gamma %g", opt.Gamma)
	}
	return &Plot{axes: append([]Axis(nil), axes...), opt: opt}, nil
}

// axisX returns the pixel x of axis i.
func (p *Plot) axisX(i int) float64 {
	usable := float64(p.opt.Width - 2*p.opt.Margin)
	return float64(p.opt.Margin) + usable*float64(i)/float64(len(p.axes)-1)
}

// valueY maps a value on axis i to a pixel y (top = max).
func (p *Plot) valueY(i int, v float64) float64 {
	a := p.axes[i]
	t := (v - a.Min) / (a.Max - a.Min)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	usable := float64(p.opt.Height - 2*p.opt.Margin)
	return float64(p.opt.Height-p.opt.Margin) - usable*t
}

// HistLayer renders one 2D histogram per adjacent axis pair.
type HistLayer struct {
	// Hists[i] is the histogram over (axes[i].Var, axes[i+1].Var).
	Hists []*histogram.Hist2D
	Color color.RGBA
	// Gamma overrides the plot gamma when nonzero. Lower values dim the
	// plot and cull sparse bins (paper Fig. 2c).
	Gamma float64
	// MinBrightness culls bins whose computed brightness falls below it;
	// the default of 1/255 culls only invisible bins.
	MinBrightness float64
}

// AddHistLayer validates and appends a histogram layer.
func (p *Plot) AddHistLayer(l *HistLayer) error {
	if len(l.Hists) != len(p.axes)-1 {
		return fmt.Errorf("pcoords: layer has %d histograms for %d axes", len(l.Hists), len(p.axes))
	}
	for i, h := range l.Hists {
		if h == nil {
			return fmt.Errorf("pcoords: nil histogram for axis pair %d", i)
		}
		if h.XVar != p.axes[i].Var || h.YVar != p.axes[i+1].Var {
			return fmt.Errorf("pcoords: histogram %d is over (%s,%s), axes are (%s,%s)",
				i, h.XVar, h.YVar, p.axes[i].Var, p.axes[i+1].Var)
		}
	}
	p.layers = append(p.layers, l)
	return nil
}

// LineLayer renders records as traditional polylines.
type LineLayer struct {
	// Values holds one column per axis variable; all must share a length.
	Values map[string][]float64
	Color  color.RGBA
	Alpha  float64 // per-line opacity; low values reproduce overdraw accumulation
}

// AddLineLayer validates and appends a polyline layer.
func (p *Plot) AddLineLayer(l *LineLayer) error {
	n := -1
	for _, a := range p.axes {
		col, ok := l.Values[a.Var]
		if !ok {
			return fmt.Errorf("pcoords: line layer missing variable %q", a.Var)
		}
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return fmt.Errorf("pcoords: line layer column %q has %d records, expected %d", a.Var, len(col), n)
		}
	}
	if l.Alpha <= 0 || l.Alpha > 1 {
		return fmt.Errorf("pcoords: line layer alpha %g outside (0, 1]", l.Alpha)
	}
	p.layers = append(p.layers, l)
	return nil
}

// Render draws axes and layers onto a fresh canvas.
func (p *Plot) Render() (*render.Canvas, error) {
	c, err := render.NewCanvas(p.opt.Width, p.opt.Height, p.opt.Background)
	if err != nil {
		return nil, err
	}
	for _, l := range p.layers {
		if err := l.draw(p, c); err != nil {
			return nil, err
		}
	}
	p.drawAxes(c)
	return c, nil
}

func (p *Plot) drawAxes(c *render.Canvas) {
	top := p.opt.Margin
	bot := p.opt.Height - p.opt.Margin
	for i, a := range p.axes {
		x := int(math.Round(p.axisX(i)))
		c.VLine(x, top, bot, p.opt.AxisColor, 1)
		if p.opt.DrawLabels {
			c.TextCentered(x, bot+8, a.Var, p.opt.LabelColor)
			c.TextCentered(x, top-16, formatAxisValue(a.Max), p.opt.LabelColor)
			c.TextCentered(x, bot+20, formatAxisValue(a.Min), p.opt.LabelColor)
		}
	}
}

func formatAxisValue(v float64) string {
	av := math.Abs(v)
	if av != 0 && (av >= 1e4 || av < 1e-2) {
		return fmt.Sprintf("%.2e", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// binQuad is one renderable bin with its draw weight.
type binQuad struct {
	pair   int
	ix, iy int
	weight float64 // count (uniform) or density (adaptive)
}

func (l *HistLayer) draw(p *Plot, c *render.Canvas) error {
	gamma := l.Gamma
	if gamma == 0 {
		gamma = p.opt.Gamma
	}
	minB := l.MinBrightness
	if minB <= 0 {
		minB = 1.0 / 255
	}
	for pair, h := range l.Hists {
		adaptive := !uniformEdges(h.XEdges) || !uniformEdges(h.YEdges)
		var quads []binQuad
		var wmax float64
		h.NonEmpty(func(ix, iy int, count uint64) {
			w := float64(count)
			if adaptive {
				w = h.Density(ix, iy)
			}
			if w > wmax {
				wmax = w
			}
			quads = append(quads, binQuad{pair: pair, ix: ix, iy: iy, weight: w})
		})
		if wmax == 0 {
			continue
		}
		// Back-to-front: sparse first, dense last (dense trends on top).
		sort.Slice(quads, func(i, j int) bool { return quads[i].weight < quads[j].weight })
		xl := p.axisX(pair)
		xr := p.axisX(pair + 1)
		for _, q := range quads {
			// Brightness b = (w/wmax)^(1/gamma); low gamma suppresses
			// sparse bins, eventually culling them.
			b := math.Pow(q.weight/wmax, 1/gamma)
			if b < minB {
				continue
			}
			yl0 := p.valueY(pair, h.XEdges[q.ix])
			yl1 := p.valueY(pair, h.XEdges[q.ix+1])
			yr0 := p.valueY(pair+1, h.YEdges[q.iy])
			yr1 := p.valueY(pair+1, h.YEdges[q.iy+1])
			c.FillTrapezoid(xl, yl0, yl1, xr, yr0, yr1, l.Color, b)
		}
	}
	return nil
}

func (l *LineLayer) draw(p *Plot, c *render.Canvas) error {
	n := len(l.Values[p.axes[0].Var])
	for r := 0; r < n; r++ {
		for i := 0; i < len(p.axes)-1; i++ {
			x0 := p.axisX(i)
			x1 := p.axisX(i + 1)
			y0 := p.valueY(i, l.Values[p.axes[i].Var][r])
			y1 := p.valueY(i+1, l.Values[p.axes[i+1].Var][r])
			c.Line(x0, y0, x1, y1, l.Color, l.Alpha)
		}
	}
	return nil
}

func uniformEdges(edges []float64) bool {
	if len(edges) < 3 {
		return true
	}
	step := (edges[len(edges)-1] - edges[0]) / float64(len(edges)-1)
	for i := 1; i < len(edges); i++ {
		want := edges[0] + float64(i)*step
		if math.Abs(edges[i]-want) > 1e-9*math.Max(math.Abs(want), step) {
			return false
		}
	}
	return true
}
