// Package render is a small software rasteriser used to draw parallel
// coordinates plots into an image.RGBA: filled trapezoids (histogram
// bins), anti-alias-free lines (polylines, axes) and alpha blending. It
// stands in for the OpenGL rendering VisIt performs; everything the plots
// need is expressible with these primitives.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
)

// Canvas is a mutable RGBA image with blending helpers.
type Canvas struct {
	img *image.RGBA
	w   int
	h   int
}

// NewCanvas returns a canvas of the given size filled with bg.
func NewCanvas(w, h int, bg color.RGBA) (*Canvas, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("render: invalid canvas size %dx%d", w, h)
	}
	c := &Canvas{img: image.NewRGBA(image.Rect(0, 0, w, h)), w: w, h: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c.img.SetRGBA(x, y, bg)
		}
	}
	return c, nil
}

// Size returns the canvas dimensions.
func (c *Canvas) Size() (w, h int) { return c.w, c.h }

// At returns the pixel color at (x, y); out-of-range reads return zero.
func (c *Canvas) At(x, y int) color.RGBA {
	if x < 0 || y < 0 || x >= c.w || y >= c.h {
		return color.RGBA{}
	}
	return c.img.RGBAAt(x, y)
}

// Blend composites col over the pixel at (x, y) with the given opacity in
// [0, 1]. Out-of-range pixels are ignored.
func (c *Canvas) Blend(x, y int, col color.RGBA, alpha float64) {
	if x < 0 || y < 0 || x >= c.w || y >= c.h {
		return
	}
	if alpha <= 0 {
		return
	}
	if alpha > 1 {
		alpha = 1
	}
	dst := c.img.RGBAAt(x, y)
	blend := func(s, d uint8) uint8 {
		v := alpha*float64(s) + (1-alpha)*float64(d)
		return uint8(math.Round(math.Min(255, math.Max(0, v))))
	}
	c.img.SetRGBA(x, y, color.RGBA{
		R: blend(col.R, dst.R),
		G: blend(col.G, dst.G),
		B: blend(col.B, dst.B),
		A: 255,
	})
}

// FillTrapezoid blends the region between two vertical segments: the
// segment (yl0..yl1) at x = xl and the segment (yr0..yr1) at x = xr. This
// is the primitive for a histogram-based parallel coordinates bin: it
// connects a value range on one axis to a value range on the next, and it
// degenerates gracefully to a quadrilateral with parallel sides (uniform
// bins) or differing extents (adaptive bins).
func (c *Canvas) FillTrapezoid(xl float64, yl0, yl1 float64, xr float64, yr0, yr1 float64, col color.RGBA, alpha float64) {
	if xr < xl {
		xl, xr = xr, xl
		yl0, yr0 = yr0, yl0
		yl1, yr1 = yr1, yl1
	}
	if yl0 > yl1 {
		yl0, yl1 = yl1, yl0
	}
	if yr0 > yr1 {
		yr0, yr1 = yr1, yr0
	}
	x0 := int(math.Floor(xl))
	x1 := int(math.Ceil(xr))
	span := xr - xl
	for x := x0; x <= x1; x++ {
		t := 0.0
		if span > 0 {
			t = (float64(x) - xl) / span
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
		}
		top := yl0 + t*(yr0-yl0)
		bot := yl1 + t*(yr1-yl1)
		yTop := int(math.Round(top))
		yBot := int(math.Round(bot))
		if yBot < yTop {
			yTop, yBot = yBot, yTop
		}
		for y := yTop; y <= yBot; y++ {
			c.Blend(x, y, col, alpha)
		}
	}
}

// Line blends a straight line from (x0, y0) to (x1, y1) using a DDA walk.
func (c *Canvas) Line(x0, y0, x1, y1 float64, col color.RGBA, alpha float64) {
	dx, dy := x1-x0, y1-y0
	steps := int(math.Max(math.Abs(dx), math.Abs(dy))) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		c.Blend(int(math.Round(x0+t*dx)), int(math.Round(y0+t*dy)), col, alpha)
	}
}

// VLine blends a vertical line.
func (c *Canvas) VLine(x int, y0, y1 int, col color.RGBA, alpha float64) {
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		c.Blend(x, y, col, alpha)
	}
}

// HLine blends a horizontal line.
func (c *Canvas) HLine(x0, x1 int, y int, col color.RGBA, alpha float64) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	for x := x0; x <= x1; x++ {
		c.Blend(x, y, col, alpha)
	}
}

// EncodePNG writes the canvas as PNG.
func (c *Canvas) EncodePNG(w io.Writer) error { return png.Encode(w, c.img) }

// SavePNG writes the canvas to a PNG file.
func (c *Canvas) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if err := c.EncodePNG(f); err != nil {
		f.Close()
		return fmt.Errorf("render: encode %s: %w", path, err)
	}
	return f.Close()
}
