package render

import (
	"image/color"
	"math"
)

// Colormap maps a normalised value in [0, 1] to a colour.
type Colormap func(t float64) color.RGBA

// Rainbow is the jet-style map the paper's pseudocolor plots use
// (blue = low → red = high).
func Rainbow(t float64) color.RGBA {
	t = clamp01(t)
	// Piecewise linear blue -> cyan -> green -> yellow -> red.
	var r, g, b float64
	switch {
	case t < 0.25:
		r, g, b = 0, t/0.25, 1
	case t < 0.5:
		r, g, b = 0, 1, 1-(t-0.25)/0.25
	case t < 0.75:
		r, g, b = (t-0.5)/0.25, 1, 0
	default:
		r, g, b = 1, 1-(t-0.75)/0.25, 0
	}
	return color.RGBA{
		R: uint8(math.Round(255 * r)),
		G: uint8(math.Round(255 * g)),
		B: uint8(math.Round(255 * b)),
		A: 255,
	}
}

// Heat maps [0, 1] to black→red→yellow→white.
func Heat(t float64) color.RGBA {
	t = clamp01(t)
	r := clamp01(3 * t)
	g := clamp01(3*t - 1)
	b := clamp01(3*t - 2)
	return color.RGBA{
		R: uint8(math.Round(255 * r)),
		G: uint8(math.Round(255 * g)),
		B: uint8(math.Round(255 * b)),
		A: 255,
	}
}

func clamp01(t float64) float64 {
	if math.IsNaN(t) || t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// Normalize returns a function mapping [lo, hi] linearly onto [0, 1].
func Normalize(lo, hi float64) func(v float64) float64 {
	span := hi - lo
	if span <= 0 {
		return func(float64) float64 { return 0.5 }
	}
	return func(v float64) float64 { return clamp01((v - lo) / span) }
}
