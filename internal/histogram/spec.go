package histogram

import "math"

// Spec2D describes a requested 2D histogram: the variable pair, the bin
// counts, the binning strategy, and optional fixed ranges. Unset ranges
// (NaN) are derived from the data being binned, which is how the system
// supports smooth drill-down at arbitrary resolution.
type Spec2D struct {
	XVar, YVar   string
	XBins, YBins int
	Binning      Binning
	XLo, XHi     float64 // NaN when unset
	YLo, YHi     float64 // NaN when unset
	MinDensity   float64 // optional adaptive density floor (records/width)
	// XCuts and YCuts are set by a fleet's planner only: an adaptive axis
	// resolved to the edges it keeps of UniformEdges(lo, hi,
	// AdaptiveRefine·bins), as their indices (AdaptiveCuts).
	XCuts, YCuts []int
}

// NewSpec2D returns a uniform spec with unset ranges.
func NewSpec2D(xvar, yvar string, xbins, ybins int) Spec2D {
	return Spec2D{
		XVar: xvar, YVar: yvar,
		XBins: xbins, YBins: ybins,
		XLo: math.NaN(), XHi: math.NaN(),
		YLo: math.NaN(), YHi: math.NaN(),
	}
}

// WithBinning returns a copy of the spec with the given binning strategy.
func (s Spec2D) WithBinning(b Binning) Spec2D {
	s.Binning = b
	return s
}

// WithXRange returns a copy of the spec with a fixed X range.
func (s Spec2D) WithXRange(lo, hi float64) Spec2D {
	s.XLo, s.XHi = lo, hi
	return s
}

// WithYRange returns a copy of the spec with a fixed Y range.
func (s Spec2D) WithYRange(lo, hi float64) Spec2D {
	s.YLo, s.YHi = lo, hi
	return s
}

// HasXRange reports whether the spec fixes the X range.
func (s Spec2D) HasXRange() bool { return !math.IsNaN(s.XLo) && !math.IsNaN(s.XHi) }

// HasYRange reports whether the spec fixes the Y range.
func (s Spec2D) HasYRange() bool { return !math.IsNaN(s.YLo) && !math.IsNaN(s.YHi) }

// Spec1D describes a requested 1D histogram.
type Spec1D struct {
	Var        string
	Bins       int
	Binning    Binning
	Lo, Hi     float64 // NaN when unset
	MinDensity float64
	Cuts       []int // as Spec2D.XCuts
}

// NewSpec1D returns a uniform 1D spec with unset range.
func NewSpec1D(v string, bins int) Spec1D {
	return Spec1D{Var: v, Bins: bins, Lo: math.NaN(), Hi: math.NaN()}
}

// HasRange reports whether the spec fixes the value range.
func (s Spec1D) HasRange() bool { return !math.IsNaN(s.Lo) && !math.IsNaN(s.Hi) }
