package main

import (
	"fmt"
	"testing"

	"repro/internal/histogram"
	"repro/internal/query"
)

// --- Fig. 2: rendering modes -------------------------------------------------

func BenchmarkFig02Rendering(b *testing.B) {
	src := testSource(b)
	step := src.Steps() / 2
	vars := []string{"x", "y", "px", "py"}
	for _, bins := range []int{700, 80} {
		s := defaultStyle()
		s.contextBins = bins
		b.Run(fmt.Sprintf("HistogramBased/bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := focusPlot(src, step, vars, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("LineBased/subset", func(b *testing.B) {
		// Polyline rendering cost is proportional to record count, so the
		// paper only uses it for subsets; benchmark it on the accelerated
		// tail.
		sel := query.MustParse("px > 1e9")
		for i := 0; i < b.N; i++ {
			if _, err := linePlot(src, step, vars, sel, 0.35); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figs. 3/4: uniform vs adaptive binning ---------------------------------

func BenchmarkFig04AdaptiveVsUniform(b *testing.B) {
	src := testSource(b)
	step := src.Steps() / 2
	vars := []string{"x", "y", "px", "py"}
	for _, variant := range []struct {
		name    string
		binning histogram.Binning
	}{
		{"Uniform32", histogram.Uniform},
		{"Adaptive32", histogram.Adaptive},
	} {
		s := defaultStyle()
		s.contextBins, s.binning = 32, variant.binning
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := focusPlot(src, step, vars, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
