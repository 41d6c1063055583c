package histogram

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// beamPairs returns n (x, px) pairs shaped like a beam's phase space: x
// monotone along the rows, px a Gaussian bulk with a 3 % accelerated tail
// over two decades, and edges that leave about 2 % of the pairs out of
// range — the lowest and highest 1 % of px.
func beamPairs(n int, bins int) (xs, ys, xe, ye []float64) {
	rng := rand.New(rand.NewSource(39))
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = 1e-3 * (float64(i) + rng.Float64()) / float64(n)
		if rng.Float64() < 0.03 {
			ys[i] = math.Pow(10, 9+2*rng.Float64())
		} else {
			ys[i] = 1e8 * rng.NormFloat64()
		}
	}
	sorted := slices.Clone(ys)
	slices.Sort(sorted)
	return xs, ys, UniformEdges(xs[0], xs[n-1], bins), UniformEdges(sorted[n/100], sorted[n-1-n/100], bins)
}

// uniformPairs returns n pairs uniform over [0, 1)², all in range.
func uniformPairs(n int, bins int) (xs, ys, xe, ye []float64) {
	rng := rand.New(rand.NewSource(40))
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	e := UniformEdges(0, 1, bins)
	return xs, ys, e, e
}

// BenchmarkBin2D times the binning loop alone, binGrid over a grid that
// is never cleared (the counts only grow), in ns per pair: the
// unit behind histogram.compute2d_ns_per_value, at 256² and 1024², on
// beam-shaped and on uniform pairs.
func BenchmarkBin2D(b *testing.B) {
	const n = 100_000
	for _, shape := range []struct {
		name  string
		pairs func(n, bins int) (xs, ys, xe, ye []float64)
	}{{"beam", beamPairs}, {"uniform", uniformPairs}} {
		for _, bins := range []int{256, 1024} {
			xs, ys, xe, ye := shape.pairs(n, bins)
			lx, err := NewLocator(xe)
			if err != nil {
				b.Fatal(err)
			}
			ly, err := NewLocator(ye)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dx%d", shape.name, bins, bins), func(b *testing.B) {
				g := make([]uint32, bins*bins)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := binGrid(context.Background(), g, lx, ly, xs, ys); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pair")
			})
		}
	}
}
