package bitmap

import (
	"math/rand"
	"testing"
)

// Index-shaped benchmark inputs: the 256 bin bitmaps of one column over
// 300 000 rows, built the way fastbit.BuildIndex streams them.
const (
	benchRows = 300000
	benchBins = 256
)

// indexBins returns one bitmap per bin, bin[row] naming the bin of each row.
func indexBins(bin []int) []*Vector {
	vs := make([]*Vector, benchBins)
	cursor := make([]uint64, benchBins)
	for i := range vs {
		vs[i] = New(uint64(len(bin)))
	}
	for row, b := range bin {
		vs[b].AppendRun(false, uint64(row)-cursor[b])
		vs[b].AppendBit(true)
		cursor[b] = uint64(row) + 1
	}
	for b, v := range vs {
		v.AppendRun(false, uint64(len(bin))-cursor[b])
	}
	return vs
}

// scatteredBins models a column uncorrelated with row order (y): every
// bin is scattered over all rows, so its bitmap is mostly literals.
func scatteredBins() []*Vector {
	rng := rand.New(rand.NewSource(1))
	bin := make([]int, benchRows)
	for i := range bin {
		bin[i] = rng.Intn(benchBins)
	}
	return indexBins(bin)
}

// runBins models a column that follows row order with jitter (xrel):
// every bin is one run of rows with ragged edges, a few dozen words.
func runBins() []*Vector {
	rng := rand.New(rand.NewSource(2))
	bin := make([]int, benchRows)
	for i := range bin {
		v := float64(i) + 300*rng.NormFloat64()
		b := int(v * benchBins / benchRows)
		if b < 0 {
			b = 0
		}
		if b >= benchBins {
			b = benchBins - 1
		}
		bin[i] = b
	}
	return indexBins(bin)
}

var benchSink *Vector

// benchOrAll times OrAll on the given bins, per input word.
func benchOrAll(b *testing.B, in []*Vector) {
	words := 0
	for _, v := range in {
		words += v.Words()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = OrAll(in)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
}

// BenchmarkOrAllScattered and BenchmarkOrAllRuns OR the 192 lowest bins,
// the width of a one-sided range that leaves a quarter of the bins out.
func BenchmarkOrAllScattered(b *testing.B) { benchOrAll(b, scatteredBins()[:3*benchBins/4]) }

func BenchmarkOrAllRuns(b *testing.B) { benchOrAll(b, runBins()[:3*benchBins/4]) }

// BenchmarkOrAllTail ORs the two highest run bins, a one-sided range over
// the top of a value-ordered column: a few hundred words against ~9 700
// output groups.
func BenchmarkOrAllTail(b *testing.B) { benchOrAll(b, runBins()[benchBins-2:]) }

// BenchmarkAnd intersects the ORs of half a scattered and half a run
// column's bins, the shape of a two-variable condition.
func BenchmarkAnd(b *testing.B) {
	x := OrAll(scatteredBins()[:benchBins/2])
	y := OrAll(runBins()[benchBins/4 : 3*benchBins/4])
	words := x.Words() + y.Words()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = x.And(y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
}

var benchPositions []uint64

// BenchmarkPositionsIn reads the set positions of the last third of a
// 300 000-bit vector, the window of the third of three shards: a sparse
// scattered bin (mostly literals) and the OR of the upper run bins (one
// long ones-fill across the window). "iterate" is the walk it replaces,
// a per-bit Iterate callback filtered to the window.
func BenchmarkPositionsIn(b *testing.B) {
	lo, hi := uint64(2*benchRows/3), uint64(benchRows)
	for _, s := range []struct {
		name string
		v    *Vector
	}{
		{"sparse", scatteredBins()[0]},
		{"ones", OrAll(runBins()[benchBins/2:])},
	} {
		b.Run(s.name+"/PositionsIn", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPositions = s.v.PositionsIn(lo, hi)
			}
		})
		b.Run(s.name+"/iterate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out []uint64
				s.v.Iterate(func(p uint64) bool {
					if p >= hi {
						return false
					}
					if p >= lo {
						out = append(out, p)
					}
					return true
				})
				benchPositions = out
			}
		})
	}
}
