package fastbit

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// BenchmarkSelectCtx times one selection over 300 000 rows indexed with
// 256 bins: a band on a column scattered over the rows (literal-heavy
// bins; the band ORs the complement and candidate-checks its two edge
// bins) and a cut on a column that follows row order (bins of runs), each
// over the whole step and over its last third, the shape of a shard's
// fragment; and the band over its last third through an index cut to it,
// the shape a shard keeps, whose bitmaps start at the window.
func BenchmarkSelectCtx(b *testing.B) {
	const rows, bins = 300_000, 256
	rng := rand.New(rand.NewSource(35))
	scattered := make([]float64, rows)
	sorted := make([]float64, rows)
	for i := range scattered {
		scattered[i] = rng.NormFloat64()
		sorted[i] = float64(i) + 50*rng.NormFloat64()
	}
	cols := map[string][]float64{"scattered": scattered, "sorted": sorted}
	si, err := BuildStepIndex(cols, nil, "", IndexOptions{Bins: bins})
	if err != nil {
		b.Fatal(err)
	}
	whole := si.Evaluator(MemReader(cols))
	cut := &Evaluator{N: rows, Indexes: map[string]*Index{}, Raw: MemReader(cols)}
	for name, ix := range si.Columns {
		cut.Indexes[name] = ix.cut(2*rows/3, rows)
	}
	terms := []struct{ name, q string }{
		{"band", "scattered > -0.8 && scattered < 0.9"},
		{"runs", "sorted > 123456.5"},
	}
	windows := []struct {
		name   string
		ev     *Evaluator
		lo, hi uint64
	}{{"whole", whole, 0, rows}, {"last-third", whole, 2 * rows / 3, rows}, {"cut-last-third", cut, 2 * rows / 3, rows}}
	for _, tm := range terms {
		e := query.MustParse(tm.q)
		for _, w := range windows {
			if w.ev == cut && tm.name != "band" {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", tm.name, w.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := w.ev.SelectCtx(context.Background(), e, w.lo, w.hi); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHistogramFromBitmaps times the index-only histograms (the
// brownout rung's) over 300 000 rows: 1D over a column scattered over the
// rows at 256 bins, and 2D of that column against one that follows row
// order at 64×64 bins, either axis first; each unconditional, under a
// condition most rows pass and under a selective one.
func BenchmarkHistogramFromBitmaps(b *testing.B) {
	const rows = 300_000
	rng := rand.New(rand.NewSource(45))
	cols := map[string][]float64{"scattered": make([]float64, rows), "sorted": make([]float64, rows), "y": make([]float64, rows)}
	for i := 0; i < rows; i++ {
		cols["scattered"][i] = rng.NormFloat64()
		cols["sorted"][i] = float64(i) + 50*rng.NormFloat64()
		cols["y"][i] = rng.NormFloat64()
	}
	fine, err := BuildStepIndex(cols, nil, "", IndexOptions{Bins: 256})
	if err != nil {
		b.Fatal(err)
	}
	coarse, err := BuildStepIndex(cols, nil, "", IndexOptions{Bins: 64})
	if err != nil {
		b.Fatal(err)
	}
	ev1, ev2 := fine.Evaluator(MemReader(cols)), coarse.Evaluator(MemReader(cols))
	for _, c := range []struct {
		name string
		cond query.Expr
	}{{"unconditional", nil}, {"conditional", query.MustParse("y > -0.5")}, {"selective", query.MustParse("y > 2.5")}} {
		b.Run("1D/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev1.Histogram1DFromBitmapsCtx(context.Background(), c.cond, "scattered"); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, xy := range [][2]string{{"scattered", "sorted"}, {"sorted", "scattered"}} {
			b.Run(fmt.Sprintf("2D-%s-%s/%s", xy[0], xy[1], c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ev2.Histogram2DFromBitmapsCtx(context.Background(), c.cond, xy[0], xy[1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
