package fastbit

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// refStats classifies bins one at a time straight from their bounds and
// granules, trivial ranges first — the oracle for classify's counts.
// candidates is the number of records in boundary bins.
func refStats(ix *Index, iv query.Interval) (st EvalStats, candidates uint64) {
	nb := ix.Bins()
	if iv.Hi < ix.Min() || (iv.Hi == ix.Min() && iv.HiOpen) || iv.Lo > ix.Max() || (iv.Lo == ix.Max() && iv.LoOpen) {
		return st, 0
	}
	if iv.Contains(ix.Min()) && iv.Contains(ix.Max()) {
		st.FullBins = nb
		return st, 0
	}
	for b := 0; b < nb; b++ {
		blo, bhi := ix.Bounds[b], ix.Bounds[b+1]
		last := b == nb-1
		switch {
		case !binOverlaps(iv, blo, bhi, last):
		case binInside(iv, blo, bhi, last):
			st.FullBins++
		case ix.binResolvedByGranule(iv, b):
			if iv.Contains(ix.BinMin[b]) {
				st.FullBins++
			}
		default:
			st.BoundaryBins++
			candidates += ix.Bitmaps[b].Count()
		}
	}
	return st, candidates
}

// cutPoints returns every bin boundary, every bin midpoint and ±Inf.
func cutPoints(ix *Index) []float64 {
	pts := []float64{math.Inf(-1), math.Inf(1)}
	for b, lo := range ix.Bounds {
		pts = append(pts, lo)
		if b < ix.Bins() {
			pts = append(pts, lo+(ix.Bounds[b+1]-lo)/2)
		}
	}
	return pts
}

// TestRangeEvaluationEveryCut evaluates every interval between two cut
// points — bands wider and narrower than half the bins, all but the
// boundary bins, touching min and max, inverted and empty, one-sided
// through ±Inf — with every openness, on a column scattered over the rows
// (literal-heavy bins, where wide ranges OR the complement) and one that
// follows row order (bins of runs). Evaluate must equal the scan,
// EvaluateApprox must contain it, and both must resolve the bins the
// oracle classification names.
func TestRangeEvaluationEveryCut(t *testing.T) {
	const rows, bins = 3000, 16
	rng := rand.New(rand.NewSource(22))
	scattered := make([]float64, rows)
	ordered := make([]float64, rows)
	for i := range scattered {
		scattered[i] = rng.Float64()
		ordered[i] = float64(i) + 40*rng.NormFloat64()
	}
	for name, vals := range map[string][]float64{"scattered": scattered, "ordered": ordered} {
		ix, err := BuildIndex(name, vals, IndexOptions{Bins: bins})
		if err != nil {
			t.Fatal(err)
		}
		raw := func(pos []uint64) ([]float64, error) { return MemReader{name: vals}.ValuesAt(name, pos) }
		pts := cutPoints(ix)
		for _, lo := range pts {
			for _, hi := range pts {
				for _, open := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
					iv := query.Interval{Lo: lo, Hi: hi, LoOpen: open[0], HiOpen: open[1]}
					want, cand := refStats(ix, iv)

					st := evalBoth(t, ix, vals, iv)
					if want.CandidateChecks = cand; st != want {
						t.Fatalf("%s %v: exact stats %+v, want %+v", name, iv, st, want)
					}

					exact, _, err := ix.EvaluateCtx(context.Background(), iv, Gathered(raw), 0, ix.N)
					if err != nil {
						t.Fatal(err)
					}
					approx, ast, err := ix.evaluate(context.Background(), iv, nil, true, 0, ix.N)
					if err != nil {
						t.Fatal(err)
					}
					if want.CandidateChecks, want.ApproxRows = 0, cand; ast != want {
						t.Fatalf("%s %v: approx stats %+v, want %+v", name, iv, ast, want)
					}
					got := approx.Count() - exact.Count()
					if exact.OrWith(approx); approx.Len() != ix.N || exact.Count() != approx.Count() {
						t.Fatalf("%s %v: approximate answer is not a superset of the exact one", name, iv)
					}
					if got > cand {
						t.Fatalf("%s %v: approximate answer admits %d extra rows, boundary bins hold %d", name, iv, got, cand)
					}
				}
			}
		}
	}
}
