package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"repro/internal/histogram"
	"repro/internal/plan"
)

// sumFixture is a result with every field group populated, NaN included.
func sumFixture() *plan.FragmentResult {
	return &plan.FragmentResult{
		Count: 7,
		MinMax: []plan.VarRange{
			{Var: "x", Lo: -1.5, Hi: 2, N: 7},
			{Var: "px", Lo: math.NaN(), Hi: math.Inf(1), N: 3},
		},
		Hist1: &histogram.Hist1D{Var: "x", Edges: []float64{0, 0.5, 1}, Counts: []uint64{3, 4}},
		Hist2: &histogram.Hist2D{XVar: "x", YVar: "px",
			XEdges: []float64{0, 1, 2}, YEdges: []float64{-1, 0, 1},
			Counts: []uint64{1, 2, 3, 1}},
		Sel: []uint64{2, 3, 5, 7, 11, 13, 17},
	}
}

// TestResultSumDetectsEveryField: flipping any single count, edge,
// position, bound or variable name changes the checksum, and the sum
// survives a gob round trip of the reply it rides in.
func TestResultSumDetectsEveryField(t *testing.T) {
	base := resultSum(sumFixture())
	flips := map[string]func(r *plan.FragmentResult){
		"count":        func(r *plan.FragmentResult) { r.Count++ },
		"minmax lo":    func(r *plan.FragmentResult) { r.MinMax[0].Lo = math.Nextafter(r.MinMax[0].Lo, 0) },
		"minmax hi":    func(r *plan.FragmentResult) { r.MinMax[1].Hi = math.MaxFloat64 },
		"minmax n":     func(r *plan.FragmentResult) { r.MinMax[0].N-- },
		"minmax var":   func(r *plan.FragmentResult) { r.MinMax[1].Var = "py" },
		"minmax order": func(r *plan.FragmentResult) { r.MinMax[0], r.MinMax[1] = r.MinMax[1], r.MinMax[0] },
		"hist1 edge":   func(r *plan.FragmentResult) { r.Hist1.Edges[1] = 0.25 },
		"hist1 count":  func(r *plan.FragmentResult) { r.Hist1.Counts[0]++ },
		"hist1 var":    func(r *plan.FragmentResult) { r.Hist1.Var = "y" },
		"hist1 absent": func(r *plan.FragmentResult) { r.Hist1 = nil },
		"hist2 xedge":  func(r *plan.FragmentResult) { r.Hist2.XEdges[2] = 3 },
		"hist2 yedge":  func(r *plan.FragmentResult) { r.Hist2.YEdges[0] = math.Copysign(1, -1) * 2 },
		"hist2 count":  func(r *plan.FragmentResult) { r.Hist2.Counts[3] ^= 1 << 40 },
		"hist2 xvar":   func(r *plan.FragmentResult) { r.Hist2.XVar = "xx" },
		"hist2 vars":   func(r *plan.FragmentResult) { r.Hist2.XVar, r.Hist2.YVar = "xp", "x" },
		"sel position": func(r *plan.FragmentResult) { r.Sel[4] = 12 },
		"sel length":   func(r *plan.FragmentResult) { r.Sel = r.Sel[:6] },
		"negative zero": func(r *plan.FragmentResult) {
			r.Hist1.Edges[0] = math.Copysign(0, -1)
		},
	}
	for name, flip := range flips {
		r := sumFixture()
		flip(r)
		if resultSum(r) == base {
			t.Errorf("%s: checksum unchanged", name)
		}
	}

	reply := ExecReply{Result: sumFixture(), Sum: base}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&reply); err != nil {
		t.Fatal(err)
	}
	var got ExecReply
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Sum != base || resultSum(got.Result) != base {
		t.Fatalf("gob round trip: sent sum %08x, received %08x, recomputed %08x", base, got.Sum, resultSum(got.Result))
	}

	// gob delivers an empty slice as nil; both must sum alike.
	empty := &plan.FragmentResult{Sel: []uint64{}, MinMax: []plan.VarRange{}}
	if resultSum(empty) != resultSum(&plan.FragmentResult{}) {
		t.Fatal("empty and nil slices sum differently")
	}
}

// BenchmarkResultSum checksums a dense 2D histogram reply, the payload of
// a hist2d fragment, at the two sizes the explore workloads request.
func BenchmarkResultSum(b *testing.B) {
	for _, bins := range []int{256, 1024} {
		counts := make([]uint64, bins*bins)
		for i := range counts {
			counts[i] = uint64(i * 7 % 1000)
		}
		res := &plan.FragmentResult{Hist2: &histogram.Hist2D{XVar: "x", YVar: "px",
			XEdges: histogram.UniformEdges(-1, 1, bins), YEdges: histogram.UniformEdges(-2, 2, bins),
			Counts: counts}}
		b.Run(fmt.Sprintf("%dx%d", bins, bins), func(b *testing.B) {
			b.SetBytes(int64(8 * (len(counts) + 2*(bins+1))))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resultSum(res)
			}
		})
	}
}
