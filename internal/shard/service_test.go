package shard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
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
			{Var: "py", Lo: math.Copysign(0, -1), Hi: 0, N: 1}, // gob alone sends -0 as +0
		},
		Hist1: &histogram.Hist1D{Var: "x", Edges: []float64{0, 0.5, 1}, Counts: []uint64{3, 4}},
		Hist2: &histogram.Hist2D{XVar: "x", YVar: "px",
			XEdges: []float64{0, 1, 2}, YEdges: []float64{-1, 0, 1},
			Counts: []uint64{1, 2, 0, 1}},
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
		"hist2 cell":   func(r *plan.FragmentResult) { r.Hist2.Counts[2] = 1 }, // zero → non-zero
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
	// The received histograms are decoded partials (cells, not dense
	// counts), and a dense partial and its decode sum alike.
	if got.Result.Hist1.Counts != nil || got.Result.Hist2.Counts != nil {
		t.Fatal("gob round trip delivered dense counts")
	}

	// gob delivers an empty slice as nil; both must sum alike.
	empty := &plan.FragmentResult{Sel: []uint64{}, MinMax: []plan.VarRange{}}
	if resultSum(empty) != resultSum(&plan.FragmentResult{}) {
		t.Fatal("empty and nil slices sum differently")
	}
}

// TestCorruptReplyNeverMerges: flipping any byte of a gob-encoded reply
// that carries 1D and 2D partials either fails the decode, fails the
// checksum, or gives back the original result — never a wrong partial.
func TestCorruptReplyNeverMerges(t *testing.T) {
	res := &plan.FragmentResult{
		Count:  99,
		MinMax: []plan.VarRange{{Var: "x", Lo: -1.5, Hi: 2, N: 99}},
		Hist1:  &histogram.Hist1D{Var: "x", Edges: histogram.UniformEdges(-2, 2, 16), Counts: make([]uint64, 16)},
		Hist2: &histogram.Hist2D{XVar: "x", YVar: "px", XEdges: histogram.UniformEdges(-2, 2, 12),
			YEdges: histogram.UniformEdges(0, 1, 9), Counts: make([]uint64, 12*9)},
		Sel: []uint64{3, 8, 200, 1 << 33},
	}
	for i := range res.Hist1.Counts {
		res.Hist1.Counts[i] = uint64(i%3) * uint64(1+i*40)
	}
	for i := 0; i < len(res.Hist2.Counts); i += 5 {
		res.Hist2.Counts[i] = uint64(1 + i*i*i)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ExecReply{Result: res, Sum: resultSum(res)}); err != nil {
		t.Fatal(err)
	}
	want := answerBytes(t, res)
	wire := buf.Bytes()
	decoded, summed := 0, 0
	for i := range wire {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(wire)
			bad[i] ^= mask
			var got ExecReply
			if err := gob.NewDecoder(bytes.NewReader(bad)).Decode(&got); err != nil || got.Result == nil {
				continue
			}
			decoded++
			if resultSum(got.Result) != got.Sum {
				continue
			}
			summed++
			if a := answerBytes(t, got.Result); !bytes.Equal(a, want) {
				t.Fatalf("byte %d ^ %#x: a corrupted reply passed its checksum with a different result", i, mask)
			}
		}
	}
	t.Logf("%d bytes × 3 flips: %d decoded, %d passed the checksum unchanged", len(wire), decoded, summed)
}

// answerBytes renders a partial with its histograms dense, so a decoded
// partial and its dense original compare equal.
func answerBytes(t *testing.T, r *plan.FragmentResult) []byte {
	t.Helper()
	c := *r
	if c.Hist1 != nil {
		c.Hist1 = c.Hist1.Dense()
	}
	if c.Hist2 != nil {
		c.Hist2 = c.Hist2.Dense()
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkResultSum checksums the payload of a hist2d fragment reply at
// the two sizes the explore workloads request: fully dense (the
// worst case, a dense partial encoded on the fly) and 1 % occupied as a
// decoded partial (what the frontend checks per selective fragment).
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
		sparse := make([]uint64, bins*bins)
		for i := 0; i < len(sparse); i += 100 {
			sparse[i] = counts[i] + 1
		}
		enc, err := (&histogram.Hist2D{XVar: "x", YVar: "px", XEdges: res.Hist2.XEdges, YEdges: res.Hist2.YEdges,
			Counts: sparse}).GobEncode()
		if err != nil {
			b.Fatal(err)
		}
		dec := &plan.FragmentResult{Hist2: new(histogram.Hist2D)}
		if err := dec.Hist2.GobDecode(enc); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx%d-1pct-decoded", bins, bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resultSum(dec)
			}
		})
	}
}
