package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/plan"
)

// TestCorruptReplyNeverMerges: flipping any byte of a gob-encoded reply
// that carries 1D and 2D partials either fails the decode or gives back
// the original result — never a wrong partial.
func TestCorruptReplyNeverMerges(t *testing.T) {
	res := &plan.FragmentResult{
		Count:  99,
		MinMax: []plan.VarRange{{Var: "x", Lo: -1.5, Hi: 2, N: 99}},
		Sel:    []uint64{3, 8, 200, 1 << 33},
	}
	h1 := &histogram.Hist1D{Var: "x", Edges: histogram.UniformEdges(-2, 2, 16), Counts: make([]uint64, 16)}
	h2 := &histogram.Hist2D{XVar: "x", YVar: "px", XEdges: histogram.UniformEdges(-2, 2, 12),
		YEdges: histogram.UniformEdges(0, 1, 9), Counts: make([]uint64, 12*9)}
	for i := range h1.Counts {
		h1.Counts[i] = uint64(i%3) * uint64(1+i*40)
	}
	for i := 0; i < len(h2.Counts); i += 5 {
		h2.Counts[i] = uint64(1 + i*i*i)
	}
	res.Hist1, res.Hist2 = h1.Cells(), h2.Cells()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&ExecReply{Result: res}); err != nil {
		t.Fatal(err)
	}
	want := answerBytes(t, res)
	wire := buf.Bytes()
	decoded := 0
	for i := range wire {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(wire)
			bad[i] ^= mask
			var got ExecReply
			if err := gob.NewDecoder(bytes.NewReader(bad)).Decode(&got); err != nil || got.Result == nil {
				continue
			}
			decoded++
			if a := answerBytes(t, got.Result); !bytes.Equal(a, want) {
				t.Fatalf("byte %d ^ %#x: a corrupted reply decoded to a different result", i, mask)
			}
		}
	}
	t.Logf("%d bytes × 3 flips: %d decoded unchanged", len(wire), decoded)
}

// answerBytes renders a partial as its frame, which is canonical: a
// decoded partial and its original compare equal.
func answerBytes(t *testing.T, r *plan.FragmentResult) []byte {
	t.Helper()
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecArgsRoundTrip: a fragment crosses gob in ExecArgs with every
// float's bits intact — a -0 range bound stays -0, which gob's own struct
// encoding drops to +0 — and an adaptive axis's cuts with it, so the
// shard keys and bins it as it was sent.
func TestExecArgsRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	frags := []plan.Fragment{
		{Op: plan.FragHist1D, Dataset: "lwfa", Step: 3, Rows: plan.RowRange{Lo: 10, Hi: 90}, Query: "px > 0",
			Backend: fastquery.Scan, Spec1: histogram.Spec1D{Var: "x", Bins: 8, Lo: negZero, Hi: negZero, MinDensity: negZero}},
		{Op: plan.FragHist2D, Dataset: "lwfa", Step: -1, Spec2: histogram.NewSpec2D("x", "px", 4, 5).
			WithXRange(negZero, 1).WithYRange(-1, negZero).WithBinning(histogram.Adaptive)},
		{Op: plan.FragHist2D, Dataset: "lwfa", Step: 1, Rows: plan.RowRange{Lo: 0, Hi: 7}, Spec2: histogram.Spec2D{
			XVar: "x", YVar: "px", XBins: 2, YBins: 3, Binning: histogram.Adaptive, MinDensity: negZero,
			XLo: negZero, XHi: 1, YLo: -1, YHi: negZero, XCuts: []int{0, 5, 16}, YCuts: []int{0, 1, 23, 24}}},
		{Op: plan.FragMinMax, Vars: []string{"x", "", "px"}, Spec1: histogram.NewSpec1D("x", 2)},
		{Op: plan.FragSelect, Rows: plan.RowRange{Lo: 1 << 40, Hi: math.MaxUint64}},
	}
	for _, f := range frags {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&ExecArgs{Frag: f, TraceID: "t", BudgetMS: -1}); err != nil {
			t.Fatal(err)
		}
		var got ExecArgs
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Frag.Key() != f.Key() || fmt.Sprintf("%#v", got.Frag) != fmt.Sprintf("%#v", f) ||
			got.TraceID != "t" || got.BudgetMS != -1 {
			t.Errorf("sent %#v\nreceived %#v", f, got.Frag)
		}
	}
	good, _ := frags[0].MarshalBinary()
	for _, bad := range [][]byte{nil, good[:len(good)-1], append(bytes.Clone(good), 0)} {
		if err := new(plan.Fragment).UnmarshalBinary(bad); err == nil {
			t.Errorf("decoded malformed %x", bad)
		}
	}
}
