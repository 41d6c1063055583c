package fastbit

import (
	"context"
	"testing"

	"repro/internal/query"
)

// TestEvaluateApproxSupersetProperty: the index-only path admits boundary
// bins wholesale, so for negation-free queries its result must contain
// every exact match (a superset) while touching no raw data.
func TestEvaluateApproxSupersetProperty(t *testing.T) {
	si, mem, _ := buildTestStep(t, 8000, 31, IndexOptions{Bins: 64})
	// Negation flips a superset into a subset, so the guarantee is stated
	// for monotone queries only — the shapes the brownout path serves.
	queries := []string{
		"px > 1e9",
		"px > 1e9 && y > 0",
		"px > 1e9 && y < 1e-5 && x > 5e-4",
		"px < -1e8 || px > 1e9",
		"x >= 0.0005 && x < 0.0006",
		"px > 1e20",   // empty
		"px >= -1e20", // everything
	}
	for _, q := range queries {
		e := query.MustParse(q)

		exact := si.Evaluator(mem)
		want, err := exact.SelectCtx(context.Background(), e, 0, exact.N)
		if err != nil {
			t.Fatalf("%q exact: %v", q, err)
		}

		approx := si.Evaluator(nil) // no raw reader: index-only must not need one
		approx.Approx = true
		got, err := approx.EvalCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("%q approx: %v", q, err)
		}
		if got.Count() < uint64(len(want)) {
			t.Fatalf("%q: approx %d hits < exact %d — not a superset", q, got.Count(), len(want))
		}
		for _, p := range want {
			if !got.Get(p) {
				t.Fatalf("%q: exact match at position %d missing from approx result", q, p)
			}
		}
		if approx.Stats.CandidateChecks != 0 {
			t.Fatalf("%q: approx path performed %d candidate checks", q, approx.Stats.CandidateChecks)
		}
	}
}

// TestEvaluateApproxCtxCountsApproxRows: an approximate evaluation whose
// interval cuts through bin interiors must report its wholesale
// admissions, and the overcount must equal exactly the non-matching rows of boundary bins.
func TestEvaluateApproxCtxCountsApproxRows(t *testing.T) {
	si, mem, _ := buildTestStep(t, 4000, 32, IndexOptions{Bins: 32})
	ix := si.Columns["px"]
	if ix == nil {
		t.Fatal("no px index")
	}
	// An interval straddling bin interiors: pick a threshold strictly
	// inside the value range so at least one boundary bin exists.
	iv := query.Interval{Lo: 0, Hi: ix.Max()}
	raw := func(positions []uint64) ([]float64, error) {
		return mem.ValuesAt("px", positions)
	}

	exactV, exactSt, err := ix.EvaluateCtx(context.Background(), iv, Gathered(raw), 0, ix.N)
	if err != nil {
		t.Fatal(err)
	}
	approxV, approxSt, err := ix.evaluate(context.Background(), iv, nil, true, 0, ix.N)
	if err != nil {
		t.Fatal(err)
	}
	if exactSt.BoundaryBins == 0 {
		t.Skip("threshold landed on a bin edge; no boundary bins to approximate")
	}
	if approxSt.ApproxRows == 0 {
		t.Fatal("boundary bins present but ApproxRows = 0")
	}
	if approxSt.CandidateChecks != 0 {
		t.Fatalf("approx evaluation candidate-checked %d rows", approxSt.CandidateChecks)
	}
	if approxV.Count() < exactV.Count() {
		t.Fatalf("approx count %d < exact %d", approxV.Count(), exactV.Count())
	}
	// Every approx-admitted row is in a boundary bin: the overcount is
	// bounded by the wholesale admissions minus the checks that would have
	// passed.
	over := approxV.Count() - exactV.Count()
	if over > approxSt.ApproxRows {
		t.Fatalf("overcount %d exceeds ApproxRows %d", over, approxSt.ApproxRows)
	}
}

// TestEvalStatsAccumulateApproxRows: ApproxRows must survive the
// per-term accumulation used by the evaluator.
func TestEvalStatsAccumulateApproxRows(t *testing.T) {
	si, mem, _ := buildTestStep(t, 4000, 33, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	ev.Approx = true
	if _, err := ev.EvalCtx(context.Background(), query.MustParse("px > 1 && x > 1e-4")); err != nil {
		t.Fatal(err)
	}
	if ev.Stats.ApproxRows == 0 {
		t.Fatal("compound approx eval accumulated no ApproxRows")
	}
}
