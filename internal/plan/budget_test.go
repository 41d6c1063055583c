package plan

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/fastquery"
	"repro/internal/histogram"
)

// budgetRunner wraps fakeRunner, answering marked budget-exhaustion for
// the chosen shards — the error shape a fragment produces when it arrives
// with (or runs into) a spent deadline budget.
type budgetRunner struct {
	fakeRunner
	exhaustShards map[int]bool
}

func (r *budgetRunner) RunFragment(ctx context.Context, shard int, f Fragment) (*FragmentResult, error) {
	if r.exhaustShards[shard] {
		return nil, fastquery.Exhaustedf("shard %d: fragment arrived with budget already spent", shard)
	}
	return r.fakeRunner.RunFragment(ctx, shard, f)
}

// TestBudgetExhaustionPartials is the contract table: a fragment whose
// deadline budget was already spent yields a marked-partial merge — never
// an error (the serve layer would turn that into a 504) — under BOTH
// policies, unlike ordinary shard failures which stay errors under
// FailFast.
func TestBudgetExhaustionPartials(t *testing.T) {
	m := ShardMap{Shards: 4}
	countQ := Query{Op: OpCount, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan}
	h1Q := Query{Op: OpHist1D, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan,
		Spec1: histogram.Spec1D{Var: "x", Bins: 8, Lo: 0, Hi: 1}}
	h2Q := Query{Op: OpHist2D, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan,
		Spec2: histogram.Spec2D{XVar: "x", YVar: "y", XBins: 4, YBins: 4,
			XLo: 0, XHi: 1, YLo: 0, YHi: 1}}
	// Adaptive binning routes wholesale to the key's home shard: budget
	// exhaustion there must also settle as a marked-partial empty answer.
	adaptiveQ := Query{Op: OpHist1D, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan,
		Spec1: histogram.Spec1D{Var: "x", Bins: 8, Lo: 0, Hi: 1, Binning: histogram.Adaptive}}
	// Without an explicit range the wholesale fallback has no spec edges
	// to reuse: it must still answer finite, encodable edges.
	unrangedAdaptiveQ := Query{Op: OpHist1D, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan,
		Spec1: histogram.Spec1D{Var: "x", Bins: 8, Lo: math.NaN(), Hi: math.NaN(), Binning: histogram.Adaptive}}
	unrangedH1Q := Query{Op: OpHist1D, Dataset: "d", Backend: fastquery.Scan,
		Spec1: histogram.NewSpec1D("x", 16)}
	unrangedH2Q := Query{Op: OpHist2D, Dataset: "d", Backend: fastquery.Scan,
		Spec2: histogram.NewSpec2D("x", "y", 4, 4)}
	wholesale := map[string]bool{"adaptive-wholesale": true, "unranged-adaptive": true,
		"unranged-hist1d": true, "unranged-hist2d": true}

	for _, policy := range []PartialPolicy{FailFast, ReturnPartial} {
		for name, q := range map[string]Query{
			"count": countQ, "hist1d": h1Q, "hist2d": h2Q, "adaptive-wholesale": adaptiveQ,
			"unranged-adaptive": unrangedAdaptiveQ, "unranged-hist1d": unrangedH1Q, "unranged-hist2d": unrangedH2Q,
		} {
			exhaust := map[int]bool{2: true}
			if wholesale[name] {
				// Wholesale runs only on the home shard; exhaust every
				// shard so the single fragment is hit regardless of home.
				exhaust = map[int]bool{0: true, 1: true, 2: true, 3: true}
			}
			r := &budgetRunner{exhaustShards: exhaust}
			res, err := Execute(context.Background(), q, m, 1000, r, policy)
			if err != nil {
				t.Fatalf("%s/policy=%d: budget exhaustion escalated to error: %v", name, policy, err)
			}
			if !res.Partial || len(res.Failed) == 0 {
				t.Fatalf("%s/policy=%d: res = %+v, want marked partial", name, policy, res)
			}
			var edges []float64
			switch q.Op {
			case OpHist1D:
				if res.Hist1 == nil {
					t.Fatalf("%s/policy=%d: partial without histogram", name, policy)
				}
				edges = res.Hist1.Edges
			case OpHist2D:
				if res.Hist2 == nil {
					t.Fatalf("%s/policy=%d: partial without histogram", name, policy)
				}
				edges = append(append(edges, res.Hist2.XEdges...), res.Hist2.YEdges...)
			}
			for _, e := range edges {
				if math.IsNaN(e) || math.IsInf(e, 0) {
					t.Fatalf("%s/policy=%d: non-finite edge in %v", name, policy, edges)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Fatalf("%s/policy=%d: partial answer does not encode: %v", name, policy, err)
			}
		}
	}
}

// TestBudgetAllShardsExhausted: even a fully exhausted fleet returns a
// marked-partial empty answer, not an error — the request still has slack
// to ship it before the 504 deadline.
func TestBudgetAllShardsExhausted(t *testing.T) {
	m := ShardMap{Shards: 4}
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, policy := range []PartialPolicy{FailFast, ReturnPartial} {
		r := &budgetRunner{exhaustShards: all}
		q := Query{Op: OpCount, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan}
		res, err := Execute(context.Background(), q, m, 1000, r, policy)
		if err != nil {
			t.Fatalf("policy=%d: all-exhausted errored: %v", policy, err)
		}
		if !res.Partial || res.Count != 0 || !reflect.DeepEqual(res.Failed, []int{0, 1, 2, 3}) {
			t.Fatalf("policy=%d: res = %+v", policy, res)
		}

		h := Query{Op: OpHist1D, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan,
			Spec1: histogram.Spec1D{Var: "x", Bins: 8, Lo: 0, Hi: 1}}
		r = &budgetRunner{exhaustShards: all}
		hres, err := Execute(context.Background(), h, m, 1000, r, policy)
		if err != nil {
			t.Fatalf("policy=%d: hist all-exhausted errored: %v", policy, err)
		}
		if !hres.Partial || hres.Hist1 == nil {
			t.Fatalf("policy=%d: hres = %+v", policy, hres)
		}
		for _, c := range hres.Hist1.Counts {
			if c != 0 {
				t.Fatalf("policy=%d: exhausted merge has counts", policy)
			}
		}
	}
}

// TestBudgetMixedWithRealFailure: a genuinely failed shard keeps its
// policy semantics (error under FailFast) even when another shard only
// exhausted its budget; under ReturnPartial both are listed.
func TestBudgetMixedWithRealFailure(t *testing.T) {
	m := ShardMap{Shards: 4}
	q := Query{Op: OpCount, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan}

	mk := func() *budgetRunner {
		r := &budgetRunner{exhaustShards: map[int]bool{1: true}}
		r.failShards = map[int]bool{3: true}
		return r
	}
	if _, err := Execute(context.Background(), q, m, 1000, mk(), FailFast); err == nil {
		t.Fatal("FailFast swallowed a real shard failure")
	}
	res, err := Execute(context.Background(), q, m, 1000, mk(), ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !reflect.DeepEqual(res.Failed, []int{1, 3}) {
		t.Fatalf("res = %+v, want failed [1 3]", res)
	}
}

// TestBudgetErrorNotRetryable: the exhausted marker must survive error
// wrapping and never read as fatal (which would poison the whole query).
func TestBudgetErrorClassification(t *testing.T) {
	err := fastquery.Exhaustedf("shard 2: out of time")
	if !fastquery.IsExhausted(err) {
		t.Fatal("marker lost")
	}
	if fastquery.IsFatal(err) {
		t.Fatal("exhausted error reads as fatal")
	}
	wrapped := errors.New("rpc: " + err.Error()) // the net/rpc string flattening
	if !fastquery.IsExhausted(wrapped) {
		t.Fatal("marker did not survive string flattening")
	}
}
