package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestConcurrentFragmentsShareOneSelection: conditional fragments over one
// query and row range, run at once on a cold executor — a session's select
// beside its views, one plan per variable — evaluate their shared
// selection once between them, requested FragSelects included, so the
// selection work they charge in all is exactly one evaluation's, however
// the goroutines interleave. Run it with -race.
func TestConcurrentFragmentsShareOneSelection(t *testing.T) {
	const step = 1
	rows, px := stepColumn(t, step, "px")
	cond := canonical(t, fmt.Sprintf("px > %g", px[len(px)*37/100])) // inside a bin
	base := plan.Fragment{Dataset: "lwfa", Step: step, Rows: plan.RowRange{Lo: rows / 5, Hi: rows - rows/7},
		Query: cond, Backend: fastquery.FastBit}

	one := func() obs.CostSnapshot {
		sel := base
		sel.Op = plan.FragSelect
		var c obs.Cost
		if _, err := testExecutor(t).Run(obs.WithCost(context.Background(), &c), sel); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}()
	if one.CandidateChecks == 0 || one.BitmapOps == 0 {
		t.Fatalf("one selection charged %+v; the property would be vacuous", one)
	}

	vars := []string{"x", "y", "z", "px", "py", "pz", "xrel", "id"}
	for round := 0; round < 10; round++ {
		ex := testExecutor(t)
		costs := make([]obs.Cost, len(vars))
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, len(vars))
		for i, v := range vars {
			f := base
			f.Op, f.Vars = plan.FragMinMax, []string{v}
			if i%4 == 3 { // two of the eight are the requested select
				f.Op, f.Vars = plan.FragSelect, nil
			}
			wg.Add(1)
			go func(f plan.Fragment, c *obs.Cost) {
				defer wg.Done()
				<-start
				if _, err := ex.Run(obs.WithCost(context.Background(), c), f); err != nil {
					errs <- err
				}
			}(f, &costs[i])
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		var total obs.CostSnapshot
		for i := range costs {
			total.Add(costs[i].Snapshot())
		}
		if total.CandidateChecks != one.CandidateChecks || total.BitmapOps != one.BitmapOps {
			t.Fatalf("round %d: %d concurrent fragments charged %d candidate checks and %d bitmap ops, one selection %d and %d",
				round, len(vars), total.CandidateChecks, total.BitmapOps, one.CandidateChecks, one.BitmapOps)
		}
		if s := ex.Stats(); s.Evals != uint64(len(vars)) {
			t.Fatalf("round %d: %d evaluations counted, want %d", round, s.Evals, len(vars))
		}
	}
}

// TestSelectionWaiter: a fragment whose selection is in flight waits for
// it. A waiter whose own context ends stops waiting; when the leader ends
// without a result, as a failed or canceled one does, the waiter
// evaluates the selection itself and is charged for it.
func TestSelectionWaiter(t *testing.T) {
	rows, px := stepColumn(t, 0, "px")
	f := plan.Fragment{Op: plan.FragMinMax, Vars: []string{"x"}, Dataset: "lwfa", Step: 0,
		Rows: plan.RowRange{Lo: 1, Hi: rows - 1}, Backend: fastquery.FastBit,
		Query: canonical(t, fmt.Sprintf("px > %g", px[len(px)/3]))}
	ex := testExecutor(t)
	waiting := func(done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
			t.Fatal("the fragment returned while its selection was in flight")
		case <-time.After(50 * time.Millisecond):
		}
	}

	end := ex.HoldSelection(f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() { _, err = ex.Run(ctx, f); close(done) }()
	waiting(done)
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter whose context ended: %v, want context.Canceled", err)
	}
	end()

	end = ex.HoldSelection(f)
	var c obs.Cost
	var res *plan.FragmentResult
	done = make(chan struct{})
	go func() { res, err = ex.Run(obs.WithCost(context.Background(), &c), f); close(done) }()
	waiting(done)
	end()
	<-done
	if err != nil || res == nil || len(res.MinMax) != 1 {
		t.Fatalf("waiter after a leader without a result: %+v, %v", res, err)
	}
	if c.Snapshot().CandidateChecks == 0 {
		t.Fatal("the waiter did not evaluate the selection itself")
	}
}
