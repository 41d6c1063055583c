package plan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fastquery"
)

// batchRunner answers count fragments with their row-range size, tracking
// how many fragments are in flight at once. Fragments of step gateStep
// park on gate until the test releases them; fatalStep fails fatally.
type batchRunner struct {
	inFlight, peak atomic.Int64
	started        atomic.Int64

	failShard int // shard that answers "connection refused"; -1 = none
	fatalStep int // step whose fragments fail fatally; -1 = none
	gateStep  int // step whose fragments wait for gate; -1 = none
	gate      chan struct{}
	parked    chan struct{} // receives once per parked fragment
}

func newBatchRunner() *batchRunner {
	return &batchRunner{failShard: -1, fatalStep: -1, gateStep: -1,
		gate: make(chan struct{}), parked: make(chan struct{}, 64)}
}

func (r *batchRunner) RunFragment(ctx context.Context, shard int, f Fragment) (*FragmentResult, error) {
	n := r.inFlight.Add(1)
	defer r.inFlight.Add(-1)
	for p := r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
	}
	r.started.Add(1)
	// Yield so overlapping steps really overlap in the peak count.
	runtime.Gosched()
	if f.Step == r.fatalStep {
		return nil, fastquery.Fatalf("poison step %d", f.Step)
	}
	if f.Step == r.gateStep {
		r.parked <- struct{}{}
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if shard == r.failShard {
		return nil, errors.New("connection refused")
	}
	return &FragmentResult{Count: f.Rows.Hi - f.Rows.Lo}, nil
}

func countBatch(steps int) ([]Query, []uint64) {
	qs := make([]Query, steps)
	rows := make([]uint64, steps)
	for i := range qs {
		qs[i] = Query{Op: OpCount, Dataset: "d", Step: i, Query: "(px > 1)", Backend: fastquery.Scan}
		rows[i] = uint64(100 * (i + 1)) // distinct per step, so misalignment shows
	}
	return qs, rows
}

// TestExecuteAllAlignedAndBounded: results line up with their queries, and
// the batch never has more than the in-flight cap's worth of steps running.
func TestExecuteAllAlignedAndBounded(t *testing.T) {
	prev := runtime.GOMAXPROCS(8) // lift the processor bound so the constant binds
	defer runtime.GOMAXPROCS(prev)

	const shards = 3
	qs, rows := countBatch(20)
	r := newBatchRunner()
	results, err := ExecuteAll(context.Background(), qs, ShardMap{Shards: shards}, rows, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("results = %d, want %d", len(results), len(qs))
	}
	for i, res := range results {
		if res.Count != rows[i] || res.Partial {
			t.Fatalf("step %d: result %+v, want count %d", i, res, rows[i])
		}
	}
	if peak := r.peak.Load(); peak > maxBatchInFlight*shards {
		t.Fatalf("peak fragments in flight = %d, want <= %d steps x %d shards", peak, maxBatchInFlight, shards)
	}

	// One processor: steps run one at a time.
	runtime.GOMAXPROCS(1)
	r = newBatchRunner()
	if _, err := ExecuteAll(context.Background(), qs, ShardMap{Shards: shards}, rows, r, ReturnPartial); err != nil {
		t.Fatal(err)
	}
	if peak := r.peak.Load(); peak > shards {
		t.Fatalf("GOMAXPROCS=1: peak fragments in flight = %d, want <= %d (one step)", peak, shards)
	}

	if res, err := ExecuteAll(context.Background(), nil, ShardMap{Shards: shards}, nil, r, ReturnPartial); err != nil || len(res) != 0 {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
}

// TestExecuteAllPartialPerStep: a dead shard under ReturnPartial fails no
// step — every Result comes back, each marked, and the Summary carries the
// union.
func TestExecuteAllPartialPerStep(t *testing.T) {
	qs, rows := countBatch(6)
	r := newBatchRunner()
	r.failShard = 1
	m := ShardMap{Shards: 3}
	results, err := ExecuteAll(context.Background(), qs, m, rows, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	frags := 0
	for i, res := range results {
		lost := m.Range(1, rows[i])
		if !res.Partial || !reflect.DeepEqual(res.Failed, []int{1}) || res.Count != rows[i]-(lost.Hi-lost.Lo) {
			t.Fatalf("step %d: %+v", i, res)
		}
		frags += res.Fragments
	}
	sum := Summary(results)
	if !sum.Partial || !reflect.DeepEqual(sum.Failed, []int{1}) || sum.Fragments != frags || sum.Mode != "scatter" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum := Summary(nil); sum.Partial || sum.Fragments != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}

	// The same outage under FailFast fails the batch.
	if _, err := ExecuteAll(context.Background(), qs, m, rows, r, FailFast); err == nil {
		t.Fatal("FailFast batch with a dead shard succeeded")
	}
}

// TestExecuteAllFirstErrorCancelsRest: a fatal step is the error returned,
// steps parked mid-flight are cancelled, and steps not yet started never
// start.
func TestExecuteAllFirstErrorCancelsRest(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // two steps in flight: the gated one and the walker
	defer runtime.GOMAXPROCS(prev)

	qs, rows := countBatch(40)
	r := newBatchRunner()
	r.gateStep, r.fatalStep = 0, 3
	results, err := ExecuteAll(context.Background(), qs, ShardMap{Shards: 1}, rows, r, FailFast)
	if !fastquery.IsFatal(err) {
		t.Fatalf("err = %v, want the fatal step's error (not the cancellation it caused)", err)
	}
	if results != nil {
		t.Fatalf("failed batch returned results: %v", results)
	}
	if got := r.started.Load(); got >= int64(len(qs)) {
		t.Fatalf("%d of %d steps ran after a fatal error", got, len(qs))
	}
	if r.inFlight.Load() != 0 {
		t.Fatal("ExecuteAll returned with fragments still in flight")
	}
}

// TestExecuteAllCallerCancel: cancelling the caller's context mid-batch
// returns its error and waits for the in-flight steps.
func TestExecuteAllCallerCancel(t *testing.T) {
	qs, rows := countBatch(10)
	r := newBatchRunner()
	r.gateStep = 0
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-r.parked
		cancel()
	}()
	_, err := ExecuteAll(ctx, qs, ShardMap{Shards: 1}, rows, r, FailFast)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.inFlight.Load() != 0 {
		t.Fatal("ExecuteAll returned with fragments still in flight")
	}
}

// TestProfileFragmentsSorted: whatever order concurrent fragments report
// in, the profile reads back sorted by (step, shard, rows.lo, op).
func TestProfileFragmentsSorted(t *testing.T) {
	want := []FragProfile{
		{Step: 0, Shard: 0, Rows: [2]int{0, 50}, Op: "hist2d"},
		{Step: 0, Shard: 0, Rows: [2]int{0, 50}, Op: "minmax"},
		{Step: 0, Shard: 1, Rows: [2]int{50, 100}, Op: "hist2d"},
		{Step: 1, Shard: 0, Rows: [2]int{0, 60}, Op: "hist2d"},
		{Step: 1, Shard: 0, Rows: [2]int{60, 90}, Op: "hist2d"},
		{Step: 2, Shard: 2, Op: "hist2d"},
	}
	p := NewProfile()
	for _, i := range []int{4, 2, 5, 0, 3, 1} {
		p.Add(want[i])
	}
	if got := p.Fragments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fragments = %+v\nwant        %+v", got, want)
	}
}
