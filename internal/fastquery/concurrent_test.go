package fastquery

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/histogram"
	"repro/internal/query"
)

// TestConcurrentReaders exercises the documented concurrent-reader
// guarantee: many goroutines sharing one Source and one Step, running
// queries and 2D histograms on both backends at once. Run under -race
// this doubles as the data-race proof for the serving layer, which shares
// open Steps across HTTP requests.
func TestConcurrentReaders(t *testing.T) {
	src := testSource(t)
	defer src.Close()
	shared, err := src.OpenStep(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	expr, err := query.Parse("px > 0 && x > 0.2")
	if err != nil {
		t.Fatal(err)
	}
	spec := histogram.NewSpec2D("x", "px", 24, 24)

	// Reference results, computed serially.
	wantCount, err := shared.CountCtx(context.Background(), expr, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	wantHist, err := shared.Histogram2DCtx(context.Background(), expr, spec, FastBit)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			backend := FastBit
			if w%2 == 1 {
				backend = Scan
			}
			// Odd workers open their own Step from the shared Source;
			// even workers use the shared Step directly.
			st := shared
			if w%4 >= 2 {
				own, err := src.OpenStep(2)
				if err != nil {
					t.Error(err)
					return
				}
				defer own.Close()
				st = own
			}
			for i := 0; i < iters; i++ {
				n, err := st.CountCtx(context.Background(), expr, backend)
				if err != nil {
					t.Error(err)
					return
				}
				if n != wantCount {
					t.Errorf("worker %d: count %d, want %d", w, n, wantCount)
					return
				}
				h, err := st.Histogram2DCtx(context.Background(), expr, spec, backend)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(h.Counts, wantHist.Counts) {
					t.Errorf("worker %d: histogram diverged", w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
