package histogram

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkPool fails unless every grid the pool holds is all-zero over its
// whole capacity and the bytes they take are what the pool counts, within
// GridPoolBytes.
func checkPool(t *testing.T) {
	t.Helper()
	pool.Lock()
	defer pool.Unlock()
	held := 0
	for k := range pool.free {
		for _, g := range pool.free[k] {
			held += 4 * cap(g)
			if i := firstNonZero(g[:cap(g)]); i >= 0 {
				t.Fatalf("a pooled grid of %d cells holds %d at cell %d", cap(g), g[i], i)
			}
		}
	}
	if held != pool.bytes || held > GridPoolBytes {
		t.Fatalf("the pool holds %d bytes, counts %d, bound %d", held, pool.bytes, GridPoolBytes)
	}
}

func firstNonZero[T uint32 | uint64](g []T) int {
	for i, c := range g {
		if c != 0 {
			return i
		}
	}
	return -1
}

// cancelAfter is a context whose Err turns to Canceled after it has been
// asked n times: a binning loop checks it once per checkpointRows values,
// so n = 1 cancels at the second checkpoint, with a checkpoint's worth of
// values already in the grid.
type cancelAfter struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestGridPoolStaysZero: every grid the pool hands out is all-zero — after
// the grid binned a partial and was encoded, after a binning cancelled at
// a checkpoint, after a sparse binning's cell indices and sort scratch
// were used, finished or cancelled, and after AppendCountsJSON expanded a
// merge into it — with
// eight goroutines taking and returning grids at once, and the pool never
// holds more than GridPoolBytes.
func TestGridPoolStaysZero(t *testing.T) {
	const nx, ny = 64, 48
	n := nx * ny
	xe, ye := UniformEdges(0, 1, nx), UniformEdges(0, 1, ny)
	rng := rand.New(rand.NewSource(3))
	pairs := checkpointRows + 5000 // past the first checkpoint
	xs, ys := make([]float64, pairs), make([]float64, pairs)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	want, err := Compute2D("x", "y", xs, ys, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*Cells2D // three decoded partials of a third of the pairs each
	for k := 0; k < 3; k++ {
		lo, hi := k*pairs/3, (k+1)*pairs/3
		p, err := Partial2DCtx(context.Background(), "x", "y", xs[lo:hi], ys[lo:hi], xe, ye)
		if err != nil {
			t.Fatal(err)
		}
		d, err := decodeWire(2, must(p.AppendWire(nil)))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, d.(*Cells2D))
	}
	wantJSON, _ := json.Marshal(want.Counts)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0: // bin and encode, through the grid and sparse
					for _, sparse := range []bool{false, true} {
						h, err := compute2D(context.Background(), "x", "y", xs, ys, xe, ye, sparse)
						if err != nil || !slices.Equal(h.Dense().Counts, want.Counts) {
							errs <- fmt.Errorf("pooled binning (sparse %v): total %d, want %d (%v)", sparse, h.Total(), want.Total(), err)
							return
						}
					}
				case 1: // cancelled with a checkpoint's worth binned
					for _, sparse := range []bool{false, true} {
						ctx := &cancelAfter{Context: context.Background(), n: 1}
						if _, err := compute2D(ctx, "x", "y", xs, ys, xe, ye, sparse); err != context.Canceled {
							errs <- fmt.Errorf("cancelled binning (sparse %v) returned %v", sparse, err)
							return
						}
					}
				case 2: // merge and write as JSON
					sum := &Cells2D{XEdges: xe, YEdges: ye}
					for _, p := range parts {
						if err := sum.Merge(p); err != nil {
							errs <- err
							return
						}
					}
					if got := sum.AppendCountsJSON(nil); !bytes.Equal(got, wantJSON) {
						errs <- fmt.Errorf("merged counts as JSON differ from encoding/json's")
						return
					}
				}
				gs := [][]uint32{getGrid(n), getGrid(n), getGrid(pairs), getGrid(pairs)}
				for _, g := range gs {
					if i := firstNonZero(g[:cap(g)]); i >= 0 {
						errs <- fmt.Errorf("the pool handed out a grid holding %d at cell %d", g[i], i)
						return
					}
				}
				for _, g := range gs {
					putGrid(g)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkPool(t)

	// More grids than the bound holds, returned at once: the pool keeps
	// what fits and drops the rest.
	var gs [][]uint32
	for range 2 * GridPoolBytes / (4 << 20) {
		gs = append(gs, getGrid(1<<20))
	}
	for _, g := range gs {
		putGrid(g)
	}
	checkPool(t)
}

// TestUint64Fallback: two decoded partials whose one shared cell holds
// 2³²−1 and 2 sum past a uint32 cell, so the pooled expansion falls back
// to uint64 cells: Total, Dense, AppendCountsJSON and AppendWire all
// carry 4 294 967 297.
func TestUint64Fallback(t *testing.T) {
	const want = 1<<32 + 1
	e := UniformEdges(0, 1, 3)
	var parts []*Cells2D
	for _, c := range []uint64{math.MaxUint32, 2} {
		h := &Hist2D{XVar: "x", YVar: "y", XEdges: e, YEdges: e, Counts: make([]uint64, 9)}
		h.Counts[4] = c
		h.Counts[8] = 1
		d, err := decodeWire(2, must(h.Cells().AppendWire(nil)))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, d.(*Cells2D))
	}
	sum := &Cells2D{XVar: "x", YVar: "y", XEdges: e, YEdges: e}
	for _, p := range parts {
		if err := sum.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	dense := []uint64{0, 0, 0, 0, want, 0, 0, 0, 2}
	if got := sum.Total(); got != want+2 {
		t.Errorf("Total %d, want %d", got, want+2)
	}
	if got := sum.Dense().Counts; !reflect.DeepEqual(got, dense) {
		t.Errorf("Dense %v, want %v", got, dense)
	}
	wantJSON, _ := json.Marshal(dense)
	if got := sum.AppendCountsJSON(nil); !bytes.Equal(got, wantJSON) || !strings.Contains(string(got), "4294967297") {
		t.Errorf("AppendCountsJSON %s, want %s", got, wantJSON)
	}
	wantWire := must((&Hist2D{XVar: "x", YVar: "y", XEdges: e, YEdges: e, Counts: dense}).Cells().AppendWire(nil))
	if got := must(sum.AppendWire(nil)); !bytes.Equal(got, wantWire) {
		t.Errorf("AppendWire %x, want %x", got, wantWire)
	}
	checkPool(t)
}

// TestMergeRefusesOtherEdges: a merge needs the same edges bit for bit,
// not only as many; −0 and +0 are other edges. Refused merges leave the
// histogram as it was, dense or in the cells form.
func TestMergeRefusesOtherEdges(t *testing.T) {
	a, b := UniformEdges(0, 1, 4), UniformEdges(0, 2, 4)
	negZero := []float64{math.Copysign(0, -1), 0.25, 0.5, 0.75, 1}
	for _, o := range [][]float64{b, negZero} {
		other := &Hist1D{Var: "x", Edges: o, Counts: []uint64{1, 1, 1, 1}}
		h1 := &Hist1D{Var: "x", Edges: a, Counts: []uint64{1, 2, 3, 4}}
		if err := h1.Merge(other); err == nil || h1.Total() != 10 {
			t.Errorf("1d: merged over edges %v (total %d)", o, h1.Total())
		}
		sum := &Cells1D{Var: "x", Edges: a}
		if err := sum.Merge(other.Cells()); err == nil || sum.Total() != 0 {
			t.Errorf("1d cells form: merged over edges %v", o)
		}
		for _, other := range []*Hist2D{{XEdges: o, YEdges: a, Counts: make([]uint64, 16)}, {XEdges: a, YEdges: o, Counts: make([]uint64, 16)}} {
			h2 := &Hist2D{XEdges: a, YEdges: a, Counts: make([]uint64, 16)}
			if err := h2.Merge(other); err == nil {
				t.Errorf("2d: merged over edges %v × %v", other.XEdges, other.YEdges)
			}
			if err := h2.Cells().Merge(other.Cells()); err == nil {
				t.Errorf("2d cells form: merged over edges %v × %v", other.XEdges, other.YEdges)
			}
		}
	}
	same := &Hist1D{Var: "x", Edges: append([]float64(nil), a...), Counts: []uint64{1, 1, 1, 1}}
	h1 := &Hist1D{Var: "x", Edges: a, Counts: []uint64{1, 2, 3, 4}}
	if err := h1.Merge(same); err != nil || h1.Total() != 14 {
		t.Fatalf("equal edges: total %d, %v", h1.Total(), err)
	}
	c1 := h1.Cells()
	if err := c1.Merge(same.Cells()); err != nil || c1.Total() != 18 {
		t.Fatalf("equal edges, cells form: total %d, %v", c1.Total(), err)
	}
}

// TestReadersOnCellsForm: every dense reader gives the same answer on the
// expansion of a histogram in the cells form — one encoding, and the sum
// of several partials — as on the dense histogram of the same values,
// and Total and AppendCountsJSON on the cells form itself do too.
func TestReadersOnCellsForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xe, ye := UniformEdges(0, 1, 7), []float64{0, 0.1, 0.5, 0.55, 1}
	xs, ys := make([]float64, 300), make([]float64, 300)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()*rng.Float64()
	}
	dense, err := Compute2D("x", "y", xs, ys, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	one, err := decodeWire(2, must(dense.Cells().AppendWire(nil)))
	if err != nil {
		t.Fatal(err)
	}
	several := &Cells2D{XVar: "x", YVar: "y", XEdges: xe, YEdges: ye}
	for _, cut := range [][2]int{{0, 40}, {40, 41}, {41, 300}} {
		p, err := Partial2DCtx(context.Background(), "x", "y", xs[cut[0]:cut[1]], ys[cut[0]:cut[1]], xe, ye)
		if err != nil {
			t.Fatal(err)
		}
		if err := several.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	readers := map[string]func(h *Hist2D) any{
		"Total":    func(h *Hist2D) any { return h.Total() },
		"MaxCount": func(h *Hist2D) any { return h.MaxCount() },
		"At": func(h *Hist2D) any {
			var out []uint64
			for iy := 0; iy < h.YBins(); iy++ {
				for ix := 0; ix < h.XBins(); ix++ {
					out = append(out, h.At(ix, iy))
				}
			}
			return out
		},
		"Density": func(h *Hist2D) any { return h.Density(3, 2) },
		"NonEmpty": func(h *Hist2D) any {
			var out [][3]uint64
			h.NonEmpty(func(ix, iy int, c uint64) { out = append(out, [3]uint64{uint64(ix), uint64(iy), c}) })
			return out
		},
	}
	wantJSON, _ := json.Marshal(dense.Counts)
	for form, h := range map[string]*Cells2D{"one encoding": one.(*Cells2D), "several": several} {
		if got, want := h.Total(), dense.Total(); got != want {
			t.Errorf("%s: Total %d, dense %d", form, got, want)
		}
		if got := h.AppendCountsJSON(nil); !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: AppendCountsJSON %s, want %s", form, got, wantJSON)
		}
		for name, read := range readers {
			if got, want := read(h.Dense()), read(dense); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s of Dense() %v, dense %v", form, name, got, want)
			}
		}
	}
}

// TestAppendCountsJSON: the cells form — one encoding, and none — and a
// dense grid through appendGridJSON write what encoding/json writes,
// zeros runs longer than the copied block included.
func TestAppendCountsJSON(t *testing.T) {
	for _, counts := range [][]uint64{{}, {0}, {7}, {0, 0, 10, 0}, make([]uint64, 3000), {math.MaxUint64, 9, 0}} {
		want, _ := json.Marshal(counts)
		if got := appendGridJSON([]byte("x"), counts, false); string(got) != "x"+string(want) {
			t.Errorf("appendGridJSON(%v) = %s, want %s", counts, got, want)
		}
		if len(counts) == 0 {
			continue
		}
		h := &Hist1D{Var: "x", Edges: UniformEdges(0, 1, len(counts)), Counts: counts}
		d, err := decodeWire(1, must(h.Cells().AppendWire(nil)))
		if err != nil {
			t.Fatal(err)
		}
		zeros, _ := json.Marshal(make([]uint64, len(counts)))
		for _, c := range []struct {
			form *Cells1D
			want []byte
		}{{h.Cells(), want}, {d.(*Cells1D), want}, {&Cells1D{Var: "x", Edges: h.Edges}, zeros}} {
			if got := c.form.AppendCountsJSON(nil); !bytes.Equal(got, c.want) {
				t.Errorf("%d counts, %d encodings: %s, want %s", len(counts), len(c.form.cells), got, c.want)
			}
		}
	}
	checkPool(t)
}

// TestSumJSONAllocs: once the pool is warm, answering a merge of three
// 1024² partials — the merge, its Total and its counts as JSON into a
// buffer that holds them — allocates under 64 KiB: no grid.
func TestSumJSONAllocs(t *testing.T) {
	e := UniformEdges(0, 1, 1024)
	rng := rand.New(rand.NewSource(9))
	var parts []*Cells2D
	for k := 0; k < 3; k++ {
		xs, ys := make([]float64, 100000), make([]float64, 100000)
		for i := range xs {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
		p, err := Partial2DCtx(context.Background(), "x", "y", xs, ys, e, e)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	out := make([]byte, 0, 4<<20)
	answer := func() {
		sum := &Cells2D{XVar: "x", YVar: "y", XEdges: e, YEdges: e}
		for _, p := range parts {
			if err := sum.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if sum.Total() != 300000 {
			t.Fatalf("total %d", sum.Total())
		}
		if got := sum.AppendCountsJSON(out[:0]); cap(got) != cap(out) {
			t.Fatal("the JSON outgrew its buffer")
		}
	}
	answer() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	answer()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("a warm 3-partial 1024² answer allocated %d bytes", alloc)
	}
}

// BenchmarkCountsJSON writes 1024² counts as JSON, a third or a hundredth
// of the cells non-zero: from dense counts, from one encoding (written
// from its bytes), and from a sum of three (expanded into a pooled grid),
// against expanding the lone encoding the same way ("one-expanded").
func BenchmarkCountsJSON(b *testing.B) {
	const n = 1024 * 1024
	e := UniformEdges(0, 1, 1024)
	for _, every := range []int{3, 100} {
		rng := rand.New(rand.NewSource(1))
		dense := &Hist2D{XEdges: e, YEdges: e, Counts: make([]uint64, n)}
		for i := range dense.Counts {
			if rng.Intn(every) == 0 {
				dense.Counts[i] = uint64(rng.ExpFloat64() * 40)
			}
		}
		one, err := decodeWire(2, must(dense.Cells().AppendWire(nil)))
		if err != nil {
			b.Fatal(err)
		}
		three := &Cells2D{XEdges: e, YEdges: e}
		for k := 0; k < 3; k++ {
			part := &Hist2D{XEdges: e, YEdges: e, Counts: make([]uint64, n)}
			for i, c := range dense.Counts {
				part.Counts[i] = c / 3
				if k == 0 {
					part.Counts[i] += c % 3
				}
			}
			if err := three.Merge(part.Cells()); err != nil {
				b.Fatal(err)
			}
		}
		out := make([]byte, 0, 4<<20)
		for _, c := range []struct {
			name  string
			write func([]byte) []byte
		}{
			{"dense", func(dst []byte) []byte { return appendGridJSON(dst, dense.Counts, false) }},
			{"one", one.(*Cells2D).AppendCountsJSON},
			{"one-expanded", func(dst []byte) []byte { return appendSumJSON(dst, n, one.(*Cells2D).cells) }},
			{"three", three.AppendCountsJSON},
		} {
			if got, want := c.write(nil), appendGridJSON(nil, dense.Counts, false); !bytes.Equal(got, want) {
				b.Fatalf("%s writes other counts", c.name)
			}
			b.Run(fmt.Sprintf("1in%d/%s", every, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out = c.write(out[:0])
				}
			})
		}
	}
}
