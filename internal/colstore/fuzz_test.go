package colstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzColstoreOpen writes arbitrary bytes as a step file, opens it, and
// reads every listed column in full, by row range and at a few
// positions. Every call either fails or stays within the file: no
// panic, no answer longer than the file's data region, and no call that
// allocates more than a small multiple of the file's size, whatever the
// directory claims. The seed corpus is testdata/fuzz/FuzzColstoreOpen.
func FuzzColstoreOpen(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "step.lwc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := Open(path)
		if err != nil {
			return
		}
		defer file.Close()
		size := uint64(len(data))
		// A column read allocates its answer, plus a buffer for each chunk
		// the free list cannot serve (the list is empty, or the chunk is
		// larger than a free-listed buffer), each bounded by the data
		// region; the budget holds for the worst case, a list that
		// serves none.
		budget := 3*size + 1<<16
		var ms runtime.MemStats
		check := func(what string, n int, err error, before uint64) {
			t.Helper()
			runtime.ReadMemStats(&ms)
			if grew := ms.TotalAlloc - before; grew > budget {
				t.Fatalf("%s allocated %d bytes for a %d-byte file", what, grew, size)
			}
			if err == nil && uint64(n)*8 > size {
				t.Fatalf("%s returned %d values from a %d-byte file", what, n, size)
			}
		}
		alloc := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
		rows := file.Rows()
		for _, name := range file.Columns() {
			a := alloc()
			vals, err := file.ReadAsFloat64(name)
			check("ReadAsFloat64 "+name, len(vals), err, a)
			if err == nil && uint64(len(vals)) != rows {
				t.Fatalf("ReadAsFloat64 %s: %d values, file has %d rows", name, len(vals), rows)
			}
			a = alloc()
			f64, err := file.ReadFloat64(name)
			check("ReadFloat64 "+name, len(f64), err, a)
			a = alloc()
			i64, err := file.ReadInt64(name)
			check("ReadInt64 "+name, len(i64), err, a)
			for _, r := range [][2]uint64{{0, rows}, {rows / 3, 2 * rows / 3}, {rows, rows}, {rows / 2, rows + 1}} {
				a = alloc()
				vals, err := file.ReadAsFloat64RangeCost(name, r[0], r[1], nil)
				check("ReadAsFloat64RangeCost "+name, len(vals), err, a)
				if err == nil && uint64(len(vals)) != r[1]-r[0] {
					t.Fatalf("range [%d, %d) of %s: %d values", r[0], r[1], name, len(vals))
				}
			}
			if rows > 0 {
				a = alloc()
				vals, err := file.ReadFloat64At(name, []uint64{0, rows / 2, rows - 1, rows})
				check("ReadFloat64At "+name, len(vals), err, a)
				if err == nil {
					t.Fatalf("ReadFloat64At %s: position %d of %d rows accepted", name, rows, rows)
				}
			}
		}
	})
}

// FuzzVisitRange writes a step of three columns — float64, int64 and
// float64, each in chunks of its own size, so the visit's runs end at
// the boundaries of either — and visits a random row range over a random
// list of them, repeats allowed. The runs, concatenated, are bit for bit
// each column's ReadAsFloat64RangeCost and its ReadFloat64AtCost at every
// row; the visit charges what the per-name reads charge; fn's error comes
// back as is; and a byte flipped in any chunk the visit touches comes back
// as that chunk's CRC error. The seed corpus is
// testdata/fuzz/FuzzVisitRange.
func FuzzVisitRange(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, rows uint16, ca, cb, cc uint8, lo, hi uint16, pick, flip uint32) {
		n := uint64(rows % 3000)
		rng := rand.New(rand.NewSource(int64(pick)))
		path := filepath.Join(dir, "step.lwc")
		w, err := NewWriter(path, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		cols := []string{"a", "b", "c"}
		for i, c := range []uint8{ca, cb, cc} {
			w.chunkRows = 1 + int(c)%300
			if i == 1 {
				ids := make([]int64, n)
				for j := range ids {
					ids[j] = rng.Int63n(2*MaxExactInt) - MaxExactInt
				}
				err = w.AddInt64(cols[i], ids)
			} else {
				vals := make([]float64, n)
				for j := range vals {
					switch rng.Intn(50) {
					case 0:
						vals[j] = math.NaN()
					case 1:
						vals[j] = math.Copysign(0, -1)
					default:
						vals[j] = rng.NormFloat64() * 1e10
					}
				}
				err = w.AddFloat64(cols[i], vals)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()

		l := uint64(lo) % (n + 1)
		h := l + uint64(hi)%(n+1-l)
		names := make([]string, 1+pick%4)
		for i := range names {
			names[i] = cols[(pick>>(2+2*i))%3]
		}
		var cost obs.Cost
		got := make([][]float64, len(names))
		err = file.VisitRangeCost(names, l, h, &cost, func(vals [][]float64) error {
			if len(vals) != len(names) {
				t.Fatalf("a run of %d columns for %d names", len(vals), len(names))
			}
			for i, vs := range vals {
				if len(vs) == 0 || len(vs) != len(vals[0]) {
					t.Fatalf("a run of %d values of %s beside %d of %s", len(vs), names[i], len(vals[0]), names[0])
				}
				got[i] = append(got[i], vs...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var want obs.Cost
		pos := make([]uint64, h-l)
		for i := range pos {
			pos[i] = l + uint64(i)
		}
		for i, name := range names {
			whole, err := file.ReadAsFloat64RangeCost(name, l, h, &want)
			if err != nil {
				t.Fatal(err)
			}
			at, err := file.ReadFloat64AtCost(name, pos, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got[i], whole) || !sameBits(got[i], at) {
				t.Fatalf("%s [%d, %d): the runs differ from the range read or the gather", name, l, h)
			}
		}
		if cost.Snapshot() != want.Snapshot() {
			t.Fatalf("visit charged %+v, the per-name reads %+v", cost.Snapshot(), want.Snapshot())
		}
		if l == h {
			return
		}

		stop := errors.New("stop")
		if err := file.VisitRangeCost(names, l, h, nil, func([][]float64) error { return stop }); err != stop {
			t.Fatalf("fn's error came back as %v", err)
		}

		// Flip a byte of the chunk that holds a touched row of one named
		// column: the visit fails on that chunk's CRC.
		ci := file.cols[names[int(flip)%len(names)]]
		row := l + uint64(flip)%(h-l)
		var base uint64
		idx := 0
		for base+uint64(ci.chunks[idx].rows) <= row {
			base += uint64(ci.chunks[idx].rows)
			idx++
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[ci.chunks[idx].offset+8*(row-base)+uint64(flip>>8)%8] ^= 1 << (flip >> 16 % 8)
		bad := filepath.Join(dir, "bad.lwc")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupt, err := Open(bad)
		if err != nil {
			t.Fatal(err)
		}
		defer corrupt.Close()
		err = corrupt.VisitRangeCost(names, l, h, nil, func([][]float64) error { return nil })
		if want := fmt.Sprintf("%q chunk %d: CRC mismatch", ci.Name, idx); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("a flipped byte in %s row %d: %v, want %s", ci.Name, row, err, want)
		}
	})
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
