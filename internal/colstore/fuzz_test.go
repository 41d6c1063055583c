package colstore

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
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
