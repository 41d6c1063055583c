package colstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReadRange: a range read returns exactly rows [lo, hi) of the whole
// column, for ranges on and off chunk edges, empty ranges and the whole
// file, and reads only the chunks the range overlaps.
func TestReadRange(t *testing.T) {
	const rows, chunk = 100, 16
	path, fs, is := writeTestFile(t, rows, chunk)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bounds := []uint64{0, 1, 15, 16, 17, 31, 32, 48, 63, 64, 96, 99, 100}
	for _, lo := range bounds {
		for _, hi := range bounds {
			if hi < lo {
				continue
			}
			var cost obs.Cost
			got, err := f.ReadAsFloat64RangeCost("px", lo, hi, &cost)
			if err != nil {
				t.Fatalf("px [%d, %d): %v", lo, hi, err)
			}
			if want := fs[lo:hi]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("px [%d, %d): got %d values, want %d", lo, hi, len(got), len(want))
			}
			ids, err := f.ReadAsFloat64RangeCost("id", lo, hi, nil)
			if err != nil {
				t.Fatalf("id [%d, %d): %v", lo, hi, err)
			}
			for i, v := range ids {
				if v != float64(is[lo+uint64(i)]) {
					t.Fatalf("id [%d, %d) row %d: %v, want %d", lo, hi, lo+uint64(i), v, is[lo+uint64(i)])
				}
			}
			// Chunks touched: those overlapping [lo, hi); the last holds 4 rows.
			var wantBytes uint64
			for c := uint64(0); c < rows; c += chunk {
				if lo < hi && c < hi && c+chunk > lo {
					wantBytes += 8 * (min(c+chunk, rows) - c)
				}
			}
			if s := cost.Snapshot(); s.DataBytes != wantBytes || s.ValuesRead != hi-lo {
				t.Fatalf("[%d, %d): charged %d bytes, %d values; want %d, %d",
					lo, hi, s.DataBytes, s.ValuesRead, wantBytes, hi-lo)
			}
		}
	}
	for _, r := range [][2]uint64{{5, 4}, {0, rows + 1}, {rows + 1, rows + 2}, {0, math.MaxUint64}} {
		if _, err := f.ReadAsFloat64RangeCost("px", r[0], r[1], nil); err == nil {
			t.Errorf("range [%d, %d) accepted", r[0], r[1])
		}
	}
}

// buildFile hand-assembles a one-column, one-chunk file: header, the
// chunk's 8-byte words, directory and trailer. offset and rows are what
// the directory claims for the chunk, whatever was actually written.
func buildFile(t *testing.T, words int, offset uint64, rows uint32) string {
	t.Helper()
	b := append([]byte("LWC1"), 1, 0, 0, 0)
	data := make([]byte, 8*words)
	b = append(b, data...)
	dirOffset := uint64(len(b))
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = append(b, "px"...)
	b = append(b, byte(Float64))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, offset)
	b = binary.LittleEndian.AppendUint32(b, rows)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(data))
	b = binary.LittleEndian.AppendUint64(b, dirOffset)
	b = append(b, "LWC1"...)
	path := filepath.Join(t.TempDir(), "hand.col")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenValidatesChunkExtents: Open checks every chunk against the data
// region once — past the header, ending at or before the directory — so
// no read needs a stat, and a chunk overlapping the directory is caught
// even though it lies inside the file.
func TestOpenValidatesChunkExtents(t *testing.T) {
	good := buildFile(t, 4, 8, 4)
	f, err := Open(good)
	if err != nil {
		t.Fatalf("well-formed hand-built file rejected: %v", err)
	}
	if _, err := f.ReadFloat64("px"); err != nil {
		t.Fatalf("well-formed hand-built file unreadable: %v", err)
	}
	f.Close()
	for name, path := range map[string]string{
		"past EOF":            buildFile(t, 4, 8, 1000),
		"overlaps directory":  buildFile(t, 4, 16, 4),
		"overlaps header":     buildFile(t, 4, 0, 4),
		"offset past dir":     buildFile(t, 4, 1<<40, 0),
		"offset overflows":    buildFile(t, 4, ^uint64(0)-7, 4),
		"rows past directory": buildFile(t, 4, 8, 5),
	} {
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "outside the data region") {
			t.Errorf("%s: Open err = %v, want a data-region error", name, err)
		}
	}
}
