package fastbit

import (
	"bytes"
	"runtime"
	"testing"
)

// decodeSections reads data the way an index file is read: its
// directory, then every column and id section the directory places
// inside data, decoded without the CRC check a crafted file skips by
// recording 0. It also decodes data itself as a bare column section and
// a bare id section, so the section decoders see arbitrary bytes even
// when no directory parses.
func decodeSections(data []byte) {
	n := uint64(64)
	if d, err := readDirectory(bytes.NewReader(data)); err == nil {
		n = d.n
		for name, sec := range d.cols {
			if sec.within(uint64(len(data))) {
				decodeColumn(name, n, data[sec.offset:sec.offset+sec.size]) //nolint:errcheck // errors are the expected outcome
			}
		}
		if d.hasID && d.idSec.within(uint64(len(data))) {
			decodeIDIndex(n, data[d.idSec.offset:d.idSec.offset+d.idSec.size]) //nolint:errcheck
		}
	}
	decodeColumn("x", n, data) //nolint:errcheck
	decodeIDIndex(n, data)     //nolint:errcheck
}

// FuzzIndexSections: whatever bytes an index file holds, reading its
// directory and decoding its sections returns an error or a value —
// never a panic — and allocates in proportion to the bytes, whatever
// counts they declare. Seeds: a small valid v3 file and each of its
// sections, and in testdata/fuzz/FuzzIndexSections a file whose id
// section declares 2^60 entries (16·2^60 wraps to 0, which once let it
// through to make a slice of 2^60 ids).
func FuzzIndexSections(f *testing.F) {
	cols := map[string][]float64{"px": {3, 1, 4, 1, 5, 9, 2, 6}, "x": {2, 7, 1, 8, 2, 8, 1, 8}}
	si, err := BuildStepIndex(cols, []int64{8, 3, 5, 0, 9, 2, 7, 1}, "id", IndexOptions{Bins: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	file := buf.Bytes()
	f.Add(file)
	d, err := readDirectory(bytes.NewReader(file))
	if err != nil {
		f.Fatal(err)
	}
	for _, sec := range append([]section{d.idSec}, d.cols["px"], d.cols["x"]) {
		f.Add(file[sec.offset : sec.offset+sec.size])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeSections(data)
		runtime.ReadMemStats(&after)
		// Two bufio readers and one directory string of at most 64 KiB
		// are fixed costs; everything else is backed by the bytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(data))+256<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), alloc)
		}
	})
}
