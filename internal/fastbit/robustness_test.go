package fastbit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bitmap"
)

// Serialized index files may arrive truncated or corrupted (partial
// writes, bad storage). Opening and loading them must return errors, never
// panic.

// loadAll opens the index file at path — first writing data there unless
// data is nil — and loads every column index and the identifier index,
// returning the first error.
func loadAll(t *testing.T, path string, data []byte) (*LazyStep, error) {
	t.Helper()
	if data != nil {
		if err := writeFile(path, data); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { ls.Close() })
	for _, name := range ls.Columns() {
		if _, err := ls.Column(name); err != nil {
			return nil, err
		}
	}
	if ls.dir.hasID {
		if _, err := ls.IDIndex(); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

func serializedFixture(t *testing.T) []byte {
	t.Helper()
	si, _, _ := buildTestStep(t, 500, 91, IndexOptions{Bins: 8})
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadStepIndexTruncationNeverPanics: reading an index (OpenLazy and
// every section load) rejects each truncation of a valid file.
func TestReadStepIndexTruncationNeverPanics(t *testing.T) {
	data := serializedFixture(t)
	path := filepath.Join(t.TempDir(), "trunc.idx")
	for _, cut := range []int{1, 4, 8, 16, 17, 40, 100, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			if _, err := loadAll(t, path, data[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}()
	}
}

// TestReadStepIndexRandomCorruptionNeverPanics: reading an index with a
// few bytes flipped errors or decodes, and never panics.
func TestReadStepIndexRandomCorruptionNeverPanics(t *testing.T) {
	data := serializedFixture(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), data...)
		// Flip a few random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted input (trial %d): %v", trial, r)
				}
			}()
			// Either an error or a decodable (but possibly wrong) index is
			// acceptable; a panic is not.
			ls, err := loadAll(t, filepath.Join(dir, fmt.Sprintf("corrupt%d.idx", trial)), corrupt)
			if err == nil {
				// Exercise the decoded structures a little.
				for _, name := range ls.Columns() {
					ix, _ := ls.Column(name)
					_ = ix.BinCounts()
				}
			}
		}()
	}
}

func TestOpenLazyTruncatedFile(t *testing.T) {
	data := serializedFixture(t)
	dir := t.TempDir()
	for _, cut := range []int{4, 16, 60} {
		path := dir + "/trunc.idx"
		if err := writeFile(path, data[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLazy(path); err == nil {
			t.Fatalf("truncated header (%d bytes) accepted by OpenLazy", cut)
		}
	}
	// A file with a valid directory but truncated sections must fail on
	// section access, not at open.
	path := dir + "/body.idx"
	// Find a cut point past the header but inside the first section: the
	// header is small, so half the file is safely beyond it.
	if err := writeFile(path, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLazy(path)
	if err != nil {
		// Acceptable: the directory may extend past the cut for tiny files.
		return
	}
	defer ls.Close()
	sawError := false
	for _, name := range ls.Columns() {
		if _, err := ls.Column(name); err != nil {
			sawError = true
		}
	}
	if _, err := ls.IDIndex(); err != nil {
		sawError = true
	}
	if !sawError {
		t.Fatal("no section access failed despite truncated body")
	}
}

// TestDecodeColumnRejectsBitmapLength: a column section whose bitmap is
// well formed but sized for another row count is rejected at decode time
// — version-2 files carry no CRC, and a CRC only proves the writer's bytes.
func TestDecodeColumnRejectsBitmapLength(t *testing.T) {
	var buf bytes.Buffer
	writeU32(&buf, 0) // precision
	writeU32(&buf, 2) // bounds
	// Bounds, BinMin, BinMax.
	for _, f := range []float64{0, 1, 0, 1} {
		writeU64(&buf, math.Float64bits(f))
	}
	writeU32(&buf, 1) // bitmaps
	bm := bitmap.New(31)
	bm.AppendRun(true, 31)
	if _, err := bm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeColumn("x", 31, buf.Bytes()); err != nil {
		t.Fatalf("bitmap of N bits rejected: %v", err)
	}
	if _, err := decodeColumn("x", 62, buf.Bytes()); err == nil {
		t.Fatal("31-bit bitmap accepted for a 62-row index")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestSectionCRCDetectsBitFlips flips one byte inside every section's
// payload and checks the per-section checksum catches it — when every
// section is loaded, and when just the flipped one is.
func TestSectionCRCDetectsBitFlips(t *testing.T) {
	data := serializedFixture(t)
	d, err := readDirectory(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	checkFlip := func(what string, sec section, lazyLoad func(*LazyStep) error) {
		t.Helper()
		corrupt := append([]byte(nil), data...)
		corrupt[sec.offset+sec.size/2] ^= 0x10

		path := filepath.Join(t.TempDir(), "flip.idx")
		if _, err := loadAll(t, path, corrupt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: loading every section of a flipped payload: err = %v, want ErrCorrupt", what, err)
		}

		// The directory is intact, so lazy open succeeds; the damage must
		// surface when the flipped section is actually loaded.
		ls, err := OpenLazy(path)
		if err != nil {
			t.Fatalf("%s: OpenLazy rejected a file with a healthy directory: %v", what, err)
		}
		defer ls.Close()
		if err := lazyLoad(ls); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: lazy load of flipped payload: err = %v, want ErrCorrupt", what, err)
		}
	}

	for _, name := range d.order {
		name := name
		checkFlip("column "+name, d.cols[name], func(ls *LazyStep) error {
			_, err := ls.Column(name)
			return err
		})
	}
	if d.hasID {
		checkFlip("id index", d.idSec, func(ls *LazyStep) error {
			_, err := ls.IDIndex()
			return err
		})
	}
}

// TestWriteFileAtomic checks the write-then-rename discipline: the target
// appears fully formed, overwrites are clean, and no temp files survive.
func TestWriteFileAtomic(t *testing.T) {
	si, _, _ := buildTestStep(t, 300, 17, IndexOptions{Bins: 8})
	dir := t.TempDir()
	path := filepath.Join(dir, "step.idx")
	for i := 0; i < 2; i++ { // fresh write, then overwrite
		if err := si.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loadAll(t, path, nil); err != nil {
		t.Fatalf("written index unreadable: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected only step.idx in dir, found %d entries", len(entries))
	}

	// A failed write (unwritable destination dir) must leave no debris.
	if err := si.WriteFile(filepath.Join(dir, "missing", "step.idx")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("failed write left debris: %d entries", len(entries))
	}
}
