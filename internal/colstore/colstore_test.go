package colstore

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func writeTestFile(t *testing.T, rows uint64, chunkRows int) (string, []float64, []int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "test.col")
	rng := rand.New(rand.NewSource(42))
	fs := make([]float64, rows)
	is := make([]int64, rows)
	for i := range fs {
		fs[i] = rng.NormFloat64() * 1e10
		is[i] = rng.Int63n(1 << 40)
	}
	w, err := NewWriter(path, rows, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("px", fs); err != nil {
		t.Fatal(err)
	}
	if err := w.AddInt64("id", is); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, fs, is
}

func TestRoundTrip(t *testing.T) {
	for _, chunkRows := range []int{0, 1, 7, 100, 1 << 16} {
		path, fs, is := writeTestFile(t, 1000, chunkRows)
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if f.Rows() != 1000 {
			t.Fatalf("Rows = %d", f.Rows())
		}
		gotF, err := f.ReadFloat64("px")
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			if gotF[i] != fs[i] {
				t.Fatalf("chunkRows=%d: px[%d] = %g, want %g", chunkRows, i, gotF[i], fs[i])
			}
		}
		gotI, err := f.ReadInt64("id")
		if err != nil {
			t.Fatal(err)
		}
		for i := range is {
			if gotI[i] != is[i] {
				t.Fatalf("id[%d] = %d, want %d", i, gotI[i], is[i])
			}
		}
		f.Close()
	}
}

func TestSpecialFloats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.col")
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	w, err := NewWriter(path, uint64(len(vals)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("v", vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadFloat64("v")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("v[%d]: NaN lost", i)
			}
			continue
		}
		if got[i] != v || math.Signbit(got[i]) != math.Signbit(v) {
			t.Fatalf("v[%d] = %g, want %g", i, got[i], v)
		}
	}
}

func TestEmptyColumn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.col")
	w, err := NewWriter(path, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("v", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadFloat64("v")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty column read: %v %v", got, err)
	}
}

func TestWriterValidation(t *testing.T) {
	dir := t.TempDir()
	// Each rejected Add poisons its writer (Close must never publish a
	// partial column set), so every case gets a fresh one.
	newW := func() *Writer {
		t.Helper()
		w, err := NewWriter(filepath.Join(dir, "v.col"), 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := newW()
	if err := w.AddFloat64("x", []float64{1, 2}); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded after rejected Add")
	}
	w = newW()
	if err := w.AddFloat64("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{4, 5, 6}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	w.Discard()
	w = newW()
	if err := w.AddFloat64("", []float64{1, 2, 3}); err == nil {
		t.Fatal("empty name accepted")
	}
	w.Discard()
	w = newW()
	if err := w.AddFloat64("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("y", []float64{1, 2, 3}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestColumnMetadata(t *testing.T) {
	path, _, _ := writeTestFile(t, 100, 16)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cols := f.Columns()
	if len(cols) != 2 || cols[0] != "px" || cols[1] != "id" {
		t.Fatalf("Columns = %v", cols)
	}
	ci, err := f.Column("px")
	if err != nil || ci.Type != Float64 || ci.Rows != 100 {
		t.Fatalf("Column(px) = %+v, %v", ci, err)
	}
	if !f.HasColumn("id") || f.HasColumn("nope") {
		t.Fatal("HasColumn wrong")
	}
	if _, err := f.Column("nope"); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := f.ReadFloat64("id"); err == nil {
		t.Fatal("type mismatch read accepted")
	}
	if _, err := f.ReadInt64("px"); err == nil {
		t.Fatal("type mismatch read accepted")
	}
	if _, err := f.ReadFloat64("nope"); err == nil {
		t.Fatal("missing column read accepted")
	}
}

func TestReadAsFloat64(t *testing.T) {
	path, fs, is := writeTestFile(t, 50, 8)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadAsFloat64("px")
	if err != nil || got[0] != fs[0] {
		t.Fatalf("ReadAsFloat64(px): %v", err)
	}
	got, err = f.ReadAsFloat64("id")
	if err != nil {
		t.Fatal(err)
	}
	for i := range is {
		if got[i] != float64(is[i]) {
			t.Fatalf("id[%d] as float = %g, want %d", i, got[i], is[i])
		}
	}
}

func TestReadFloat64At(t *testing.T) {
	path, fs, is := writeTestFile(t, 1000, 64)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pos := []uint64{0, 1, 63, 64, 500, 999}
	got, err := f.ReadFloat64At("px", pos)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		if got[i] != fs[p] {
			t.Fatalf("at %d: %g want %g", p, got[i], fs[p])
		}
	}
	// Int column gather converts.
	got, err = f.ReadFloat64At("id", pos)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		if got[i] != float64(is[p]) {
			t.Fatalf("id at %d: %g want %d", p, got[i], is[p])
		}
	}
	if _, err := f.ReadFloat64At("px", []uint64{5, 3}); err == nil {
		t.Fatal("unsorted positions accepted")
	}
	if _, err := f.ReadFloat64At("px", []uint64{1000}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if _, err := f.ReadFloat64At("nope", []uint64{1}); err == nil {
		t.Fatal("missing column accepted")
	}
	if got, err := f.ReadFloat64At("px", nil); err != nil || len(got) != 0 {
		t.Fatalf("empty gather: %v %v", got, err)
	}
}

func TestGatherReadsFewerBytesThanFullColumn(t *testing.T) {
	path, _, _ := writeTestFile(t, 100000, 1024)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadFloat64At("px", []uint64{5, 99999}); err != nil {
		t.Fatal(err)
	}
	gathered := f.BytesRead()
	if _, err := f.ReadFloat64("px"); err != nil {
		t.Fatal(err)
	}
	full := f.BytesRead() - gathered
	if gathered*10 > full {
		t.Fatalf("gather read %d bytes, full column %d — chunk selection not working", gathered, full)
	}
}

func TestCorruptionDetected(t *testing.T) {
	path, _, _ := writeTestFile(t, 100, 16)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first chunk's data region (after the 8-byte header).
	buf[16] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err) // directory still intact
	}
	defer f.Close()
	if _, err := f.ReadFloat64("px"); err == nil {
		t.Fatal("corrupt chunk read succeeded")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "junk.col")
	if err := os.WriteFile(p, []byte("not a colstore file at all............."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("garbage accepted")
	}
	tiny := filepath.Join(dir, "tiny.col")
	if err := os.WriteFile(tiny, []byte("xy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tiny); err == nil {
		t.Fatal("tiny file accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing.col")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: random float64 columns round trip exactly.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(vals []float64) bool {
		i++
		path := filepath.Join(dir, StepFileName(i))
		w, err := NewWriter(path, uint64(len(vals)), 3)
		if err != nil {
			return false
		}
		if err := w.AddFloat64("v", vals); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		file, err := Open(path)
		if err != nil {
			return false
		}
		defer file.Close()
		got, err := file.ReadFloat64("v")
		if err != nil || len(got) != len(vals) {
			return false
		}
		for j := range vals {
			if math.Float64bits(got[j]) != math.Float64bits(vals[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDataset(t *testing.T) {
	dir := t.TempDir()
	meta := DatasetMeta{Name: "test", Steps: 3, Variables: []string{"x", "px"}}
	ds, err := CreateDataset(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		w, err := NewWriter(ds.StepPath(s), 10, 4)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = float64(s*10 + i)
		}
		if err := w.AddFloat64("x", vals); err != nil {
			t.Fatal(err)
		}
		if err := w.AddFloat64("px", vals); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ds2, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Meta.Name != "test" || ds2.Meta.Steps != 3 {
		t.Fatalf("meta = %+v", ds2.Meta)
	}
	f, err := ds2.OpenStep(1)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.ReadFloat64("x")
	f.Close()
	if err != nil || vals[0] != 10 {
		t.Fatalf("step 1 x[0] = %v, %v", vals, err)
	}
	if _, err := ds2.OpenStep(-1); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := ds2.OpenStep(3); err == nil {
		t.Fatal("out-of-range step accepted")
	}
	if ds2.HasIndex(0) {
		t.Fatal("HasIndex true with no index file")
	}
	if err := os.WriteFile(ds2.IndexPath(0), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !ds2.HasIndex(0) {
		t.Fatal("HasIndex false after creating index file")
	}
}

func TestDatasetValidateCatchesMissingColumn(t *testing.T) {
	dir := t.TempDir()
	ds, err := CreateDataset(dir, DatasetMeta{Name: "bad", Steps: 1, Variables: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(ds.StepPath(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := ds.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadFloat64("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFloat64("y"); err == nil {
		t.Fatal("a declared column the step lacks read without error")
	}
}

func TestOpenDatasetErrors(t *testing.T) {
	if _, err := OpenDataset(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataset(dir); err == nil {
		t.Fatal("bad meta accepted")
	}
}

func TestTruncationNeverPanics(t *testing.T) {
	path, _, _ := writeTestFile(t, 500, 64)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, cut := range []int{0, 1, 8, 20, len(data) / 4, len(data) / 2, len(data) - 4} {
		p := filepath.Join(dir, "t.col")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			f, err := Open(p)
			if err != nil {
				return // rejected at open: fine
			}
			defer f.Close()
			// Reads must error, not panic.
			if _, err := f.ReadFloat64("px"); err == nil {
				t.Fatalf("truncation %d: full read succeeded", cut)
			}
		}()
	}
}

func TestRandomCorruptionNeverPanics(t *testing.T) {
	path, _, _ := writeTestFile(t, 300, 32)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	dir := t.TempDir()
	for trial := 0; trial < 100; trial++ {
		corrupt := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		p := filepath.Join(dir, "c.col")
		if err := os.WriteFile(p, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupted file (trial %d): %v", trial, r)
				}
			}()
			f, err := Open(p)
			if err != nil {
				return
			}
			defer f.Close()
			f.ReadFloat64("px")                     //nolint:errcheck // must not panic
			f.ReadInt64("id")                       //nolint:errcheck
			f.ReadFloat64At("px", []uint64{0, 100}) //nolint:errcheck
		}()
	}
}
