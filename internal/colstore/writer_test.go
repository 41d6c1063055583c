package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriterAtomicPublish verifies the crash-safety contract: nothing
// appears at the destination path until Close succeeds, and afterwards no
// temp file remains.
func TestWriterAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "step_0000.col")
	w, err := NewWriter(path, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination exists before Close (err=%v)", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("destination missing after Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind after Close", e.Name())
		}
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadFloat64("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

// TestWriterDuplicateColumn checks that a duplicate column name is
// rejected and poisons the writer: Close must not publish.
func TestWriterDuplicateColumn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dup.col")
	w, err := NewWriter(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{3, 4}); err == nil {
		t.Fatal("duplicate column accepted")
	} else if !strings.Contains(err.Error(), "duplicate column") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded after rejected Add")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("poisoned writer published a file (err=%v)", err)
	}
}

// TestWriterRowCountMismatch checks the row-count guard and that a
// subsequent valid Add still fails (sticky error).
func TestWriterRowCountMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rows.col")
	w, err := NewWriter(path, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{1, 2}); err == nil {
		t.Fatal("short column accepted")
	} else if !strings.Contains(err.Error(), "rows") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := w.AddFloat64("y", []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("Add succeeded on a poisoned writer")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close succeeded on a poisoned writer")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("poisoned writer published a file (err=%v)", err)
	}
}

// TestWriterDiscard abandons a write; nothing must remain in the
// directory.
func TestWriterDiscard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.col")
	w, err := NewWriter(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", []float64{42}); err != nil {
		t.Fatal(err)
	}
	w.Discard()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("directory not empty after Discard: %v", ents)
	}
	// Discard after Close is a no-op, not a deletion of the published file.
	w2, err := NewWriter(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AddFloat64("x", []float64{7}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w2.Discard()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Discard after Close removed the published file: %v", err)
	}
}

// TestOpenAfterPartialWrite simulates a crash mid-write by truncating a
// published file at several points: Open (or the first read) must fail
// cleanly, never panic or return silently wrong data.
func TestOpenAfterPartialWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.col")
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	w, err := NewWriter(path, uint64(len(vals)), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddFloat64("x", vals); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
		n := int(float64(len(whole)) * frac)
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path)
		if err != nil {
			continue // rejected at open: the desired outcome
		}
		// A truncation that leaves the trailer intact is impossible (the
		// trailer is the last 12 bytes), so Open must have failed above;
		// belt and braces: reads must error rather than fabricate data.
		if got, err := f.ReadFloat64("x"); err == nil && len(got) == len(vals) {
			f.Close()
			t.Fatalf("truncated to %d/%d bytes but read full column", n, len(whole))
		}
		f.Close()
	}
}

// BenchmarkWriterChunkRows writes a D12-sized step — benchRows rows of
// three float64 columns and an int64 id — in chunks of 1 Ki, 8 Ki (the
// default) and 64 Ki rows, fsync and publish included: what the chunk
// size costs a writer that makes one write call per chunk.
func BenchmarkWriterChunkRows(b *testing.B) {
	vals := make([]float64, benchRows)
	ids := make([]int64, benchRows)
	for i := range vals {
		vals[i] = float64(i) * 1e-3
		ids[i] = int64(i)
	}
	for _, chunkRows := range []int{1 << 10, DefaultChunkRows, 1 << 16} {
		b.Run(fmt.Sprint(chunkRows), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "step.lwc")
			b.SetBytes(4 * 8 * benchRows)
			for i := 0; i < b.N; i++ {
				w, err := NewWriter(path, benchRows, chunkRows)
				if err != nil {
					b.Fatal(err)
				}
				for _, name := range []string{"x", "px", "py"} {
					if err := w.AddFloat64(name, vals); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.AddInt64("id", ids); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
