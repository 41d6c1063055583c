package ingest

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastquery"
)

var testVars = []string{"x", "px", "id"}

// mkColumns builds one synthetic timestep with rows rows; values vary
// with step so checksums differ per step.
func mkColumns(step, rows int) []Column {
	x := make([]float64, rows)
	px := make([]float64, rows)
	ids := make([]int64, rows)
	for i := range x {
		x[i] = float64(step*rows + i)
		px[i] = float64(i%7) - float64(step)
		ids[i] = int64(i + 1)
	}
	return []Column{
		{Name: "x", Float: x},
		{Name: "px", Float: px},
		{Name: "id", Int: ids},
	}
}

func newLive(t *testing.T) (*Catalog, *Writer) {
	t.Helper()
	dir := t.TempDir()
	cat, err := Create(dir, "live-test", testVars, "id")
	if err != nil {
		t.Fatal(err)
	}
	return cat, NewWriter(cat, 64)
}

func TestCatalogCommitAndReload(t *testing.T) {
	cat, w := newLive(t)
	if got := cat.Generation(); got != 0 {
		t.Fatalf("fresh catalog generation = %d", got)
	}
	for i := 0; i < 3; i++ {
		e, gen, err := w.AppendStep(mkColumns(i, 100))
		if err != nil {
			t.Fatal(err)
		}
		if e.Step != i || e.Rows != 100 || gen != uint64(i+1) {
			t.Fatalf("step %d: entry %+v gen %d", i, e, gen)
		}
	}
	// The legacy meta.json must track the step count so offline tools
	// (and fastquery.Open) see the grown dataset.
	ds, err := colstore.OpenDataset(cat.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Meta.Steps != 3 {
		t.Fatalf("meta.json steps = %d, want 3", ds.Meta.Steps)
	}
	// Reopen: recovery must be a no-op on a clean directory.
	cat2, err := Open(cat.Dir())
	if err != nil {
		t.Fatal(err)
	}
	man := cat2.Snapshot()
	if man.Generation != 3 || len(man.Steps) != 3 || man.IndexedSteps() != 0 || man.Lag() != 3 {
		t.Fatalf("reloaded manifest: %+v", man)
	}
	for i, e := range man.Steps {
		if e.Step != i || e.DataCRC == 0 || e.DataBytes == 0 {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		if err := cat2.VerifyStep(i); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriterValidatesSchema(t *testing.T) {
	_, w := newLive(t)
	cases := []struct {
		name string
		cols []Column
		want string
	}{
		{"missing var", []Column{{Name: "x", Float: []float64{1}}, {Name: "id", Int: []int64{1}}}, "missing declared variable"},
		{"unknown var", append(mkColumns(0, 2), Column{Name: "zz", Float: []float64{1, 2}}), "unknown column"},
		{"dup", append(mkColumns(0, 2), Column{Name: "x", Float: []float64{1, 2}}), "duplicate column"},
		{"ragged", []Column{{Name: "x", Float: []float64{1}}, {Name: "px", Float: []float64{1, 2}}, {Name: "id", Int: []int64{1}}}, "rows"},
		{"both set", []Column{{Name: "x", Float: []float64{1}, Int: []int64{1}}, {Name: "px", Float: []float64{1}}, {Name: "id", Int: []int64{1}}}, "exactly one"},
		{"id past 2^53", withID(colstore.MaxExactInt + 1), "2^53"},
		{"id before -2^53", withID(-colstore.MaxExactInt - 1), "2^53"},
		{"id max int64", withID(math.MaxInt64), "2^53"},
	}
	for _, tc := range cases {
		if _, _, err := w.AppendStep(tc.cols); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	// No partial files may remain, and a valid append must still work.
	if _, _, err := w.AppendStep(mkColumns(0, 10)); err != nil {
		t.Fatal(err)
	}
	man := w.cat.Snapshot()
	if len(man.Steps) != 1 {
		t.Fatalf("committed steps = %d, want 1", len(man.Steps))
	}
}

// withID is a valid two-row step whose second identifier is id.
func withID(id int64) []Column {
	cols := mkColumns(0, 2)
	cols[2].Int[1] = id
	return cols
}

// TestWriterKeepsIDsExact: identifiers are gathered as float64 when a
// selection is tracked, so AppendStep takes Int values only as wide as
// float64 carries exactly (TestWriterValidatesSchema has the refusals).
// ±2^53, the widest accepted, are gathered back unchanged.
func TestWriterKeepsIDsExact(t *testing.T) {
	cat, w := newLive(t)
	cols := mkColumns(0, 3)
	cols[2].Int[0], cols[2].Int[2] = -colstore.MaxExactInt, colstore.MaxExactInt
	if _, _, err := w.AppendStep(cols); err != nil {
		t.Fatal(err)
	}
	src, err := fastquery.Open(cat.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	st, err := src.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids, err := st.IDsAtCtx(context.Background(), []uint64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := cols[2].Int; !slices.Equal(ids, want) {
		t.Fatalf("gathered ids %v, want %v", ids, want)
	}
}

func TestBootstrapFromLegacyDataset(t *testing.T) {
	// A dataset with meta.json only (lwfagen-style): Open must bootstrap
	// a catalog, committing existing steps and adopting their indexes.
	dir := t.TempDir()
	cat, err := Create(dir, "seed", testVars, "id")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(cat, 0)
	for i := 0; i < 2; i++ {
		if _, _, err := w.AppendStep(mkColumns(i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBuilder(cat, BuilderConfig{})
	if _, err := b.BuildStep(0); err != nil {
		t.Fatal(err)
	}
	// Drop the catalog, keeping data/index/meta — the legacy layout.
	if err := os.Remove(filepath.Join(dir, CatalogFileName)); err != nil {
		t.Fatal(err)
	}
	cat2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := cat2.Snapshot()
	if len(man.Steps) != 2 {
		t.Fatalf("bootstrap committed %d steps, want 2", len(man.Steps))
	}
	if !man.Steps[0].Indexed || man.Steps[1].Indexed {
		t.Fatalf("bootstrap index adoption wrong: %+v", man.Steps)
	}
	if man.Generation == 0 {
		t.Fatal("bootstrap left generation at 0")
	}
}

func TestCommitOutOfOrderRejected(t *testing.T) {
	cat, _ := newLive(t)
	if _, err := cat.Commit(StepEntry{Step: 3}); err == nil {
		t.Fatal("out-of-order commit accepted")
	}
	if _, err := cat.MarkIndexed(0, 1); err == nil {
		t.Fatal("MarkIndexed on uncommitted step accepted")
	}
}

func TestReadGenerationAndManifest(t *testing.T) {
	cat, w := newLive(t)
	if man, err := ReadManifest(cat.Dir()); err != nil || man.Generation != 0 || len(man.Steps) != 0 {
		t.Fatalf("ReadManifest = %+v, %v", man, err)
	}
	if _, _, err := w.AppendStep(mkColumns(0, 5)); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(cat.Dir())
	if err != nil || man.Generation != 1 || len(man.Steps) != 1 {
		t.Fatalf("ReadManifest after commit = %+v, %v", man, err)
	}
	// Missing catalog: an error, which the serving watcher logs.
	if _, err := ReadManifest(t.TempDir()); err == nil {
		t.Fatal("ReadManifest of an empty directory succeeded")
	}
}

// TestCrashRecoveryMatrix walks the commit protocol's crash windows and
// checks each one recovers to a consistent catalog on Open.
func TestCrashRecoveryMatrix(t *testing.T) {
	t.Run("data file written, commit lost", func(t *testing.T) {
		cat, w := newLive(t)
		if _, _, err := w.AppendStep(mkColumns(0, 20)); err != nil {
			t.Fatal(err)
		}
		// Simulate: step 1's data file renamed into place but the catalog
		// append never happened.
		src := cat.StepPath(0)
		orphan := cat.StepPath(1)
		buf, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orphan, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		cat2, err := Open(cat.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cat2.Snapshot().Steps); n != 1 {
			t.Fatalf("recovered catalog has %d steps, want 1", n)
		}
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan data file survived recovery (err=%v)", err)
		}
		// The reused step number must land cleanly.
		if e, _, err := NewWriter(cat2, 0).AppendStep(mkColumns(1, 30)); err != nil || e.Step != 1 {
			t.Fatalf("re-append after recovery: %+v, %v", e, err)
		}
	})

	t.Run("index published, mark lost", func(t *testing.T) {
		cat, w := newLive(t)
		if _, _, err := w.AppendStep(mkColumns(0, 20)); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(cat, BuilderConfig{})
		if _, err := b.BuildStep(0); err != nil {
			t.Fatal(err)
		}
		// Rewind the manifest to before MarkIndexed: kill -9 between index
		// publish and catalog update.
		if _, err := cat.updateStep(0, func(e *StepEntry) { e.Indexed, e.IndexBytes = false, 0 }); err != nil {
			t.Fatal(err)
		}
		cat2, err := Open(cat.Dir())
		if err != nil {
			t.Fatal(err)
		}
		man := cat2.Snapshot()
		if !man.Steps[0].Indexed {
			t.Fatalf("published index not adopted on recovery: %+v", man.Steps[0])
		}
	})

	t.Run("temp files scrubbed", func(t *testing.T) {
		cat, w := newLive(t)
		if _, _, err := w.AppendStep(mkColumns(0, 20)); err != nil {
			t.Fatal(err)
		}
		for _, junk := range []string{"step_0001.col.tmp123", "step_0000.idx.tmp9", "catalog.json.tmpx"} {
			if err := os.WriteFile(filepath.Join(cat.Dir(), junk), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(cat.Dir()); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(cat.Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.Contains(e.Name(), ".tmp") {
				t.Fatalf("temp file %q survived recovery", e.Name())
			}
		}
	})

	t.Run("stale index for uncommitted step scrubbed", func(t *testing.T) {
		// An index published for a step whose data commit was lost must be
		// deleted: when the step number is reused with different data, a
		// stale sidecar with a coincidentally matching row count would
		// serve silently wrong fastbit results.
		cat, w := newLive(t)
		if _, _, err := w.AppendStep(mkColumns(0, 20)); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(cat, BuilderConfig{})
		if _, err := b.BuildStep(0); err != nil {
			t.Fatal(err)
		}
		stale := cat.IndexPath(1)
		buf, err := os.ReadFile(cat.IndexPath(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stale, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(cat.Dir()); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("stale orphan index survived recovery (err=%v)", err)
		}
	})

	t.Run("corrupt data detected by builder", func(t *testing.T) {
		cat, w := newLive(t)
		if _, _, err := w.AppendStep(mkColumns(0, 20)); err != nil {
			t.Fatal(err)
		}
		// Flip a byte after commit: the builder must refuse (fatal) rather
		// than index corrupt data.
		path := cat.StepPath(0)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(cat, BuilderConfig{})
		_, err = b.BuildStep(0)
		if err == nil {
			t.Fatal("builder indexed a corrupt data file")
		}
		if !fastquery.IsFatal(err) {
			t.Fatalf("corruption not classified fatal: %v", err)
		}
		if err := cat.VerifyStep(0); err == nil {
			t.Fatal("VerifyStep missed the corruption")
		}
	})
}
