package fastquery

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/fastbit"
)

// IndexOptions configures BuildIndexes.
type IndexOptions struct {
	// Vars lists the variables to index; nil indexes every float column
	// except the identifier column.
	Vars []string
	// IDVar names the identifier column; "" disables the ID index.
	IDVar string
	// Index holds the bitmap index build parameters.
	Index fastbit.IndexOptions
	// Force rebuilds indexes that already exist.
	Force bool
	// Progress, when non-nil, is called after each timestep is indexed
	// (skipped steps report indexBytes < 0).
	Progress func(step, total int, indexBytes int)
}

// BuildIndexes runs the paper's one-time preprocessing over an existing
// dataset directory: for every timestep, read the data columns, build the
// bitmap and identifier indexes and write the sidecar index file
// (Figure 1's "indexing metadata" path). Steps that already have an index
// are skipped unless Force is set.
func BuildIndexes(dir string, opt IndexOptions) error {
	src, err := Open(dir)
	if err != nil {
		return err
	}
	ds := src.dataset()
	for t := 0; t < src.Steps(); t++ {
		size := -1
		if !ds.HasIndex(t) || opt.Force {
			size, err = BuildStepIndex(ds.StepPath(t), ds.IndexPath(t), opt.Vars, opt.IDVar, opt.Index)
			if err != nil {
				return fmt.Errorf("fastquery: step %d: %w", t, err)
			}
		}
		if opt.Progress != nil {
			opt.Progress(t, src.Steps(), size)
		}
	}
	return nil
}

// BuildStepIndex is the one index-build routine, shared by BuildIndexes
// and the live ingest builder: read the vars columns of the timestep file
// at dataPath (nil: every column except idVar; "" means "id"), build their
// bitmap indexes plus the identifier index, and write the sidecar to
// indexPath. It returns the index size in bytes. Failures that would
// repeat identically on every retry — a missing column, bad build
// parameters or shapes — are marked Fatal.
func BuildStepIndex(dataPath, indexPath string, vars []string, idVar string, opt fastbit.IndexOptions) (int, error) {
	f, err := colstore.Open(dataPath)
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-only handle
	if idVar == "" {
		idVar = "id"
	}
	if vars == nil {
		for _, name := range f.Columns() {
			if name != idVar {
				vars = append(vars, name)
			}
		}
	}
	cols := map[string][]float64{}
	for _, name := range vars {
		if !f.HasColumn(name) {
			return 0, Fatalf("no column %q", name)
		}
		if cols[name], err = f.ReadAsFloat64(name); err != nil {
			return 0, err
		}
	}
	var ids []int64
	if f.HasColumn(idVar) {
		if ids, err = f.ReadInt64(idVar); err != nil {
			return 0, err
		}
	}
	si, err := fastbit.BuildStepIndex(cols, ids, idVar, opt)
	if err != nil {
		return 0, Fatal(err)
	}
	if err := si.WriteFile(indexPath); err != nil {
		return 0, err
	}
	return si.SizeBytes(), nil
}
