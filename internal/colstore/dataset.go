package colstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// DatasetMeta describes a multi-timestep dataset stored as one colstore
// file per timestep plus an optional sidecar index file per timestep.
type DatasetMeta struct {
	Name      string   `json:"name"`
	Steps     int      `json:"steps"`
	Variables []string `json:"variables"`
	Comment   string   `json:"comment,omitempty"`
}

const metaFileName = "meta.json"

// StepFileName returns the data file name for timestep t.
func StepFileName(t int) string { return fmt.Sprintf("step_%04d.col", t) }

// IndexFileName returns the sidecar index file name for timestep t.
func IndexFileName(t int) string { return fmt.Sprintf("step_%04d.idx", t) }

// Dataset is an on-disk multi-timestep dataset directory.
type Dataset struct {
	Dir  string
	Meta DatasetMeta
}

// CreateDataset initialises a dataset directory and writes its metadata.
// The directory is created if needed; an existing meta.json is replaced.
func CreateDataset(dir string, meta DatasetMeta) (*Dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("colstore: create dataset dir: %w", err)
	}
	buf, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("colstore: encode meta: %w", err)
	}
	if err := AtomicWriteFile(filepath.Join(dir, metaFileName), buf, 0o644); err != nil {
		return nil, fmt.Errorf("colstore: write meta: %w", err)
	}
	return &Dataset{Dir: dir, Meta: meta}, nil
}

// AtomicWriteFile writes data to a temp file in path's directory, fsyncs
// it, and renames it into place, so a crash mid-write can never leave a
// partial metadata file for a reader to choke on. Shared by the dataset
// metadata here and the ingest catalog's manifest.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory: rename is already visible
		d.Close()
	}
	return nil
}

// OpenDataset opens an existing dataset directory.
func OpenDataset(dir string) (*Dataset, error) {
	buf, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return nil, fmt.Errorf("colstore: open dataset: %w", err)
	}
	var meta DatasetMeta
	if err := json.Unmarshal(buf, &meta); err != nil {
		return nil, fmt.Errorf("colstore: decode meta: %w", err)
	}
	if meta.Steps < 0 {
		return nil, fmt.Errorf("colstore: meta has negative step count %d", meta.Steps)
	}
	return &Dataset{Dir: dir, Meta: meta}, nil
}

// StepPath returns the path of the data file for timestep t.
func (d *Dataset) StepPath(t int) string { return filepath.Join(d.Dir, StepFileName(t)) }

// IndexPath returns the path of the index file for timestep t.
func (d *Dataset) IndexPath(t int) string { return filepath.Join(d.Dir, IndexFileName(t)) }

// OpenStep opens the data file for timestep t.
func (d *Dataset) OpenStep(t int) (*File, error) {
	if t < 0 || t >= d.Meta.Steps {
		return nil, fmt.Errorf("colstore: timestep %d out of range [0,%d)", t, d.Meta.Steps)
	}
	return Open(d.StepPath(t))
}

// HasIndex reports whether a sidecar index exists for timestep t.
func (d *Dataset) HasIndex(t int) bool {
	_, err := os.Stat(d.IndexPath(t))
	return err == nil
}
