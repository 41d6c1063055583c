// Package ingest is the write path that turns the system into a live
// service: a running simulation (or any producer) appends timesteps to a
// dataset that is being served, and a background builder pool constructs
// the FastBit sidecar indexes in situ — the paper's in-transit indexing
// workflow (Section III) — so analysts query data as it arrives.
//
// Three pieces:
//
//   - Catalog — a versioned manifest (catalog.json) listing committed
//     timesteps with per-step checksums and a monotonically increasing
//     generation. Every mutation is an atomic temp+fsync+rename rewrite,
//     like the v3 index files, so a crash at any instant leaves either
//     the old manifest or the new one — never a torn one.
//   - Writer — lands raw columns through colstore.Writer (itself atomic
//     since the same PR) and commits the step to the catalog only after
//     the data file is fsynced and renamed into place.
//   - Builder — a bounded background pool that runs fastbit.BuildStepIndex
//     per committed step with retry/backoff and fatal-vs-retryable
//     classification, publishing each sidecar atomically. A step is
//     queryable via the scan backend the moment it commits and upgrades
//     to the fastbit backend when its index lands.
//
// Commit protocol (crash-recovery matrix in DESIGN.md §11):
//
//	write step_NNNN.col.tmp → fsync → rename   (colstore.Writer.Close)
//	catalog: append entry, generation++        (atomic manifest rewrite)
//	builder: build index → write .idx.tmp → fsync → rename
//	catalog: mark indexed, generation++        (atomic manifest rewrite)
//
// A crash between any two lines recovers on Open: uncommitted data/index
// files beyond the manifest are scrubbed, a published-but-unmarked index
// is re-validated and adopted, and committed-but-unindexed steps are
// re-enqueued by the builder.
package ingest

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/fastbit"
)

// CatalogFileName is the manifest file inside a dataset directory.
const CatalogFileName = "catalog.json"

const catalogFormat = 1

// StepEntry is one committed timestep in the manifest.
type StepEntry struct {
	Step      int    `json:"step"`
	Rows      uint64 `json:"rows"`
	DataBytes int64  `json:"data_bytes"`
	// DataCRC is the CRC-32/IEEE of the entire data file, recorded at
	// commit time; Catalog.VerifyStep checks it during recovery audits.
	DataCRC uint32 `json:"data_crc"`
	// Gen is the catalog generation at this entry's last state change;
	// the serving layer keys its result cache on it so an index upgrade
	// invalidates exactly this step's entries and nothing else.
	Gen        uint64 `json:"gen"`
	Indexed    bool   `json:"indexed"`
	IndexBytes int64  `json:"index_bytes,omitempty"`
	// IndexError records a permanent (fatal or retries-exhausted) index
	// build failure; the step keeps serving through the scan backend.
	IndexError string `json:"index_error,omitempty"`
}

// Manifest is the decoded catalog.json.
type Manifest struct {
	Format     int         `json:"format"`
	Name       string      `json:"name"`
	Variables  []string    `json:"variables"`
	IDVar      string      `json:"id_var,omitempty"`
	Generation uint64      `json:"generation"`
	Steps      []StepEntry `json:"steps"`
}

// IndexedSteps counts the steps whose sidecar index is published.
func (m Manifest) IndexedSteps() int {
	n := 0
	for i := range m.Steps {
		if m.Steps[i].Indexed {
			n++
		}
	}
	return n
}

// Lag is the index-builder backlog: committed steps minus indexed steps
// (permanent failures count as lag — they are steps the fastbit backend
// cannot serve).
func (m Manifest) Lag() int { return len(m.Steps) - m.IndexedSteps() }

// Catalog is the open, mutable manifest of one live dataset. All methods
// are safe for concurrent use; mutations serialize on an internal lock
// and each one bumps the generation and atomically rewrites catalog.json
// (and the legacy meta.json step count, so offline tools keep working).
type Catalog struct {
	dir string

	mu  sync.Mutex
	man Manifest
}

func catalogPath(dir string) string { return filepath.Join(dir, CatalogFileName) }

// Create initialises a live dataset directory: an empty catalog plus the
// colstore meta.json. It fails if a catalog already exists.
func Create(dir, name string, variables []string, idVar string) (*Catalog, error) {
	if _, err := os.Stat(catalogPath(dir)); err == nil {
		return nil, fmt.Errorf("ingest: catalog already exists in %s", dir)
	}
	if _, err := colstore.CreateDataset(dir, colstore.DatasetMeta{
		Name: name, Steps: 0, Variables: variables,
	}); err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, man: Manifest{
		Format: catalogFormat, Name: name,
		Variables: append([]string(nil), variables...),
		IDVar:     idVar,
	}}
	if err := c.saveLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Open opens the catalog in dir, running crash recovery (see Recover).
// When no catalog.json exists but a legacy meta.json does, the dataset is
// bootstrapped: every existing step file is checksummed and committed,
// and published indexes are adopted — the one-time migration from an
// offline lwfagen/indexgen directory to a live one.
func Open(dir string) (*Catalog, error) {
	buf, err := os.ReadFile(catalogPath(dir))
	if os.IsNotExist(err) {
		return bootstrap(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: open catalog: %w", err)
	}
	man, err := decodeManifest(buf)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, man: man}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// bootstrap builds a catalog from a legacy (offline) dataset directory.
func bootstrap(dir string) (*Catalog, error) {
	ds, err := colstore.OpenDataset(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: no catalog and no legacy dataset: %w", err)
	}
	c := &Catalog{dir: dir, man: Manifest{
		Format: catalogFormat, Name: ds.Meta.Name,
		Variables: append([]string(nil), ds.Meta.Variables...),
		IDVar:     "id",
	}}
	for t := 0; t < ds.Meta.Steps; t++ {
		rows, size, crc, err := auditDataFile(ds.StepPath(t))
		if err != nil {
			return nil, fmt.Errorf("ingest: bootstrap step %d: %w", t, err)
		}
		c.man.Generation++
		e := StepEntry{Step: t, Rows: rows, DataBytes: size, DataCRC: crc, Gen: c.man.Generation}
		if rows2, size2, ok := auditIndexFile(ds.IndexPath(t), rows); ok && rows2 == rows {
			e.Indexed, e.IndexBytes = true, size2
		}
		c.man.Steps = append(c.man.Steps, e)
	}
	if err := c.saveLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// recover reconciles the manifest with the directory after a possible
// crash: scrub temp files, scrub orphan data/index files beyond the
// committed range (their commit never happened — they must not be
// mistaken for real data when their step number is reused), and adopt
// published-but-unmarked indexes.
func (c *Catalog) recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("ingest: recover: %w", err)
	}
	committed := len(c.man.Steps)
	for _, ent := range ents {
		name := ent.Name()
		if strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(c.dir, name)) //nolint:errcheck // best effort
			continue
		}
		var t int
		if n, _ := fmt.Sscanf(name, "step_%d.col", &t); n == 1 && strings.HasSuffix(name, ".col") && t >= committed {
			os.Remove(filepath.Join(c.dir, name)) //nolint:errcheck // uncommitted orphan
		}
		if n, _ := fmt.Sscanf(name, "step_%d.idx", &t); n == 1 && strings.HasSuffix(name, ".idx") && t >= committed {
			os.Remove(filepath.Join(c.dir, name)) //nolint:errcheck // uncommitted orphan
		}
	}
	dirty := false
	for i := range c.man.Steps {
		e := &c.man.Steps[i]
		if e.Indexed {
			continue
		}
		// Crash window: index published, MarkIndexed lost. Re-validate the
		// sidecar before adopting — a stale or torn file must lose.
		if rows, size, ok := auditIndexFile(filepath.Join(c.dir, colstore.IndexFileName(e.Step)), e.Rows); ok && rows == e.Rows {
			e.Indexed, e.IndexBytes, e.IndexError = true, size, ""
			c.man.Generation++
			e.Gen = c.man.Generation
			dirty = true
		}
	}
	if dirty {
		return c.saveLocked()
	}
	return nil
}

// auditDataFile opens a data file and returns its row count, size and
// whole-file CRC.
func auditDataFile(path string) (rows uint64, size int64, crc uint32, err error) {
	f, err := colstore.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	rows = f.Rows()
	f.Close()
	size, crc, err = fileCRC(path)
	return rows, size, crc, err
}

// auditIndexFile reports whether path holds a readable step index whose
// row count could match wantRows.
func auditIndexFile(path string, wantRows uint64) (rows uint64, size int64, ok bool) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, false
	}
	ls, err := fastbit.OpenLazy(path)
	if err != nil {
		return 0, 0, false
	}
	rows = ls.N()
	ls.Close()
	return rows, st.Size(), rows == wantRows
}

// fileCRC returns a file's size and CRC-32/IEEE of its entire contents.
func fileCRC(path string) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return n, h.Sum32(), nil
}

// Dir returns the dataset directory.
func (c *Catalog) Dir() string { return c.dir }

// Generation returns the current manifest generation.
func (c *Catalog) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.man.Generation
}

// Snapshot returns a deep copy of the manifest.
func (c *Catalog) Snapshot() Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	man := c.man
	man.Variables = append([]string(nil), c.man.Variables...)
	man.Steps = append([]StepEntry(nil), c.man.Steps...)
	return man
}

// NextStep returns the step number the next commit must carry.
func (c *Catalog) NextStep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.man.Steps)
}

// StepPath returns the data file path for timestep t.
func (c *Catalog) StepPath(t int) string {
	return filepath.Join(c.dir, colstore.StepFileName(t))
}

// IndexPath returns the sidecar index path for timestep t.
func (c *Catalog) IndexPath(t int) string {
	return filepath.Join(c.dir, colstore.IndexFileName(t))
}

// Commit appends a step entry to the manifest. The entry's Step must be
// the next step number and its data file must already be durable (the
// Writer guarantees both). The generation advances and the manifest — and
// the legacy meta.json step count — are rewritten atomically before
// Commit returns, so an acknowledged step survives any crash.
func (c *Catalog) Commit(e StepEntry) (gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Step != len(c.man.Steps) {
		return 0, fmt.Errorf("ingest: commit step %d out of order (next is %d)", e.Step, len(c.man.Steps))
	}
	c.man.Generation++
	e.Gen = c.man.Generation
	c.man.Steps = append(c.man.Steps, e)
	if err := c.saveLocked(); err != nil {
		// Roll back the in-memory append so the catalog stays consistent
		// with disk and the caller can retry.
		c.man.Steps = c.man.Steps[:len(c.man.Steps)-1]
		c.man.Generation--
		return 0, err
	}
	return c.man.Generation, nil
}

// MarkIndexed records that timestep t's sidecar index is published.
func (c *Catalog) MarkIndexed(t int, indexBytes int64) (gen uint64, err error) {
	return c.updateStep(t, func(e *StepEntry) {
		e.Indexed, e.IndexBytes, e.IndexError = true, indexBytes, ""
	})
}

// MarkIndexFailed records a permanent index build failure for timestep t;
// the step keeps serving through the scan backend.
func (c *Catalog) MarkIndexFailed(t int, cause error) (gen uint64, err error) {
	return c.updateStep(t, func(e *StepEntry) {
		e.Indexed, e.IndexError = false, cause.Error()
	})
}

func (c *Catalog) updateStep(t int, mut func(*StepEntry)) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < 0 || t >= len(c.man.Steps) {
		return 0, fmt.Errorf("ingest: step %d not committed (have %d)", t, len(c.man.Steps))
	}
	prev := c.man.Steps[t]
	c.man.Generation++
	mut(&c.man.Steps[t])
	c.man.Steps[t].Gen = c.man.Generation
	if err := c.saveLocked(); err != nil {
		c.man.Steps[t] = prev
		c.man.Generation--
		return 0, err
	}
	return c.man.Generation, nil
}

// Pending returns the committed steps with no published index and no
// permanent failure — the builder's work list — in step order.
func (c *Catalog) Pending() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i := range c.man.Steps {
		if !c.man.Steps[i].Indexed && c.man.Steps[i].IndexError == "" {
			out = append(out, c.man.Steps[i].Step)
		}
	}
	sort.Ints(out)
	return out
}

// VerifyStep re-checksums timestep t's data file against the manifest.
func (c *Catalog) VerifyStep(t int) error {
	c.mu.Lock()
	if t < 0 || t >= len(c.man.Steps) {
		c.mu.Unlock()
		return fmt.Errorf("ingest: step %d not committed", t)
	}
	e := c.man.Steps[t]
	c.mu.Unlock()
	size, crc, err := fileCRC(c.StepPath(t))
	if err != nil {
		return fmt.Errorf("ingest: verify step %d: %w", t, err)
	}
	if size != e.DataBytes || crc != e.DataCRC {
		return fmt.Errorf("ingest: step %d data file mismatch: have %d bytes crc %08x, manifest says %d bytes crc %08x",
			t, size, crc, e.DataBytes, e.DataCRC)
	}
	return nil
}

// saveLocked rewrites catalog.json and meta.json atomically; the caller
// holds c.mu. catalog.json goes first — it is the source of truth; the
// meta.json step count is a compatibility projection for offline tools.
func (c *Catalog) saveLocked() error {
	buf, err := json.MarshalIndent(&c.man, "", "  ")
	if err != nil {
		return fmt.Errorf("ingest: encode catalog: %w", err)
	}
	if err := colstore.AtomicWriteFile(catalogPath(c.dir), append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("ingest: write catalog: %w", err)
	}
	if _, err := colstore.CreateDataset(c.dir, colstore.DatasetMeta{
		Name:      c.man.Name,
		Steps:     len(c.man.Steps),
		Variables: append([]string(nil), c.man.Variables...),
	}); err != nil {
		return fmt.Errorf("ingest: write meta: %w", err)
	}
	return nil
}

// ReadManifest loads a manifest snapshot from disk without opening a
// mutable catalog (no recovery side effects) — the read-only view a
// serving-side watcher polls. It validates exactly as Open does.
func ReadManifest(dir string) (Manifest, error) {
	buf, err := os.ReadFile(catalogPath(dir))
	if err != nil {
		return Manifest{}, fmt.Errorf("ingest: read catalog: %w", err)
	}
	return decodeManifest(buf)
}

// decodeManifest decodes catalog.json and checks what every reader relies
// on: the format version, and that entry i is step i.
func decodeManifest(buf []byte) (Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return Manifest{}, fmt.Errorf("ingest: decode catalog: %w", err)
	}
	if man.Format != catalogFormat {
		return Manifest{}, fmt.Errorf("ingest: unsupported catalog format %d", man.Format)
	}
	for i, e := range man.Steps {
		if e.Step != i {
			return Manifest{}, fmt.Errorf("ingest: catalog step %d out of order at position %d", e.Step, i)
		}
	}
	return man, nil
}
