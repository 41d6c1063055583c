package ingest

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/colstore"
)

// Column is one named column of an incoming timestep. Exactly one of
// Float or Int is set; Int columns are stored as int64 (the identifier
// column), Float columns as float64.
type Column struct {
	Name  string    `json:"name"`
	Float []float64 `json:"float,omitempty"`
	Int   []int64   `json:"int,omitempty"`
}

// ErrInvalid marks a step AppendStep refused because its columns do not
// fit the dataset's schema — the producer's fault. Every other AppendStep
// error is a storage failure on this side and leaves the step uncommitted.
var ErrInvalid = errors.New("ingest: invalid step")

// Writer appends timesteps to a live dataset. One Writer owns the append
// path of its catalog: AppendStep serializes internally, lands the raw
// columns through colstore.Writer (temp + fsync + rename), and commits
// the step to the catalog only after the data file is durable. The
// returned entry is the committed manifest record.
type Writer struct {
	cat       *Catalog
	chunkRows int

	mu sync.Mutex // serializes appends: step numbers must be dense
}

// NewWriter creates a Writer over an open catalog. chunkRows <= 0 selects
// the colstore default.
func NewWriter(cat *Catalog, chunkRows int) *Writer {
	return &Writer{cat: cat, chunkRows: chunkRows}
}

// AppendStep validates cols against the dataset's declared variables,
// writes the next step's data file, and commits it. Every declared
// variable must be present exactly once with the same row count; unknown
// columns are rejected (the schema is fixed at catalog creation). Int
// values must lie within ±colstore.MaxExactInt: identifiers are gathered
// as float64, and a larger one would be read back as a different particle.
func (w *Writer) AppendStep(cols []Column) (StepEntry, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	man := w.cat.Snapshot()
	byName := map[string]*Column{}
	for i := range cols {
		c := &cols[i]
		if (c.Float == nil) == (c.Int == nil) {
			return StepEntry{}, 0, fmt.Errorf("%w: column %q must set exactly one of float/int", ErrInvalid, c.Name)
		}
		for _, v := range c.Int {
			if v > colstore.MaxExactInt || v < -colstore.MaxExactInt {
				return StepEntry{}, 0, fmt.Errorf("%w: column %q value %d is beyond ±2^53, which float64 reads cannot carry exactly",
					ErrInvalid, c.Name, v)
			}
		}
		if _, dup := byName[c.Name]; dup {
			return StepEntry{}, 0, fmt.Errorf("%w: duplicate column %q", ErrInvalid, c.Name)
		}
		byName[c.Name] = c
	}
	var rows uint64
	first := true
	for _, c := range byName {
		n := uint64(len(c.Float) + len(c.Int))
		if first {
			rows, first = n, false
		} else if n != rows {
			return StepEntry{}, 0, fmt.Errorf("%w: column %q has %d rows, others have %d", ErrInvalid, c.Name, len(c.Float)+len(c.Int), rows)
		}
	}
	for _, v := range man.Variables {
		if _, ok := byName[v]; !ok {
			return StepEntry{}, 0, fmt.Errorf("%w: missing declared variable %q", ErrInvalid, v)
		}
	}
	if len(byName) != len(man.Variables) {
		for name := range byName {
			known := false
			for _, v := range man.Variables {
				if v == name {
					known = true
					break
				}
			}
			if !known {
				return StepEntry{}, 0, fmt.Errorf("%w: unknown column %q (declared: %v)", ErrInvalid, name, man.Variables)
			}
		}
	}

	t := w.cat.NextStep()
	path := w.cat.StepPath(t)
	cw, err := colstore.NewWriter(path, rows, w.chunkRows)
	if err != nil {
		return StepEntry{}, 0, err
	}
	// Store in declared-variable order so live files are column-ordered
	// like lwfagen's.
	for _, v := range man.Variables {
		c := byName[v]
		if c.Int != nil {
			err = cw.AddInt64(c.Name, c.Int)
		} else {
			err = cw.AddFloat64(c.Name, c.Float)
		}
		if err != nil {
			cw.Discard()
			return StepEntry{}, 0, err
		}
	}
	if err := cw.Close(); err != nil {
		return StepEntry{}, 0, err
	}
	size, crc, err := fileCRC(path)
	if err != nil {
		return StepEntry{}, 0, fmt.Errorf("ingest: checksum step %d: %w", t, err)
	}
	entry := StepEntry{Step: t, Rows: rows, DataBytes: size, DataCRC: crc}
	gen, err := w.cat.Commit(entry)
	if err != nil {
		return StepEntry{}, 0, err
	}
	entry.Gen = gen
	metricStepsCommitted.Inc()
	metricRowsCommitted.Add(rows)
	metricBytesCommitted.Add(uint64(size))
	return entry, gen, nil
}
