package main

// The fixed inputs: dataset D12, its distribution profile, the pre-encoded
// ingest bodies and the private copies the live workload writes into. All of
// it lives under .bench_build/ in the checkout and is made once per checkout
// by the checkout's own lwfagen.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/colstore"
)

// D12's shape: lwfagen -steps 12 -particles 300000 -beam 2000 -seed 0x5eed
// -index-bins 256, about 3.6 M rows and 320 MB with indexes.
const (
	d12Steps     = 12
	d12Particles = 300000
	d12Beam      = 2000
	d12Seed      = "0x5eed"
	d12Bins      = 256
	datasetName  = "lwfa"
)

// Live workload: the server starts on the first liveBase steps of D12 and
// the writer appends liveRows-row steps sampled from the later ones.
const (
	liveBase   = 4
	liveRows   = 50000
	liveBodies = 8
)

// paths names everything the harness keeps on disk, relative to the root of
// the checkout (the working directory).
type paths struct {
	Bin     string // lwfagen, qserve
	Data    string // D12, profile, ingest bodies
	Scratch string // per-run private copies and samples
	Results string // logs, trace.json
}

func defaultPaths() paths {
	return paths{
		Bin:     filepath.Join(".bench_build", "bin"),
		Data:    filepath.Join(".bench_build", "data"),
		Scratch: filepath.Join(".bench_build", "scratch"),
		Results: filepath.Join("bench", "results"),
	}
}

func (p paths) d12() string         { return filepath.Join(p.Data, "D12") }
func (p paths) liveDir() string     { return filepath.Join(p.Scratch, "live") } // the live workload's private copy
func (p paths) profile() string     { return filepath.Join(p.Data, "D12.profile.json") }
func (p paths) body(k int) string   { return filepath.Join(p.Data, fmt.Sprintf("ingest_%02d.json", k)) }
func (p paths) bin(n string) string { return filepath.Join(p.Bin, n) }

// lwfagen runs the checkout's generator for a D12-shaped dataset of the
// given step count.
func (p paths) lwfagen(out string, steps int) error {
	cmd := exec.Command(p.bin("lwfagen"), "-q",
		"-out", out, "-steps", strconv.Itoa(steps),
		"-particles", strconv.Itoa(d12Particles), "-beam", strconv.Itoa(d12Beam),
		"-seed", d12Seed, "-index-bins", strconv.Itoa(d12Bins))
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("lwfagen: %w: %s", err, b)
	}
	return nil
}

// ensureDataset generates D12, its profile and the ingest bodies unless a
// previous run in this checkout already did. Each artefact is published by
// rename, so an interrupted run leaves nothing half-made behind.
func ensureDataset(p paths) (*profile, error) {
	if err := os.MkdirAll(p.Data, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(p.d12(), "meta.json")); err != nil {
		tmp := p.d12() + ".tmp"
		os.RemoveAll(tmp) //nolint:errcheck // may not exist
		if err := p.lwfagen(tmp, d12Steps); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, p.d12()); err != nil {
			return nil, err
		}
	}
	if buf, err := os.ReadFile(p.profile()); err == nil {
		var prof profile
		if err := json.Unmarshal(buf, &prof); err == nil && len(prof.Steps) == d12Steps {
			if _, err := os.Stat(p.body(liveBodies - 1)); err == nil {
				return &prof, nil
			}
		}
	}
	ds, err := colstore.OpenDataset(p.d12())
	if err != nil {
		return nil, err
	}
	prof := &profile{}
	for t := 0; t < d12Steps; t++ {
		cols, ids, err := readStep(ds, t)
		if err != nil {
			return nil, err
		}
		prof.Steps = append(prof.Steps, newStepProfile(cols))
		if k := t - liveBase; k >= 0 && k < liveBodies {
			if err := writeJSONFile(p.body(k), ingestBody(ds.Meta.Variables, cols, ids)); err != nil {
				return nil, err
			}
		}
	}
	if err := writeJSONFile(p.profile(), prof); err != nil {
		return nil, err
	}
	return prof, nil
}

// readStep reads every float column of a step plus the id column.
func readStep(ds *colstore.Dataset, t int) (map[string][]float64, []int64, error) {
	f, err := ds.OpenStep(t)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	cols := map[string][]float64{}
	for _, v := range ds.Meta.Variables {
		if v == "id" {
			continue
		}
		if cols[v], err = f.ReadAsFloat64(v); err != nil {
			return nil, nil, err
		}
	}
	ids, err := f.ReadInt64("id")
	return cols, ids, err
}

// ingestColumn and ingestPayload mirror serve.IngestBody; the harness talks
// to servers over HTTP only and keeps its own wire types.
type ingestColumn struct {
	Name  string    `json:"name"`
	Float []float64 `json:"float,omitempty"`
	Int   []int64   `json:"int,omitempty"`
}

type ingestPayload struct {
	Dataset string         `json:"dataset"`
	Columns []ingestColumn `json:"columns"`
}

// ingestBody samples liveRows rows of a step at a fixed stride — the rows
// are ordered by id with the beams last, so a stride keeps every population
// where a prefix would drop the beams.
func ingestBody(vars []string, cols map[string][]float64, ids []int64) ingestPayload {
	stride := max(1, len(ids)/liveRows)
	n := min(liveRows, len(ids)/stride)
	body := ingestPayload{Dataset: datasetName}
	for _, v := range vars {
		c := ingestColumn{Name: v}
		if v == "id" {
			c.Int = make([]int64, n)
			for i := range c.Int {
				c.Int[i] = ids[i*stride]
			}
		} else {
			c.Float = make([]float64, n)
			for i := range c.Float {
				c.Float[i] = cols[v][i*stride]
			}
		}
		body.Columns = append(body.Columns, c)
	}
	return body
}

// writeJSONFile publishes v as JSON at path by rename.
func writeJSONFile(path string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// liveCopy makes the live workload's private dataset: the first liveBase
// steps of D12 (data and index files copied, never linked — the server owns
// and rewrites this directory) under a meta.json that says so.
func liveCopy(p paths, dst string) error {
	os.RemoveAll(dst) //nolint:errcheck // may not exist
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ds, err := colstore.OpenDataset(p.d12())
	if err != nil {
		return err
	}
	meta := ds.Meta
	meta.Steps = liveBase
	if _, err := colstore.CreateDataset(dst, meta); err != nil {
		return err
	}
	for t := 0; t < liveBase; t++ {
		for _, name := range []string{colstore.StepFileName(t), colstore.IndexFileName(t)} {
			if err := copyFile(filepath.Join(p.d12(), name), filepath.Join(dst, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// diskRatio is disk_bytes_per_data_byte of a served directory: data, index
// and catalog bytes over rows x columns x 8. It also returns index bytes per
// row.
func diskRatio(dir string) (ratio, indexBytesPerRow float64, err error) {
	ds, err := colstore.OpenDataset(dir)
	if err != nil {
		return 0, 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var disk, index int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case strings.HasSuffix(e.Name(), ".idx"):
			index += info.Size()
			disk += info.Size()
		case strings.HasSuffix(e.Name(), ".col"), strings.HasSuffix(e.Name(), ".json"):
			disk += info.Size()
		}
	}
	var rows uint64
	for t := 0; t < ds.Meta.Steps; t++ {
		f, err := ds.OpenStep(t)
		if err != nil {
			return 0, 0, err
		}
		rows += f.Rows()
		f.Close()
	}
	raw := float64(rows) * float64(len(ds.Meta.Variables)) * 8
	if raw == 0 {
		return 0, 0, fmt.Errorf("disk ratio: %s holds no rows", dir)
	}
	return float64(disk) / raw, float64(index) / float64(rows), nil
}
