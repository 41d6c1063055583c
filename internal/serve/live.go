package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/ingest"
	"repro/internal/plan"
)

// MaxIngestBody bounds one POST /v1/ingest request body. A timestep of
// 10M particles with 8 variables is ~1.5 GB of JSON; anything bigger
// should be split into more steps, not a larger one.
const MaxIngestBody = 1 << 31

// LiveConfig parameterises a live (read-write) dataset. Zero values take
// the documented defaults.
type LiveConfig struct {
	// IngestWorkers bounds the background index-builder pool. Default 1.
	IngestWorkers int
	// CatalogPoll is how often the catalog watcher re-reads the manifest
	// generation from disk, picking up commits made by other processes
	// sharing the directory. Default 500ms; negative disables the watcher
	// (in-process commits still refresh immediately).
	CatalogPoll time.Duration
	// IndexVars lists the variables the builder indexes; nil indexes every
	// declared variable except the identifier column.
	IndexVars []string
	// Index holds the bitmap index build parameters.
	Index fastbit.IndexOptions
	// BuildRetries bounds index build attempts per step; 0 uses the
	// builder default (5).
	BuildRetries int
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = 1
	}
	if c.CatalogPoll == 0 {
		c.CatalogPoll = 500 * time.Millisecond
	}
	return c
}

// liveState is the ingestion side of one live dataset: the open catalog,
// the step writer behind POST /v1/ingest, the background index-builder
// pool, and the generation watcher.
type liveState struct {
	cat     *ingest.Catalog
	writer  *ingest.Writer
	builder *ingest.Builder
	// man is the serving snapshot of the manifest, refreshed after every
	// in-process mutation and by the watcher; readers (cache keys, steps
	// detail, stats) load it lock-free.
	man atomic.Pointer[ingest.Manifest]

	ingestMu sync.Mutex // serializes POST /v1/ingest appends
	stop     chan struct{}
	stopped  sync.Once
	done     chan struct{}
}

func (l *liveState) stopAll() {
	l.stopped.Do(func() {
		close(l.stop)
		<-l.done
		l.builder.Stop()
	})
}

// stats summarizes the ingestion pipeline for /v1/stats.
func (l *liveState) stats() IngestStats {
	man := l.man.Load()
	built, retries, failures := l.builder.Stats()
	return IngestStats{
		Generation:    man.Generation,
		Committed:     len(man.Steps),
		Indexed:       man.IndexedSteps(),
		Lag:           man.Lag(),
		Backlog:       l.builder.Backlog(),
		IndexesBuilt:  built,
		IndexRetries:  retries,
		IndexFailures: failures,
	}
}

// AddLiveDataset opens (or bootstraps, for a legacy lwfagen directory) the
// dataset in dir as a live dataset served under name: it accepts new
// timesteps via POST /v1/ingest, builds their sidecar indexes in the
// background, and hot-reloads so new steps become queryable — scan backend
// first, fastbit once the index lands — without a restart.
func (s *Server) AddLiveDataset(name, dir string, lc LiveConfig) error {
	lc = lc.withDefaults()
	cat, err := ingest.Open(dir)
	if err != nil {
		return err
	}
	src, err := fastquery.Open(dir)
	if err != nil {
		return err
	}
	d := &dataset{name: name, src: src, steps: map[int]*stepHandle{}}
	live := &liveState{
		cat:    cat,
		writer: ingest.NewWriter(cat, 0),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	man := cat.Snapshot()
	live.man.Store(&man)
	d.live = live
	live.builder = ingest.NewBuilder(cat, ingest.BuilderConfig{
		Workers:     lc.IngestWorkers,
		MaxAttempts: lc.BuildRetries,
		IndexVars:   lc.IndexVars,
		Index:       lc.Index,
		Logger:      s.cfg.Logger,
		// Both hooks refresh the snapshot: a publish bumps the step's
		// generation (upgrading it to fastbit and rotating its cache keys),
		// a permanent failure records the cause for /v1/steps.
		OnPublished: func(step int) { s.refreshLive(d) },
		OnFailed:    func(step int, err error) { s.refreshLive(d) },
	})

	s.mu.Lock()
	if _, dup := s.datasets[name]; dup {
		s.mu.Unlock()
		src.Close() //nolint:errcheck // idempotent
		return fmt.Errorf("serve: duplicate dataset %q", name)
	}
	s.datasets[name] = d
	s.order = append(s.order, name)
	s.mu.Unlock()

	live.builder.Start() // re-enqueues committed-but-unindexed steps
	go s.watchCatalog(d, lc.CatalogPoll)
	return nil
}

// refreshLive republishes the manifest snapshot and reloads the source so
// newly committed steps open. Safe to call concurrently; the snapshot and
// the dataset pointer each swap atomically.
func (s *Server) refreshLive(d *dataset) {
	man := d.live.cat.Snapshot()
	d.live.man.Store(&man)
	if _, err := d.src.Reload(); err != nil {
		s.cfg.Logger.Error("live reload", "dataset", d.name, "err", err)
	}
}

// watchCatalog polls the on-disk catalog generation and, when it moves
// past the serving snapshot, loads the manifest from disk and reloads the
// source — the path by which commits from another process (an external
// writer appending to the shared directory) become visible without a
// restart. In-process commits refresh synchronously and never wait on the
// poll. The catalog is single-writer: a directory fed by an external
// writer must not also take POST /v1/ingest.
func (s *Server) watchCatalog(d *dataset, poll time.Duration) {
	defer close(d.live.done)
	if poll < 0 {
		<-d.live.stop
		return
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-d.live.stop:
			return
		case <-tick.C:
			g, err := ingest.ReadGeneration(d.live.cat.Dir())
			if err != nil || g <= d.live.man.Load().Generation {
				continue
			}
			man, err := ingest.ReadManifest(d.live.cat.Dir())
			if err != nil {
				s.cfg.Logger.Error("live watch", "dataset", d.name, "err", err)
				continue
			}
			// Re-check under the freshly read manifest: a concurrent
			// in-process mutation may have refreshed past what disk held
			// when the generation was sampled.
			if man.Generation > d.live.man.Load().Generation {
				d.live.man.Store(&man)
				if _, err := d.src.Reload(); err != nil {
					s.cfg.Logger.Error("live reload", "dataset", d.name, "err", err)
				}
			}
		}
	}
}

// indexState classifies timestep t for /v1/steps detail by the manifest
// man: "indexed", "pending" (committed, build not finished), "failed"
// (permanent build failure; serves scan-only), or "none" past its steps.
// A static dataset (man nil) is "indexed" or "none" by its sidecar.
func indexState(man *ingest.Manifest, t int, st *fastquery.Step) string {
	if man == nil {
		if st.HasIndex() {
			return "indexed"
		}
		return "none"
	}
	if t < 0 || t >= len(man.Steps) {
		return "none"
	}
	switch e := man.Steps[t]; {
	case e.Indexed:
		return "indexed"
	case e.IndexError != "":
		return "failed"
	default:
		return "pending"
	}
}

// ingestOp is POST /v1/ingest: append one timestep to a live dataset.
// The columns land through colstore.Writer (atomic temp+fsync+rename),
// the catalog commit makes the step durable and immediately queryable via
// the scan backend, and the background builder upgrades it to fastbit.
//
// Ingest is the lowest admission class: producers buffer and retry, so
// under pressure appends shed (with a Retry-After sized to the drain rate)
// before any read traffic does — and before the body is even read, which
// is why decoding and the dataset lookup run under the gate slot, not in
// the builder.
func (s *Server) ingestOp(r *http.Request) (*op, *httpError) {
	if r.Method != http.MethodPost {
		return nil, errf(http.StatusMethodNotAllowed, "POST only")
	}
	// The body is the step, whatever Content-Type the producer sent (curl -d
	// says form-urlencoded): take it off r, so that no r.FormValue
	// downstream parses it away as a form before exec decodes it.
	payload := http.MaxBytesReader(nil, r.Body, MaxIngestBody)
	r.Body = http.NoBody
	var ack IngestResponse
	return &op{
		class: ClassIngest,
		exec: func(context.Context) (*plan.Result, error) {
			var body IngestBody
			if err := json.NewDecoder(payload).Decode(&body); err != nil {
				return nil, errf(http.StatusBadRequest, "decode body: %v", err)
			}
			name := body.Dataset
			if name == "" {
				name = r.URL.Query().Get("dataset")
			}
			s.mu.RLock()
			var d *dataset
			if name == "" && len(s.order) == 1 {
				d = s.datasets[s.order[0]]
			} else {
				d = s.datasets[name]
			}
			s.mu.RUnlock()
			if d == nil {
				return nil, errf(http.StatusNotFound, "unknown dataset %q", name)
			}
			if d.live == nil {
				return nil, errf(http.StatusConflict, "dataset %q is not live (start with -live)", d.name)
			}
			cols := make([]ingest.Column, len(body.Columns))
			for i, c := range body.Columns {
				cols[i] = ingest.Column{Name: c.Name, Float: c.Float, Int: c.Int}
			}
			// One append at a time per dataset: steps are strictly ordered and
			// the writer validates against the committed count.
			d.live.ingestMu.Lock()
			entry, gen, err := d.live.writer.AppendStep(cols)
			if err == nil {
				s.refreshLive(d)
			}
			d.live.ingestMu.Unlock()
			if errors.Is(err, ingest.ErrInvalid) {
				return nil, errf(http.StatusBadRequest, "%v", err)
			}
			if err != nil {
				return nil, err // a storage failure is ours: 500, the producer retries
			}
			d.live.builder.Enqueue(entry.Step)
			s.cfg.Logger.Info("step ingested",
				"dataset", d.name, "step", entry.Step, "rows", entry.Rows, "gen", gen)
			ack = IngestResponse{
				Dataset:    d.name,
				Step:       entry.Step,
				Rows:       entry.Rows,
				Bytes:      entry.DataBytes,
				Generation: gen,
				Steps:      entry.Step + 1,
			}
			return nil, nil
		},
		body: func(*plan.Result, ResponseMeta) any { return ack },
	}, nil
}
