package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
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

	publishMu sync.Mutex      // serializes refreshLive
	published func(*snapshot) // tests: sees each swap, under publishMu

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

// stats summarizes the ingestion pipeline for /v1/stats, counting man's steps.
func (l *liveState) stats(man *ingest.Manifest) IngestStats {
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
	man := cat.Snapshot()
	d := newDataset(name, src, &man)
	live := &liveState{
		cat:    cat,
		writer: ingest.NewWriter(cat, 0),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
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
		OnPublished: func(step int) { s.refreshLive(d, nil) },
		OnFailed:    func(step int, err error) { s.refreshLive(d, nil) },
	})
	if err := s.register(d); err != nil {
		return err
	}

	live.builder.Start() // re-enqueues committed-but-unindexed steps
	go s.watchCatalog(d, lc.CatalogPoll)
	return nil
}

// refreshLive publishes man — the in-memory catalog's manifest when nil
// — unless the serving snapshot is already as new. The source reloads
// first and the snapshot swaps after, so no request sees a manifest before
// the steps it commits can open; on a failed reload the last good snapshot
// keeps serving. Safe to call concurrently: publishes serialize, so
// snapshots swap in generation order.
func (s *Server) refreshLive(d *dataset, man *ingest.Manifest) {
	d.live.publishMu.Lock()
	defer d.live.publishMu.Unlock()
	if man == nil {
		cur := d.live.cat.Snapshot()
		man = &cur
	}
	if man.Generation <= d.snap.Load().man.Generation {
		return
	}
	ds, err := d.src.Reload()
	if err != nil {
		s.cfg.Logger.Error("live reload", "dataset", d.name, "err", err)
		return
	}
	if ds.Meta.Steps < len(man.Steps) {
		return // read between a writer's catalog.json and meta.json renames; the next poll publishes
	}
	sn := &snapshot{man: man, ds: ds}
	d.snap.Store(sn)
	if d.live.published != nil {
		d.live.published(sn)
	}
}

// watchCatalog polls the on-disk catalog and publishes a manifest newer
// than the serving snapshot's — the path by which commits from another
// process (an external writer appending to the shared directory) become
// visible without a restart. A manifest ingest.ReadManifest refuses is
// logged and the last good snapshot keeps serving. In-process commits
// refresh synchronously and never wait on the poll. The catalog is
// single-writer: a directory fed by an external writer must not also take
// POST /v1/ingest.
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
			man, err := ingest.ReadManifest(d.live.cat.Dir())
			if err != nil {
				s.cfg.Logger.Error("live watch", "dataset", d.name, "err", err)
				continue
			}
			s.refreshLive(d, &man)
		}
	}
}

// indexState classifies timestep t < sn.steps() for /v1/steps detail:
// "indexed", "pending" (committed, build not finished) or "failed"
// (permanent build failure; serves scan-only) by the manifest, and a
// static step "indexed" or "none" by the sidecar st opened.
func (sn *snapshot) indexState(t int, st *fastquery.Step) string {
	if sn.man == nil {
		if st.HasIndex() {
			return "indexed"
		}
		return "none"
	}
	switch e := sn.man.Steps[t]; {
	case e.Indexed:
		return "indexed"
	case e.IndexError != "":
		return "failed"
	}
	return "pending"
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
			d, herr := s.dataset(name)
			if herr != nil {
				return nil, herr
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
				s.refreshLive(d, nil)
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
