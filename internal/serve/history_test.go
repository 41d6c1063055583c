package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fastbit"
	"repro/internal/obs"
)

// published is one snapshot a live dataset swapped in, stamped by the
// publish hook right after the swap (the snapshot serving before the hook
// was installed is stamped at the install).
type published struct {
	sn *snapshot
	at time.Time
}

// observed is one response a history reader recorded: which endpoint,
// when the request was invoked and when its response had been read.
type observed struct {
	kind        string // "query", "steps" or "stats"
	invoke, ret time.Time
	query       QueryBody
	steps       StepsBody
	stats       IngestStats
}

// matches reports whether the response equals the snapshot's state.
func (o *observed) matches(sn *snapshot) bool {
	man := sn.man
	switch o.kind {
	case "query":
		return o.query.Step == len(man.Steps)-1 && o.query.Rows == man.Steps[o.query.Step].Rows
	case "steps":
		if o.steps.Generation != man.Generation || o.steps.Steps != len(man.Steps) || len(o.steps.Detail) != len(man.Steps) {
			return false
		}
		for t, info := range o.steps.Detail {
			if info.Rows != man.Steps[t].Rows || info.IndexState != sn.indexState(t, nil) {
				return false
			}
		}
		return true
	default:
		return o.stats.Generation == man.Generation && o.stats.Committed == len(man.Steps) &&
			o.stats.Indexed == man.IndexedSteps() && o.stats.Lag == man.Lag()
	}
}

// TestLiveHistoryLinearizable is the live dataset's history oracle. One
// writer ingests over HTTP while the builder publishes indexes, and four
// readers issue /v1/query, /v1/steps?detail=1 and /v1/stats. Every
// response must equal one published snapshot that was current at some
// instant between the request's invoke and its return — linearizability
// of an append-only register, so no general checker is needed.
//
// Snapshot i was current from its swap s_i to the next swap s_i+1. Swaps
// serialize under the publish lock with the hook inside it, so the hook's
// stamps h bracket them: h_i-1 < s_i <= h_i, with h_0 the install of the
// hook (under the same lock). The check therefore accepts
// snapshot i for a response whose [invoke, return] meets (h_i-1, h_i+1],
// which contains [s_i, s_i+1).
func TestLiveHistoryLinearizable(t *testing.T) {
	const seedSteps, totalSteps, readers = 2, 6, 4
	cfg := Config{Concurrency: 8, Logger: obs.NewLogger(io.Discard, "test")}
	s, ts, simRun := liveServerCfg(t, cfg, seedSteps, totalSteps, LiveConfig{
		IngestWorkers: 2,
		Index:         fastbit.IndexOptions{Bins: 32},
	})
	d := s.datasets["live"]
	var mu sync.Mutex
	var history []published
	d.live.publishMu.Lock()
	history = append(history, published{sn: d.snap.Load(), at: time.Now()})
	d.live.published = func(sn *snapshot) {
		mu.Lock()
		history = append(history, published{sn: sn, at: time.Now()})
		mu.Unlock()
	}
	d.live.publishMu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	seen := make([][]observed, readers)
	paths := map[string]string{
		"query": "/v1/query?q=px+%3E+1e8",
		"steps": "/v1/steps?detail=1",
		"stats": "/v1/stats",
	}
	kinds := []string{"query", "steps", "stats"}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				o := observed{kind: kinds[i%len(kinds)], invoke: time.Now()}
				resp, err := http.Get(ts.URL + paths[o.kind])
				if err != nil {
					t.Errorf("reader %d: %s: %v", r, o.kind, err)
					return
				}
				var stats StatsBody
				out := map[string]any{"query": &o.query, "steps": &o.steps, "stats": &stats}[o.kind]
				err = json.NewDecoder(resp.Body).Decode(out)
				resp.Body.Close()
				o.ret = time.Now()
				o.stats = stats.Ingest["live"]
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: %s: status %d, %v", r, o.kind, resp.StatusCode, err)
					return
				}
				seen[r] = append(seen[r], o)
			}
		}(r)
	}

	for i := seedSteps; i < totalSteps; i++ {
		var ack IngestResponse
		if code, body := postJSON(t, ts, "/v1/ingest", stepBody(t, simRun, i), &ack); code != http.StatusOK {
			close(done)
			wg.Wait()
			t.Fatalf("ingest step %d: %d: %s", i, code, body)
		}
		time.Sleep(5 * time.Millisecond) // let readers overlap each commit and its index build
	}
	waitIndexed(t, ts, totalSteps, 30*time.Second)
	close(done)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, rs := range seen {
		for _, o := range rs {
			n++
			if !linearizes(o, history) {
				t.Errorf("%s response %+v %+v %+v (%v → %v) equals no snapshot current in its interval",
					o.kind, o.query, o.steps, o.stats, o.invoke.Format(time.StampMicro), o.ret.Format(time.StampMicro))
			}
		}
	}
	if n < readers*len(kinds) {
		t.Fatalf("only %d responses recorded", n)
	}
	t.Logf("%d responses against %d snapshots", n, len(history))
}

// linearizes reports whether some snapshot of history equals o and may
// have been current within o's interval (see TestLiveHistoryLinearizable).
func linearizes(o observed, history []published) bool {
	for i, p := range history {
		if !o.matches(p.sn) {
			continue
		}
		startOK := i == 0 || o.ret.After(history[i-1].at)
		endOK := i+1 >= len(history) || !o.invoke.After(history[i+1].at)
		if startOK && endOK {
			return true
		}
	}
	return false
}
