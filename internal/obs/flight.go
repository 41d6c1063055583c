package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder captures post-hoc incident evidence — a CPU profile, a
// heap profile, the slow-query ring and a metadata document — into a
// bounded on-disk spool of capture directories. It exists so an SLO
// breach at 3am leaves enough behind for next-morning analysis without
// an operator attached to pprof at the time.
//
// Captures are single-flight: a breach that fires while a capture is
// already running is dropped (the running capture covers the incident).
// The spool keeps the flightCaptures most recent directories; older ones
// are removed after each successful capture.
type FlightRecorder struct {
	dir    string
	cpuDur time.Duration

	busy     atomic.Bool
	seq      atomic.Uint64
	captures atomic.Uint64
	dropped  atomic.Uint64

	mu   sync.Mutex // serializes spool trimming
	last atomic.Value
}

// flightCaptures is how many capture directories the spool keeps.
const flightCaptures = 8

// NewFlightRecorder creates a recorder spooling into dir, keeping the
// flightCaptures most recent capture directories. cpuDur is how long the
// CPU profile samples (<= 0 defaults to 2s).
func NewFlightRecorder(dir string, cpuDur time.Duration) (*FlightRecorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder: %w", err)
	}
	if cpuDur <= 0 {
		cpuDur = 2 * time.Second
	}
	return &FlightRecorder{dir: dir, cpuDur: cpuDur}, nil
}

// Captures returns how many captures completed.
func (fr *FlightRecorder) Captures() uint64 {
	if fr == nil {
		return 0
	}
	return fr.captures.Load()
}

// Dropped returns how many capture requests were dropped because a
// capture was already in flight.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped.Load()
}

// LastCaptureDir returns the directory of the most recent completed
// capture ("" before the first).
func (fr *FlightRecorder) LastCaptureDir() string {
	if fr == nil {
		return ""
	}
	if v, ok := fr.last.Load().(string); ok {
		return v
	}
	return ""
}

// Capture asynchronously writes one capture — meta.json, slow.json,
// cpu.pprof, heap.pprof — into a fresh capture directory, then trims the
// spool. reason and meta land in meta.json. It returns immediately; the
// work (including the CPU-profile sampling window) runs in a goroutine.
// Returns false if a capture was already in flight.
func (fr *FlightRecorder) Capture(reason string, slow *SlowLog, meta map[string]any) bool {
	if fr == nil {
		return false
	}
	if !fr.busy.CompareAndSwap(false, true) {
		fr.dropped.Add(1)
		return false
	}
	go func() {
		defer fr.busy.Store(false)
		fr.capture(reason, slow, meta)
	}()
	return true
}

// CaptureSync is Capture but blocking; tests and shutdown paths use it.
func (fr *FlightRecorder) CaptureSync(reason string, slow *SlowLog, meta map[string]any) bool {
	if fr == nil {
		return false
	}
	if !fr.busy.CompareAndSwap(false, true) {
		fr.dropped.Add(1)
		return false
	}
	defer fr.busy.Store(false)
	fr.capture(reason, slow, meta)
	return true
}

func (fr *FlightRecorder) capture(reason string, slow *SlowLog, meta map[string]any) {
	start := time.Now()
	name := fmt.Sprintf("capture-%s-%03d", start.UTC().Format("20060102T150405"), fr.seq.Add(1)%1000)
	dir := filepath.Join(fr.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}

	// CPU profile first: it is the only part with a sampling window, and
	// profiling while the incident is still hot is the whole point. A
	// concurrent CPU profile (e.g. an operator on /debug/pprof) makes
	// StartCPUProfile fail; the capture still writes everything else.
	cpuErr := fr.writeCPUProfile(filepath.Join(dir, "cpu.pprof"))
	heapErr := writeHeapProfile(filepath.Join(dir, "heap.pprof"))

	if slow != nil {
		if buf, err := json.MarshalIndent(slow.Snapshot(), "", "  "); err == nil {
			os.WriteFile(filepath.Join(dir, "slow.json"), append(buf, '\n'), 0o644)
		}
	}

	doc := map[string]any{
		"reason":      reason,
		"started_at":  start.UTC().Format(time.RFC3339Nano),
		"duration_ms": float64(time.Since(start)) / float64(time.Millisecond),
		"goroutines":  runtime.NumGoroutine(),
	}
	if cpuErr != nil {
		doc["cpu_profile_error"] = cpuErr.Error()
	}
	if heapErr != nil {
		doc["heap_profile_error"] = heapErr.Error()
	}
	for k, v := range meta {
		doc[k] = v
	}
	if buf, err := json.MarshalIndent(doc, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "meta.json"), append(buf, '\n'), 0o644)
	}

	fr.captures.Add(1)
	fr.last.Store(dir)
	fr.trim()
}

func (fr *FlightRecorder) writeCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		os.Remove(path)
		return err
	}
	time.Sleep(fr.cpuDur)
	pprof.StopCPUProfile()
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

// trim removes the oldest capture directories beyond the spool bound.
// Directory names sort chronologically (UTC timestamp prefix).
func (fr *FlightRecorder) trim() {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	entries, err := os.ReadDir(fr.dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "capture-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for len(names) > flightCaptures {
		os.RemoveAll(filepath.Join(fr.dir, names[0]))
		names = names[1:]
	}
}
