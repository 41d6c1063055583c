package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBurnMonitorMultiWindowBreach drives a fake clock through a burn
// episode and checks the multi-window rule: a breach fires only while
// BOTH windows sit at or above the threshold, fires once per episode
// (edge-triggered), and re-fires only after the cooldown.
func TestBurnMonitorMultiWindowBreach(t *testing.T) {
	now := time.Unix(1000, 0)
	fires := 0
	m := NewBurnMonitor(BurnConfig{
		Budget:    0.1,
		Fast:      10 * time.Second,
		Slow:      60 * time.Second,
		Threshold: 1,
		Cooldown:  30 * time.Second,
		OnBreach:  func(fast, slow float64) { fires++ },
		nowFn:     func() time.Time { return now },
	})

	// All-good traffic burns nothing.
	for i := 0; i < 9; i++ {
		m.Record(true)
	}
	if r := m.FastRate(); r != 0 {
		t.Fatalf("fast rate after good traffic = %v, want 0", r)
	}

	// The 10th request is bad: 10% bad over a 10% budget is a burn rate
	// of exactly 1.0 in both windows, the breach edge.
	m.Record(false)
	if fires != 1 || m.Breaches() != 1 {
		t.Fatalf("fires=%d breaches=%d after first breach, want 1/1", fires, m.Breaches())
	}
	if r := m.FastRate(); r < 1 {
		t.Fatalf("fast rate at breach = %v, want >= 1", r)
	}

	// Still breaching: edge-triggering must not refire.
	m.Record(false)
	if fires != 1 {
		t.Fatalf("fires=%d while still breaching, want 1 (edge-triggered)", fires)
	}

	// Recovery traffic drops the fast burn below threshold and rearms.
	now = now.Add(5 * time.Second)
	for i := 0; i < 20; i++ {
		m.Record(true)
	}
	if r := m.FastRate(); r >= 1 {
		t.Fatalf("fast rate after recovery = %v, want < 1", r)
	}

	// Past the cooldown, a fresh burst must breach again. Two bads: the
	// first sits inside the cooldown-free fast window but the slow window
	// still remembers the good recovery traffic.
	now = now.Add(27 * time.Second)
	m.Record(false)
	m.Record(false)
	if fires != 2 || m.Breaches() != 2 {
		t.Fatalf("fires=%d breaches=%d after second episode, want 2/2", fires, m.Breaches())
	}

	if fast, slow := m.Windows(); fast != 10*time.Second || slow != 60*time.Second {
		t.Fatalf("Windows() = %v/%v", fast, slow)
	}
}

// TestBurnMonitorSlowWindowGate: a burst that saturates the fast window
// but not the slow one must not breach — the slow window is the
// "not just a blip" proof.
func TestBurnMonitorSlowWindowGate(t *testing.T) {
	now := time.Unix(2000, 0)
	fires := 0
	m := NewBurnMonitor(BurnConfig{
		Budget:    0.1,
		Fast:      5 * time.Second,
		Slow:      60 * time.Second,
		Threshold: 1,
		OnBreach:  func(fast, slow float64) { fires++ },
		nowFn:     func() time.Time { return now },
	})
	// A long good history dilutes the slow window.
	for i := 0; i < 200; i++ {
		m.Record(true)
	}
	now = now.Add(30 * time.Second)
	m.Record(false) // fast: 100% bad; slow: 1/201 bad
	if fires != 0 {
		t.Fatalf("breach fired on a fast-window blip (fast=%v slow=%v)", m.FastRate(), m.SlowRate())
	}
	if m.FastRate() < 1 {
		t.Fatalf("fast rate = %v, want >= 1", m.FastRate())
	}
	if m.SlowRate() >= 1 {
		t.Fatalf("slow rate = %v, want < 1", m.SlowRate())
	}
}

// TestBurnMonitorNilSafe: every method must be a no-op on nil so servers
// without a monitor pay nothing.
func TestBurnMonitorNilSafe(t *testing.T) {
	var m *BurnMonitor
	m.Record(true)
	m.Record(false)
	if m.FastRate() != 0 || m.SlowRate() != 0 || m.Rate(time.Minute) != 0 || m.Breaches() != 0 {
		t.Fatal("nil monitor reported non-zero state")
	}
}

// TestFlightRecorderCaptureSpool: a capture writes the full evidence set
// into a fresh directory, and the spool trims to the configured bound.
func TestFlightRecorderCaptureSpool(t *testing.T) {
	dir := t.TempDir()
	fr, err := NewFlightRecorder(dir, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	slow := NewSlowLog(4)
	slow.Add(SlowEntry{TraceID: "t1", Endpoint: "query", DurationMS: 500, Status: 200})

	for i := 0; i < 3; i++ {
		if !fr.CaptureSync("test-breach", slow, map[string]any{"fast_burn": 2.5}) {
			t.Fatalf("capture %d refused", i)
		}
	}
	if fr.Captures() != 3 {
		t.Fatalf("Captures() = %d, want 3", fr.Captures())
	}

	last := fr.LastCaptureDir()
	if last == "" {
		t.Fatal("no last capture dir")
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "slow.json", "meta.json"} {
		if _, err := os.Stat(filepath.Join(last, f)); err != nil {
			t.Errorf("capture missing %s: %v", f, err)
		}
	}
	meta, err := os.ReadFile(filepath.Join(last, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason": "test-breach"`, `"fast_burn": 2.5`} {
		if !strings.Contains(string(meta), want) {
			t.Errorf("meta.json missing %s:\n%s", want, meta)
		}
	}
	sj, err := os.ReadFile(filepath.Join(last, "slow.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sj), `"trace_id": "t1"`) {
		t.Errorf("slow.json missing the ring entry:\n%s", sj)
	}

	// Spool bound: 3 captures, max 2 kept.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "capture-") {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("spool kept %d captures, want 2", kept)
	}
}

// TestFlightRecorderNilAndErrors: nil recorders swallow captures, and a
// recorder without a directory is a construction error.
func TestFlightRecorderNilAndErrors(t *testing.T) {
	var fr *FlightRecorder
	if fr.Capture("x", nil, nil) || fr.CaptureSync("x", nil, nil) {
		t.Fatal("nil recorder accepted a capture")
	}
	if fr.Captures() != 0 || fr.Dropped() != 0 || fr.LastCaptureDir() != "" {
		t.Fatal("nil recorder reported state")
	}
	if _, err := NewFlightRecorder("", 4, time.Second); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestComponentDefaults pins what zero arguments mean — the values every
// qserve runs with, since no flag sets them.
func TestComponentDefaults(t *testing.T) {
	b := NewBurnMonitor(BurnConfig{}).cfg
	if b.Budget != 0.05 || b.Threshold != 1 || b.Fast != 5*time.Minute || b.Slow != time.Hour || b.Cooldown != time.Hour {
		t.Errorf("burn monitor defaults: %+v", b)
	}
	fr, err := NewFlightRecorder(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.max != 8 || fr.cpuDur != 2*time.Second {
		t.Errorf("flight recorder defaults: %d captures, %v cpu", fr.max, fr.cpuDur)
	}
	if l := NewSlowLog(0); l.max != 128 {
		t.Errorf("slow log default = %d entries, want 128", l.max)
	}
}
