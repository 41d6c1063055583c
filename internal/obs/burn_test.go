package obs

import (
	"math/rand"
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
	if m.FastRate() != 0 || m.SlowRate() != 0 || m.Breaches() != 0 {
		t.Fatal("nil monitor reported non-zero state")
	}
}

// scanBurn is the burn-rate reference: every second's outcomes in a ring
// tagged by second, and a window's rate a scan of the whole ring for the
// seconds it covers.
type scanBurn struct {
	ring   []burnBucket
	budget float64
}

func (o *scanBurn) record(now time.Time, good bool) {
	sec := now.Unix()
	b := &o.ring[sec%int64(len(o.ring))]
	if b.sec != sec {
		*b = burnBucket{sec: sec}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
}

func (o *scanBurn) rate(now time.Time, window time.Duration) float64 {
	lo := now.Unix() - int64(window/time.Second)
	var good, bad uint64
	for _, b := range o.ring {
		if b.sec > lo && b.sec <= now.Unix() {
			good += b.good
			bad += b.bad
		}
	}
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad) / o.budget
}

// TestBurnMonitorMatchesScan drives the running totals and the scan
// reference with one fake clock through random outcomes: same-second
// bursts, steps of a few seconds, steps just short of and past each
// window, and idle reads. Both rates, the breach count and the fired
// callbacks must agree after every step.
func TestBurnMonitorMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fastS, slowS := 1+rng.Intn(8), 10+rng.Intn(40)
		now := time.Unix(1_000_000+rng.Int63n(1000), 0)
		var fires, refFires int
		m := NewBurnMonitor(BurnConfig{
			Budget: 0.1, Fast: time.Duration(fastS) * time.Second, Slow: time.Duration(slowS) * time.Second,
			Threshold: 1, Cooldown: 7 * time.Second,
			OnBreach: func(fast, slow float64) { fires++ },
			nowFn:    func() time.Time { return now },
		})
		ref := &scanBurn{ring: make([]burnBucket, slowS+1), budget: 0.1}
		var lastFire time.Time
		firing := false
		var breaches uint64
		steps := []time.Duration{0, 0, 0, 300 * time.Millisecond, time.Second, 3 * time.Second,
			time.Duration(fastS) * time.Second, time.Duration(slowS-1) * time.Second,
			time.Duration(slowS) * time.Second, time.Duration(2*slowS+3) * time.Second}
		for i := 0; i < 3000; i++ {
			now = now.Add(steps[rng.Intn(len(steps))])
			if rng.Intn(10) == 0 {
				if f, w := m.FastRate(), ref.rate(now, m.cfg.Fast); f != w {
					t.Fatalf("seed %d step %d: idle fast rate %v, scan %v", seed, i, f, w)
				}
				continue
			}
			good := rng.Intn(4) != 0
			m.Record(good)
			ref.record(now, good)
			fast, slow := ref.rate(now, m.cfg.Fast), ref.rate(now, m.cfg.Slow)
			if fast >= 1 && slow >= 1 {
				if !firing && now.Sub(lastFire) >= m.cfg.Cooldown {
					firing, lastFire = true, now
					breaches++
					refFires++
				}
			} else {
				firing = false
			}
			if f, s := m.FastRate(), m.SlowRate(); f != fast || s != slow {
				t.Fatalf("seed %d step %d: rates %v/%v, scan %v/%v", seed, i, f, s, fast, slow)
			}
			if m.Breaches() != breaches || fires != refFires {
				t.Fatalf("seed %d step %d: %d breaches (%d fired), scan %d", seed, i, m.Breaches(), fires, breaches)
			}
		}
	}
}

// BenchmarkBurnRecord times one outcome folded into the default monitor
// (5m / 1h windows) on the real clock: what every request pays.
func BenchmarkBurnRecord(b *testing.B) {
	m := NewBurnMonitor(BurnConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Record(i%50 != 0)
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
