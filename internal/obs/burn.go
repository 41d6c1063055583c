package obs

import (
	"sync"
	"time"
)

// BurnWindow is one burn-rate evaluation window.
type BurnWindow struct {
	Name string        // label value, e.g. "5m"
	Dur  time.Duration // lookback
}

// BurnConfig configures a multi-window SLO burn-rate monitor.
type BurnConfig struct {
	// Budget is the tolerated bad-request fraction (the error budget);
	// <= 0 defaults to 0.05. Burn rate is badFraction / Budget, so a
	// burn of 1.0 means the service is consuming budget exactly as fast
	// as it accrues.
	Budget float64
	// Fast and Slow are the two evaluation windows. A breach requires
	// the burn rate over BOTH windows to reach Threshold — the classic
	// multi-window rule: the slow window proves it is not a blip, the
	// fast window proves it is still happening. Zero durations default
	// to 5m / 1h.
	Fast, Slow time.Duration
	// Threshold is the burn rate at which both windows must sit for a
	// breach; <= 0 defaults to 1.
	Threshold float64
	// Cooldown is the minimum gap between breach firings; <= 0 defaults
	// to the slow window, so one incident triggers one capture.
	Cooldown time.Duration
	// OnBreach, when set, fires (edge-triggered, outside the monitor
	// lock) each time a new breach is detected.
	OnBreach func(fast, slow float64)

	nowFn func() time.Time // injectable clock for tests
}

// burnBucket is one second's worth of request outcomes.
type burnBucket struct {
	sec       int64 // unix second this bucket covers
	good, bad uint64
}

// burnSum is one window's running outcome totals over the seconds
// (cur-secs, cur], where cur is the monitor's latest second.
type burnSum struct {
	secs      int64
	good, bad uint64
}

// record counts one outcome of the latest second; a window shorter than
// a second holds none.
func (w *burnSum) record(good bool) {
	switch {
	case w.secs == 0:
	case good:
		w.good++
	default:
		w.bad++
	}
}

// drop takes a second that left the window out of its totals.
func (w *burnSum) drop(b *burnBucket) {
	w.good -= b.good
	w.bad -= b.bad
}

func (w *burnSum) rate(budget float64) float64 {
	total := w.good + w.bad
	if total == 0 {
		return 0
	}
	return float64(w.bad) / float64(total) / budget
}

// BurnMonitor tracks SLO burn rate over multiple lookback windows from a
// ring of per-second good/bad buckets, and fires an edge-triggered breach
// callback when every window's burn rate crosses the threshold. Each
// window keeps running totals, updated as seconds roll in and out of it,
// so recording an outcome and reading a rate cost O(1) whatever the
// window's length.
type BurnMonitor struct {
	cfg BurnConfig

	mu         sync.Mutex
	ring       []burnBucket // one bucket per second, len = slow window seconds + 1
	cur        int64        // latest second seen; both windows end here
	fast, slow burnSum
	breaches   uint64
	lastFire   time.Time
	firing     bool
}

// NewBurnMonitor creates a burn-rate monitor.
func NewBurnMonitor(cfg BurnConfig) *BurnMonitor {
	if cfg.Budget <= 0 {
		cfg.Budget = 0.05
	}
	if cfg.Fast <= 0 {
		cfg.Fast = 5 * time.Minute
	}
	if cfg.Slow <= 0 {
		cfg.Slow = time.Hour
	}
	if cfg.Slow < cfg.Fast {
		cfg.Slow = cfg.Fast
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 1
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = cfg.Slow
	}
	if cfg.nowFn == nil {
		cfg.nowFn = time.Now
	}
	secs := int(cfg.Slow/time.Second) + 1
	if secs < 2 {
		secs = 2
	}
	return &BurnMonitor{cfg: cfg, ring: make([]burnBucket, secs),
		fast: burnSum{secs: int64(cfg.Fast / time.Second)},
		slow: burnSum{secs: int64(cfg.Slow / time.Second)}}
}

// Record folds one request outcome into the current second's bucket and
// re-evaluates the breach condition. good should be false for requests
// that burned error budget (5xx or SLO-violating latency). A clock that
// steps back counts the outcome into the latest second seen.
func (m *BurnMonitor) Record(good bool) {
	if m == nil {
		return
	}
	now := m.cfg.nowFn()
	var onBreach func(fast, slow float64)
	var fast, slow float64

	m.mu.Lock()
	m.advanceLocked(now.Unix())
	b := m.bucket(m.cur)
	if b.sec != m.cur {
		*b = burnBucket{sec: m.cur}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
	m.fast.record(good)
	m.slow.record(good)
	fast = m.fast.rate(m.cfg.Budget)
	slow = m.slow.rate(m.cfg.Budget)
	breaching := fast >= m.cfg.Threshold && slow >= m.cfg.Threshold
	if breaching {
		if !m.firing && now.Sub(m.lastFire) >= m.cfg.Cooldown {
			m.firing = true
			m.lastFire = now
			m.breaches++
			onBreach = m.cfg.OnBreach
		}
	} else {
		m.firing = false
	}
	m.mu.Unlock()

	if onBreach != nil {
		onBreach(fast, slow)
	}
}

// bucket returns the ring slot of unix second sec.
func (m *BurnMonitor) bucket(sec int64) *burnBucket {
	n := int64(len(m.ring))
	return &m.ring[(sec%n+n)%n]
}

// advanceLocked moves both windows' end to sec, taking out of each
// window's totals the seconds that leave it. A step of a whole slow
// window or more leaves nothing in either window; a step back does
// nothing.
func (m *BurnMonitor) advanceLocked(sec int64) {
	if sec <= m.cur {
		return
	}
	if sec-m.cur >= m.slow.secs {
		m.fast.good, m.fast.bad, m.slow.good, m.slow.bad = 0, 0, 0, 0
		m.cur = sec
		return
	}
	for s := m.cur + 1; s <= sec; s++ {
		for _, w := range []*burnSum{&m.fast, &m.slow} {
			if b := m.bucket(s - w.secs); w.secs > 0 && b.sec == s-w.secs {
				w.drop(b)
			}
		}
	}
	m.cur = sec
}

// rate returns the burn rate over w at the current time.
func (m *BurnMonitor) rate(w *burnSum) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceLocked(m.cfg.nowFn().Unix())
	return w.rate(m.cfg.Budget)
}

// FastRate returns the burn rate over the fast window.
func (m *BurnMonitor) FastRate() float64 {
	if m == nil {
		return 0
	}
	return m.rate(&m.fast)
}

// SlowRate returns the burn rate over the slow window.
func (m *BurnMonitor) SlowRate() float64 {
	if m == nil {
		return 0
	}
	return m.rate(&m.slow)
}

// Breaches returns how many distinct breaches have fired.
func (m *BurnMonitor) Breaches() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breaches
}
