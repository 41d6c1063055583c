package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns a sorted copy of vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 quantile of an unsorted slice.
func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// reportable lists the percentiles the report may print, in per mille,
// ascending.
var reportable = []int{500, 750, 900, 950, 990, 999}

// highestPercentile returns the highest reportable percentile that still has
// at least ten samples beyond it (the choosing-metrics rule), or 0 when even
// the median has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range reportable {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openLoopSample is one request of an open-loop run.
type openLoopSample struct {
	Due  time.Duration // scheduled send time, from the start of the window
	Free time.Duration // when a connection was free to send it
	Sent time.Duration // when the generator actually sent it
	Done time.Duration // when the answer was complete
}

// Latency is timed from the due time, so a stalled server charges its stall
// to every request that was due meanwhile (no coordinated omission).
func (s openLoopSample) Latency() time.Duration { return s.Done - s.Due }

// Lateness is the generator's own share of a late send: how long after both
// the due time and a free connection the request actually left. Waiting for
// a busy connection is the server's doing and counts in Latency only.
func (s openLoopSample) Lateness() time.Duration {
	ready := s.Due
	if s.Free > ready {
		ready = s.Free
	}
	if s.Sent <= ready {
		return 0
	}
	return s.Sent - ready
}

// procSample is one reading of a process's CPU time and peak resident set.
type procSample struct {
	CPU   time.Duration // utime + stime
	HWMKB int64         // VmHWM
}

// clockTick is the kernel's USER_HZ; 100 on every Linux this runs on.
const clockTick = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat. The
// command name may hold spaces and parentheses, so fields are counted from
// the last ')'.
func parseProcStat(text string) (time.Duration, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// parseVmHWM extracts VmHWM (kB) from the text of /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// readProc samples one live process.
func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.CPU, err = parseProcStat(string(stat)); err != nil {
		return procSample{}, err
	}
	if s.HWMKB, err = parseVmHWM(string(status)); err != nil {
		return procSample{}, err
	}
	return s, nil
}
