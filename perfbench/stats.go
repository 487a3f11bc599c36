package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepsecure/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it, never below the median: with fewer than twenty samples the tail
// is the median.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if n == 0 || q < 0.5 {
		return 0.5
	}
	return q
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's VmHWM in MB (10^6 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// obsDelta is the change in the process-wide serving metrics between
// two snapshots.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) counter(name string, labels ...obs.Label) int64 {
	a, _ := d.after.Get(name, labels...)
	b, _ := d.before.Get(name, labels...)
	return a.Value - b.Value
}

// phaseSeconds returns the wall time recorded for one protocol phase.
func (d obsDelta) phaseSeconds(p obs.Phase) float64 {
	l := obs.Label{Key: "phase", Value: p.String()}
	a, _ := d.after.Get("deepsecure_phase_seconds", l)
	b, _ := d.before.Get("deepsecure_phase_seconds", l)
	return float64(a.Hist.Sum-b.Hist.Sum) / 1e9
}
