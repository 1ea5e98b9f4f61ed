package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of 0.99, 0.95 and 0.9 that leaves at least
// ten samples beyond it in n samples, so a reported tail never rests on a
// handful of points; 0.5 when even p90 cannot be supported.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// ms converts a duration to float milliseconds; us to microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a point-in-time reading of the process-wide runtime and
// kernel counters the per-layer metrics take deltas of.
type procSample struct {
	mallocs, bytes, gcs uint64
	cpu                 time.Duration
}

func (p procSample) minus(o procSample) procSample {
	return procSample{p.mallocs - o.mallocs, p.bytes - o.bytes, p.gcs - o.gcs, p.cpu - o.cpu}
}

func (p procSample) plus(o procSample) procSample {
	return procSample{p.mallocs + o.mallocs, p.bytes + o.bytes, p.gcs + o.gcs, p.cpu + o.cpu}
}

// sampleProc reads runtime.MemStats (a brief stop-the-world, so call it
// only at window boundaries) and getrusage CPU time.
func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: uint64(m.NumGC), cpu: cpuTime()}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the
// current RSS, so the next peakRSSMB covers only what follows. Where the
// kernel refuses, VmHWM stays the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
