package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie strictly above a
// percentile before the benchmark reports it: a percentile with fewer
// samples beyond it is essentially the maximum of a handful of ops.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0,1]) and
// whether at least minBeyond samples lie strictly above it. xs need not
// be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	v := s[idx]
	above := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, above >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile(q)
// can have minBeyond samples above it.
func minSamplesFor(q float64) int {
	n := 1
	for float64(n)-math.Ceil(q*float64(n)) < minBeyond {
		n++
	}
	return n
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap's free memory to the OS and resets the
// kernel's resident-set high-water mark to the current resident set, so
// that peakRSSMB covers only what runs after the call, not a workload's
// fixture.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// mallocs is the cumulative heap allocation count of the process.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// opLog collects the timings of one kind of op. Every timing metric of a
// workload is derived from a single opLog, so ops_per_s, p50_us, p99_us
// and cpu_us_per_op always count the same op: the latencies are the
// ops, busy is the wall time those ops occupied (the loop window for a
// concurrent loop, the sum of op durations for a serial loop that does
// untimed work between ops), and cpu is the process CPU time over the
// same intervals.
type opLog struct {
	latUs []float64
	busy  time.Duration
	cpu   time.Duration
}

// timeSerial runs op once, appending its duration and CPU time to the log.
func (l *opLog) timeSerial(op func() error) error {
	c0 := cpuTime()
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	l.cpu += cpuTime() - c0
	l.busy += d
	l.latUs = append(l.latUs, float64(d.Nanoseconds())/1e3)
	return err
}

// add appends the ops of another log of the same op.
func (l *opLog) add(o *opLog) {
	l.latUs = append(l.latUs, o.latUs...)
	l.busy += o.busy
	l.cpu += o.cpu
}

func (l *opLog) ops() int { return len(l.latUs) }

// timingMetrics renders the log's four timing metrics with a shared
// sample count. p99_us is included only when enough samples lie beyond
// it; p50_us likewise.
func (l *opLog) timingMetrics() []metric {
	n := l.ops()
	if n == 0 || l.busy <= 0 {
		return nil
	}
	out := []metric{
		{Name: "ops_per_s", Value: float64(n) / l.busy.Seconds(), Unit: "1/s", Samples: n},
		{Name: "cpu_us_per_op", Value: float64(l.cpu.Nanoseconds()) / 1e3 / float64(n), Unit: "us", Samples: n},
	}
	if v, ok := percentile(l.latUs, 0.50); ok {
		out = append(out, metric{Name: "p50_us", Value: v, Unit: "us", Samples: n})
	}
	if v, ok := percentile(l.latUs, 0.99); ok {
		out = append(out, metric{Name: "p99_us", Value: v, Unit: "us", Samples: n})
	}
	return out
}

// minHardStop is the least time a serial loop may run past its window
// to reach the sample count its percentile needs, so a slow host still
// reports p50_us; it keeps a run well inside three minutes.
const minHardStop = 90 * time.Second

// hardStop is when a loop started at start with the given window stops
// even if it has not reached its minimum op count.
func hardStop(start time.Time, window time.Duration) time.Time {
	return start.Add(max(3*window, minHardStop))
}

// loopUntil runs body(0), body(1), ... until the deadline has passed
// and at least minOps iterations have run, or until hardStop passes.
func loopUntil(deadline, hardStop time.Time, minOps int, body func(i int) error) error {
	for i := 0; ; i++ {
		now := time.Now()
		if (now.After(deadline) && i >= minOps) || now.After(hardStop) {
			return nil
		}
		if err := body(i); err != nil {
			return err
		}
	}
}
