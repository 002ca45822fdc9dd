package main

import (
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rtSnap is a point-in-time reading of process CPU and Go runtime counters.
type rtSnap struct {
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
	gc    float64       // cumulative GC CPU seconds
	busy  float64       // cumulative non-idle CPU seconds, as the runtime counts it
	sched *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := rtSnap{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.alloc = samples[0].Value.Uint64()
	s.gc = samples[1].Value.Float64()
	s.busy = samples[2].Value.Float64() - samples[3].Value.Float64()
	s.sched = samples[4].Value.Float64Histogram()
	return s
}

// layer adds the runtime's per-layer metrics for the interval s..e.
func (s rtSnap) layer(e rtSnap, ops float64, out map[string]float64) {
	out["runtime.alloc_kb_per_op"] = float64(e.alloc-s.alloc) / 1024 / ops
	if busy := e.busy - s.busy; busy > 0 {
		out["runtime.gc_cpu_share"] = (e.gc - s.gc) / busy
	}
	// The scheduler histogram is cumulative: subtract, then interpolate the
	// p99 inside its bucket (an open-ended edge bucket reports its finite
	// bound).
	var total uint64
	counts := make([]uint64, len(e.sched.Counts))
	for i := range counts {
		counts[i] = e.sched.Counts[i] - s.sched.Counts[i]
		total += counts[i]
	}
	target := 0.99 * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < target {
			seen += float64(c)
			continue
		}
		lo, hi := e.sched.Buckets[i], e.sched.Buckets[i+1]
		v := lo + (hi-lo)*(target-seen)/float64(c)
		switch {
		case math.IsInf(hi, 1):
			v = lo
		case math.IsInf(lo, -1):
			v = hi
		}
		out["runtime.sched_wait_p99_us"] = v * 1e6
		break
	}
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) so that a
// trial reads its own peak. Best effort: without it the peak also covers
// what ran before.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM from /proc/self/status in MB, or 0.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
