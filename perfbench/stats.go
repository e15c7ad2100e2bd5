package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of ds by the nearest-rank rule (0 for
// no samples). ds is not modified.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Runtime counters read through runtime/metrics, which does not stop the
// world.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCPauses     = "/gc/pauses:seconds"
)

// runtimeSample is one reading of the counters above, plus the machine's
// CPU time counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles uint64
	pauses                             *metrics.Float64Histogram
	// cpuSteal and cpuTotal are the machine's stolen and total CPU time
	// in clock ticks (/proc/stat); zero where unavailable.
	cpuSteal, cpuTotal uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles}, {Name: mGCPauses}}
	metrics.Read(s)
	r := runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		pauses:       s[3].Value.Float64Histogram(),
	}
	r.cpuSteal, r.cpuTotal = readCPUTicks()
	return r
}

// readCPUTicks returns the machine's stolen and total CPU ticks from the
// first line of /proc/stat.
func readCPUTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of the machine's CPU time stolen by the host
// between two readings.
func stealPct(before, after runtimeSample) float64 {
	if after.cpuTotal <= before.cpuTotal {
		return 0
	}
	return 100 * float64(after.cpuSteal-before.cpuSteal) / float64(after.cpuTotal-before.cpuTotal)
}

// pauseQuantile returns the q-quantile of the GC pauses between two
// readings, in milliseconds (the upper edge of the bucket it falls in).
func pauseQuantile(before, after runtimeSample, q float64) float64 {
	h := after.pauses
	counts := make([]uint64, len(h.Counts))
	var total uint64
	for i := range h.Counts {
		counts[i] = h.Counts[i]
		if i < len(before.pauses.Counts) {
			counts[i] -= before.pauses.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank && c > 0 {
			if math.IsInf(h.Buckets[i+1], 1) {
				return h.Buckets[i] * 1e3
			}
			return h.Buckets[i+1] * 1e3
		}
	}
	return h.Buckets[len(h.Buckets)-1] * 1e3
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
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
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
