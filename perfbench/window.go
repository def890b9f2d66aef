package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// runtimeSnapshot holds the Go runtime counters read at both ends of the
// measurement window.
type runtimeSnapshot struct {
	gcCPU, idleCPU, totalCPU float64 // seconds
	allocBytes, allocObjs    uint64
	pauseCounts              []uint64
	pauseBuckets             []float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	h := s[5].Value.Float64Histogram()
	return runtimeSnapshot{
		gcCPU: s[0].Value.Float64(), idleCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(), allocObjs: s[4].Value.Uint64(),
		pauseCounts: append([]uint64(nil), h.Counts...), pauseBuckets: h.Buckets,
	}
}

// window measures the benchmark process between begin and end: CPU time
// from getrusage, Go runtime counters and, in traced runs, a CPU profile.
type window struct {
	traced bool
	wall   time.Time
	cpu    time.Duration
	rt     runtimeSnapshot
	prof   bytes.Buffer
}

// windowStats is what one window measured.
type windowStats struct {
	wall       time.Duration
	cpu        time.Duration // process user+sys
	gcCPUFrac  float64       // GC share of the CPU the process used
	gcPauseP99 time.Duration
	allocBytes float64
	allocObjs  float64
	profile    []profSample // traced only
}

func beginWindow(traced bool) (*window, error) {
	w := &window{traced: traced}
	if traced {
		if err := pprof.StartCPUProfile(&w.prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	w.rt = readRuntime()
	w.cpu = processCPU()
	w.wall = time.Now()
	return w, nil
}

func (w *window) end() (windowStats, error) {
	var st windowStats
	st.wall = time.Since(w.wall)
	st.cpu = processCPU() - w.cpu
	rt := readRuntime()
	if w.traced {
		pprof.StopCPUProfile()
		samples, err := parseProfile(w.prof.Bytes())
		if err != nil {
			return st, err
		}
		st.profile = samples
	}
	if used := (rt.totalCPU - w.rt.totalCPU) - (rt.idleCPU - w.rt.idleCPU); used > 0 {
		st.gcCPUFrac = (rt.gcCPU - w.rt.gcCPU) / used
	}
	st.allocBytes = float64(rt.allocBytes - w.rt.allocBytes)
	st.allocObjs = float64(rt.allocObjs - w.rt.allocObjs)
	st.gcPauseP99 = histDeltaQuantile(w.rt.pauseCounts, rt.pauseCounts, rt.pauseBuckets, 0.99)
	return st, nil
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// histDeltaQuantile returns the q-quantile of the observations added to a
// runtime histogram between two readings, as the upper edge of the bucket
// holding it.
func histDeltaQuantile(a, b []uint64, buckets []float64, q float64) time.Duration {
	var total uint64
	for i := range b {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b {
		cum += b[i] - a[i]
		if cum >= rank {
			edge := buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb is 2^20 bytes.
const mb = 1 << 20
