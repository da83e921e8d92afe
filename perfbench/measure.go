package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

const mb = 1 << 20

// quantile returns the nearest-rank p-quantile of xs (+Inf entries are
// failed queries), or 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond returns how many samples of xs lie above its p-quantile.
func beyond(xs []float64, p float64) int {
	q := quantile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the cumulative heap allocation (the counter behind
// runtime.MemStats.TotalAlloc) without stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// window measures process CPU time, allocation and wall time over a
// measured phase.
type window struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func openWindow() window {
	return window{cpu: cpuTime(), alloc: allocBytes(), start: time.Now()}
}

// close returns the wall time, CPU time and bytes allocated since open.
func (w window) close() (wall, cpu time.Duration, alloc uint64) {
	wall = time.Since(w.start)
	return wall, cpuTime() - w.cpu, allocBytes() - w.alloc
}
