package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window accumulates what one timed stretch of verdicts measured. The
// stretch is made of rounds, each one whole pass over the workload's
// inputs.
type window struct {
	mu        sync.Mutex
	lat       []time.Duration // one per verdict
	attempted int             // verdicts attempted, one unit each
	ok        int             // verdicts equal to their known answer
	wall      time.Duration   // timed wall time
	cpu       time.Duration   // process user+sys CPU over the timed wall time
	rates     []float64       // units per second, one per round
}

// verdict records one completed verdict.
func (w *window) verdict(d time.Duration, ok bool) {
	w.mu.Lock()
	w.lat = append(w.lat, d)
	w.attempted++
	if ok {
		w.ok++
	}
	w.mu.Unlock()
}

// stopwatch times one round's wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
	n    int // verdicts attempted before the round
}

func (w *window) startWatch() stopwatch {
	w.mu.Lock()
	n := w.attempted
	w.mu.Unlock()
	return stopwatch{wall: time.Now(), cpu: cpuTime(), n: n}
}

// addTo adds the round since start to w's timed wall and CPU time and
// records its rate.
func (s stopwatch) addTo(w *window) {
	wall := time.Since(s.wall)
	cpu := cpuTime() - s.cpu
	w.mu.Lock()
	w.wall += wall
	w.cpu += cpu
	w.rates = append(w.rates, float64(w.attempted-s.n)/wall.Seconds())
	w.mu.Unlock()
}

// cpuTime is the process's user+sys CPU time so far, GC included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least 10 samples above
// it, the percentile that statistic sits at, and whether the sample was
// large enough (with 10 or fewer samples the maximum is returned).
func tail(xs []float64) (v, pct float64, enough bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100, false
	}
	i := n - 11 // 0-based: s[i+1:] holds the 10 samples beyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
